/**
 * @file
 * Bootstrapping demo: exhaust a ciphertext's level budget with
 * repeated multiplications, refresh it with the slim bootstrap of
 * paper Fig. 6 (SlotToCoeff -> ModRaise -> CoeffToSlot -> Sine
 * Evaluation), and keep computing.
 *
 * Build & run:  ./build/examples/bootstrap_demo
 */

#include <cmath>
#include <cstdio>

#include "boot/bootstrap.hh"

using namespace tensorfhe;
using namespace tensorfhe::ckks;

int
main()
{
    CkksContext ctx(Presets::bootTest());
    std::printf("Bootstrap demo: N=%zu, %zu-limb chain, sparse secret "
                "(h=%zu)\n",
                ctx.n(), ctx.tower().numQ(),
                ctx.params().secretHamming);

    Rng rng(17);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(
        sk, rng, boot::Bootstrapper::requiredRotations(ctx.slots()));
    Encryptor enc(ctx, keys.pk);
    Decryptor dec(ctx, sk);
    // One ciphertext is a one-element batch of the evaluator.
    batch::BatchedEvaluator eval(ctx, keys);
    boot::Bootstrapper boots(ctx);

    // A payload of modest magnitude.
    std::vector<Complex> z(ctx.slots());
    Rng data(3);
    for (auto &v : z)
        v = Complex(0.8 * (2 * data.uniformReal() - 1), 0);
    double expect0 = z[0].real();

    std::vector<Ciphertext> ct{enc.encrypt(
        ctx.encoder().encode(z, ctx.params().scale(), 4), rng)};
    std::printf("\nfresh ciphertext: %zu limbs, slot0 = %.4f\n",
                ct[0].levelCount(), expect0);

    // Burn the budget.
    while (ct[0].levelCount() > 2) {
        ct = eval.rescale(eval.multiply(ct, ct));
        expect0 = expect0 * expect0;
        std::printf("  squared: %zu limbs left, slot0 = %.4f "
                    "(expect %.4f)\n",
                    ct[0].levelCount(),
                    dec.decryptAndDecode(ct[0])[0].real(), expect0);
    }

    // Refresh.
    std::printf("\nbootstrapping...\n");
    auto refreshed = boots.bootstrapBatch(eval, ct);
    double got = dec.decryptAndDecode(refreshed[0])[0].real();
    std::printf("refreshed: %zu limbs, slot0 = %.4f (expect %.4f, "
                "error %.3g)\n",
                refreshed[0].levelCount(), got, expect0,
                std::abs(got - expect0));

    // And keep computing on the refreshed ciphertext.
    auto more = eval.rescale(eval.multiply(refreshed, refreshed));
    std::printf("post-refresh square: %zu limbs, slot0 = %.4f "
                "(expect %.4f)\n",
                more[0].levelCount(),
                dec.decryptAndDecode(more[0])[0].real(),
                expect0 * expect0);
    std::printf("\nThis is the primitive behind the paper's Packed "
                "Bootstrapping workload\n(Table X) and the Bootstrap "
                "row of Table VII.\n");
    return 0;
}
