/**
 * @file
 * Quickstart: key generation, encoding, encryption, the five CKKS
 * operations of paper Table II, and decryption — everything a first
 * user needs to compute on encrypted data.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>
#include <vector>

#include "batch/executor.hh"
#include "ckks/crypto.hh"

using namespace tensorfhe;
using namespace tensorfhe::ckks;

int
main()
{
    // 1. Parameters: N = 2^12, 6 multiplicative levels, ~25-bit scale.
    CkksContext ctx(Presets::small());
    std::printf("TensorFHE quickstart: N=%zu, slots=%zu, levels=%d\n",
                ctx.n(), ctx.slots(), ctx.params().levels);

    // 2. Keys: secret, public, relinearization, one rotation step.
    Rng rng(/*seed=*/2024);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, /*rotations=*/{1});
    Encryptor enc(ctx, keys.pk);
    Decryptor dec(ctx, sk);
    // The evaluator runs every operation over a batch of ciphertexts;
    // one ciphertext is a one-element batch.
    batch::BatchedEvaluator eval(ctx, keys);
    using Cts = batch::BatchedEvaluator::Cts;

    // 3. Encode and encrypt two small vectors.
    std::vector<Complex> a = {{1.5, 0}, {2.0, 0}, {-0.5, 0}, {3.0, 0}};
    std::vector<Complex> b = {{0.5, 0}, {1.0, 0}, {4.0, 0}, {-1.0, 0}};
    double scale = ctx.params().scale();
    std::size_t level_count = ctx.tower().numQ();
    Cts ct_a{enc.encrypt(ctx.encoder().encode(a, scale, level_count), rng)};
    Cts ct_b{enc.encrypt(ctx.encoder().encode(b, scale, level_count), rng)};

    // 4. Compute on ciphertexts: (a + b), (a * b), rotate(a, 1).
    auto ct_sum = eval.add(ct_a, ct_b);                     // HADD
    auto ct_prod = eval.rescale(eval.multiply(ct_a, ct_b)); // HMULT+RESCALE
    auto ct_rot = eval.rotate(ct_a, 1);                     // HROTATE

    // 5. Decrypt and inspect.
    auto sum = dec.decryptAndDecode(ct_sum[0]);
    auto prod = dec.decryptAndDecode(ct_prod[0]);
    auto rot = dec.decryptAndDecode(ct_rot[0]);
    std::printf("\n%-6s %10s %10s %10s\n", "slot", "a+b", "a*b",
                "rot(a,1)");
    for (std::size_t i = 0; i < a.size(); ++i) {
        std::printf("%-6zu %10.4f %10.4f %10.4f\n", i, sum[i].real(),
                    prod[i].real(), rot[i].real());
    }
    std::printf("\nexpected: sums {2, 3, 3.5, 2}, products "
                "{0.75, 2, -2, -3}, rotation {2, -0.5, 3, ...}\n");

    // 6. Level budget: square a sub-unit value down the whole chain
    // (magnitudes must stay inside the message space, |m| * scale
    // < q0/2, so we use 0.9 rather than the vectors above).
    Cts ct{enc.encrypt(
        ctx.encoder().encode({{0.9, 0}}, scale, level_count), rng)};
    double expect = 0.9;
    std::printf("\nlevel budget: start with %zu limbs\n",
                ct[0].levelCount());
    while (ct[0].levelCount() >= 2) {
        ct = eval.rescale(eval.multiply(ct, ct));
        expect *= expect;
        auto v = dec.decryptAndDecode(ct[0]);
        std::printf("  after square: %zu limbs, slot0 = %.6f "
                    "(expect %.6f)\n",
                    ct[0].levelCount(), v[0].real(), expect);
    }
    std::printf("chain exhausted -- this is what bootstrapping "
                "refreshes (see bootstrap_demo).\n");
    return 0;
}
