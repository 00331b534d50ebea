/**
 * @file
 * Private analytics: a server computes mean, variance and a dot
 * product over a client's encrypted measurements without seeing them
 * — the information-retrieval style application the paper's intro
 * motivates. Uses rotate-and-add reductions (HROTATE) and HMULT.
 *
 * Build & run:  ./build/examples/encrypted_stats
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "batch/executor.hh"
#include "ckks/crypto.hh"

using namespace tensorfhe;
using namespace tensorfhe::ckks;

int
main()
{
    CkksContext ctx(Presets::small());
    Rng rng(31);
    auto sk = ctx.generateSecretKey(rng);
    // Rotation keys for a full log2 reduction tree over the slots.
    std::vector<s64> steps;
    for (std::size_t s = 1; s < ctx.slots(); s *= 2)
        steps.push_back(static_cast<s64>(s));
    auto keys = ctx.generateKeys(sk, rng, steps);
    Encryptor enc(ctx, keys.pk);
    Decryptor dec(ctx, sk);
    // One ciphertext is a one-element batch of the evaluator.
    batch::BatchedEvaluator eval(ctx, keys);
    using Cts = batch::BatchedEvaluator::Cts;

    // Client data: 256 noisy sensor readings around 20 degrees.
    std::size_t count = 256;
    Rng data(5);
    std::vector<Complex> readings(ctx.slots(), Complex(0, 0));
    double true_sum = 0, true_sq = 0;
    for (std::size_t i = 0; i < count; ++i) {
        double v = 20.0 + 2.0 * data.gaussian();
        v /= 64.0; // pre-scale into the encoder's comfortable range
        readings[i] = Complex(v, 0);
        true_sum += v;
        true_sq += v * v;
    }

    double scale = ctx.params().scale();
    std::size_t lc = ctx.tower().numQ();
    Cts ct{enc.encrypt(ctx.encoder().encode(readings, scale, lc), rng)};

    // Server side: sum via rotate-and-add tree (values outside the
    // first `count` slots are zero, so the tree sums exactly).
    auto sum_ct = ct;
    for (std::size_t s = 1; s < ctx.slots(); s *= 2)
        sum_ct = eval.add(sum_ct, eval.rotate(sum_ct, s64(s)));

    // Sum of squares: HMULT then the same reduction.
    auto sq_ct = eval.rescale(eval.multiply(ct, ct));
    for (std::size_t s = 1; s < ctx.slots(); s *= 2)
        sq_ct = eval.add(sq_ct, eval.rotate(sq_ct, s64(s)));

    // Client decrypts the two scalars and finishes the statistics.
    double got_sum = dec.decryptAndDecode(sum_ct[0])[0].real();
    double got_sq = dec.decryptAndDecode(sq_ct[0])[0].real();
    double n = static_cast<double>(count);
    double mean = got_sum / n * 64.0;
    double var = (got_sq / n - (got_sum / n) * (got_sum / n)) * 64.0
        * 64.0;

    std::printf("Private analytics over %zu encrypted readings\n",
                count);
    std::printf("%-22s %12.4f (true %.4f)\n", "mean [deg]:", mean,
                true_sum / n * 64.0);
    std::printf("%-22s %12.4f (true %.4f)\n", "variance [deg^2]:", var,
                (true_sq / n - (true_sum / n) * (true_sum / n)) * 4096);

    // Encrypted dot product with a plaintext weight vector (CMULT):
    // e.g. a seasonal weighting the server applies privately.
    std::vector<Complex> weights(ctx.slots(), Complex(0, 0));
    double true_dot = 0;
    for (std::size_t i = 0; i < count; ++i) {
        weights[i] = Complex(std::sin(0.1 * double(i)) + 1.5, 0);
        true_dot += readings[i].real() * weights[i].real();
    }
    auto w_pt = ctx.encoder().encode(weights, scale, lc);
    auto dot_ct = eval.rescale(eval.multiplyPlain(ct, w_pt));
    for (std::size_t s = 1; s < ctx.slots(); s *= 2)
        dot_ct = eval.add(dot_ct, eval.rotate(dot_ct, s64(s)));
    double got_dot = dec.decryptAndDecode(dot_ct[0])[0].real();
    std::printf("%-22s %12.4f (true %.4f)\n", "weighted dot:", got_dot,
                true_dot);
    return 0;
}
