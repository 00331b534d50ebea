/**
 * @file
 * Functional encrypted LSTM-cell tests: one step against the
 * plaintext reference (same polynomial gates), the rotation-key
 * union, and executed-op statistics against the prediction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "workloads/lstm.hh"

namespace tensorfhe::workloads
{
namespace
{

struct LstmFixture
{
    LstmFixture()
        : ctx(EncryptedLstmCell::recommendedParams()), cell(ctx),
          rng(88), sk(ctx.generateSecretKey(rng)),
          keys(ctx.generateKeys(sk, rng, cell.requiredRotations())),
          enc(ctx, keys.pk), dec(ctx, sk), engine(ctx, keys)
    {}

    std::vector<double>
    randomState(u64 seed)
    {
        Rng r(seed);
        std::vector<double> v(cell.config().dim);
        for (auto &x : v)
            x = 2 * r.uniformReal() - 1;
        return v;
    }

    nn::CipherTensor
    encryptState(const std::vector<double> &v)
    {
        return nn::encryptTensor(ctx, enc, rng, v,
                                 cell.inputMeta().shape,
                                 cell.inputMeta().levelCount);
    }

    ckks::CkksContext ctx;
    EncryptedLstmCell cell;
    Rng rng;
    ckks::SecretKey sk;
    ckks::KeyBundle keys;
    ckks::Encryptor enc;
    ckks::Decryptor dec;
    nn::NnEngine engine;
};

LstmFixture &
fx()
{
    static LstmFixture f;
    return f;
}

TEST(EncryptedLstmCell, StepMatchesPlainReference)
{
    auto &f = fx();
    auto xv = f.randomState(11);
    auto hv = f.randomState(12);
    auto cv = f.randomState(13);

    EncryptedLstmCell::State state{f.encryptState(hv),
                                   f.encryptState(cv)};
    auto next = f.cell.step(f.engine, f.encryptState(xv), state);
    auto plain = f.cell.stepPlain(xv, {hv, cv});

    auto h = nn::decryptTensor(f.ctx, f.dec, next.h);
    auto c = nn::decryptTensor(f.ctx, f.dec, next.c);
    ASSERT_EQ(h.size(), plain.h.size());
    for (std::size_t j = 0; j < h.size(); ++j) {
        EXPECT_NEAR(h[j], plain.h[j], 1e-2) << "h[" << j << "]";
        EXPECT_NEAR(c[j], plain.c[j], 1e-2) << "c[" << j << "]";
    }
    // The gates actually moved the state (not an identity map).
    double moved = 0;
    for (std::size_t j = 0; j < c.size(); ++j)
        moved = std::max(moved, std::abs(plain.c[j] - cv[j]));
    EXPECT_GT(moved, 1e-3);
}

TEST(EncryptedLstmCell, ExecutedOpsMatchPrediction)
{
    auto &f = fx();
    EncryptedLstmCell::State state{f.encryptState(f.randomState(21)),
                                   f.encryptState(f.randomState(22))};
    auto x = f.encryptState(f.randomState(23));
    EvalOpStats::instance().reset();
    f.cell.step(f.engine, x, state);
    auto got = EvalOpStats::instance().snapshot();
    auto want = f.cell.modeledOps();
    for (std::size_t k = 0; k < kNumEvalOpKinds; ++k) {
        auto kind = static_cast<EvalOpKind>(k);
        EXPECT_EQ(got.get(kind), want.get(kind))
            << evalOpKindName(kind);
    }
}

TEST(EncryptedLstmCell, StateInputsAreZeroPadded)
{
    // x, h and c arrive as fresh encryptTensor outputs: the gate
    // matvecs may replicate them (the tall form).
    EXPECT_TRUE(fx().cell.inputMeta().zeroPadded);
}

TEST(EncryptedLstmCell, RotationUnionIsDeduplicated)
{
    auto &f = fx();
    auto steps = f.cell.requiredRotations();
    EXPECT_TRUE(std::is_sorted(steps.begin(), steps.end()));
    EXPECT_EQ(std::adjacent_find(steps.begin(), steps.end()),
              steps.end());
    // The gate-alignment steps d, 2d, 3d are always present.
    auto d = static_cast<s64>(f.cell.config().dim);
    for (s64 s : {d, 2 * d, 3 * d})
        EXPECT_TRUE(
            std::binary_search(steps.begin(), steps.end(), s));
}

} // namespace
} // namespace tensorfhe::workloads
