#include "ckks/params.hh"

#include "common/errors.hh"
#include "common/logging.hh"

namespace tensorfhe::ckks
{

int
CkksParams::effectiveDnum() const
{
    return dnum == 0 ? levels + 1 : dnum;
}

std::size_t
CkksParams::alpha() const
{
    std::size_t l1 = static_cast<std::size_t>(levels) + 1;
    std::size_t d = static_cast<std::size_t>(effectiveDnum());
    return (l1 + d - 1) / d;
}

int
CkksParams::minSpecial() const
{
    int digit_bits = firstBits
        + (static_cast<int>(alpha()) - 1) * scaleBits;
    return (digit_bits + specialBits - 1) / specialBits;
}

int
CkksParams::nominalLogPQ() const
{
    return firstBits + levels * scaleBits + special * specialBits;
}

rns::TowerConfig
CkksParams::towerConfig() const
{
    rns::TowerConfig cfg;
    cfg.n = n;
    cfg.levels = levels;
    cfg.special = special;
    cfg.scaleBits = scaleBits;
    cfg.firstBits = firstBits;
    cfg.specialBits = specialBits;
    return cfg;
}

void
CkksParams::validate() const
{
    requireBudget(isPowerOfTwo(n) && n >= 8, "ckks/params",
                  "N must be a power of two >= 8");
    requireBudget(levels >= 1, "ckks/params", "need at least one level");
    requireBudget(special >= 1, "ckks/params",
                  "need at least one special prime");
    requireBudget(effectiveDnum() >= 1 && effectiveDnum() <= levels + 1,
                  "ckks/params", "dnum out of range");
    requireBudget(special >= minSpecial(), "ckks/params",
                  "special modulus P too small for dnum ",
                  effectiveDnum(), ": need K >= ", minSpecial(),
                  " special primes, have ", special);
}

namespace
{

CkksParams
paperBase(std::size_t n, int levels)
{
    CkksParams p;
    p.n = n;
    p.levels = levels;
    p.special = 1;
    p.scaleBits = 25;
    p.firstBits = 30;
    p.specialBits = 30;
    return p;
}

} // namespace

CkksParams Presets::paperDefault() { return paperBase(1 << 16, 44); }
CkksParams Presets::paperResNet20() { return paperBase(1 << 16, 29); }
CkksParams Presets::paperLogisticRegression()
{
    return paperBase(1 << 16, 38);
}
CkksParams Presets::paperLstm() { return paperBase(1 << 15, 25); }
CkksParams Presets::paperPackedBootstrapping()
{
    return paperBase(1 << 16, 57);
}

CkksParams
Presets::heaxSetA()
{
    // HEAX Set A: N = 2^12, logPQ = 108, K = 2. With ~27-bit primes
    // that is 2 ciphertext + 2 special primes.
    CkksParams p = paperBase(1 << 12, 1);
    p.special = 2;
    p.scaleBits = 27;
    p.firstBits = 27;
    p.specialBits = 27;
    return p;
}

CkksParams
Presets::heaxSetB()
{
    // Set B: N = 2^13, logPQ = 217, K = 4 -> 4 ciphertext + 4 special.
    CkksParams p = paperBase(1 << 13, 3);
    p.special = 4;
    p.scaleBits = 27;
    p.firstBits = 27;
    p.specialBits = 27;
    p.dnum = 4;
    return p;
}

CkksParams
Presets::heaxSetC()
{
    // Set C: N = 2^14, logPQ = 437, K = 8 -> 8 ciphertext + 8 special.
    CkksParams p = paperBase(1 << 14, 7);
    p.special = 8;
    p.scaleBits = 27;
    p.firstBits = 27;
    p.specialBits = 27;
    p.dnum = 8;
    return p;
}

CkksParams
Presets::tiny()
{
    CkksParams p = paperBase(1 << 10, 3);
    return p;
}

CkksParams
Presets::small()
{
    // Keeps the default dnum = L + 1 with one special prime: the
    // one-limb-digit control the batched HMULT benchmark runs.
    CkksParams p = paperBase(1 << 12, 6);
    return p;
}

CkksParams
Presets::medium()
{
    CkksParams p = paperBase(1 << 13, 8);
    return p;
}

CkksParams
Presets::bootTest()
{
    // 28-bit scale: the double-angle range reduction amplifies noise
    // by ~4x per step, so bootstrapping needs the extra headroom.
    CkksParams p = paperBase(1 << 8, 17);
    p.scaleBits = 28;
    p.firstBits = 31;
    p.specialBits = 31;
    p.secretHamming = 16;
    return p;
}

} // namespace tensorfhe::ckks
