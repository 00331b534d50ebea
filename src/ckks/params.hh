/**
 * @file
 * CKKS parameter sets, including the paper's Table V workload
 * configurations, the HEAX comparison sets (Table VIII), and the
 * scaled-down functional sets used for tests on this machine (see
 * DESIGN.md SS3 for the parameter policy).
 */

#ifndef TENSORFHE_CKKS_PARAMS_HH
#define TENSORFHE_CKKS_PARAMS_HH

#include <cstddef>
#include <string>

#include "ntt/ntt.hh"
#include "rns/tower.hh"

namespace tensorfhe::ckks
{

/** Full parameterization of a CKKS instance. */
struct CkksParams
{
    std::size_t n = 1 << 12;  ///< polynomial degree N
    int levels = 6;           ///< L: maximum multiplicative level
    int special = 1;          ///< K: special primes (see minSpecial)
    int dnum = 0;             ///< decomposition number; 0 = L + 1
    int scaleBits = 25;       ///< log2 of the encoding scale
    int firstBits = 30;       ///< size of q_0
    int specialBits = 30;     ///< size of p_k
    double sigma = 3.2;       ///< error stddev
    /**
     * Hamming weight of the ternary secret; 0 = dense. Sparse
     * secrets bound the modular overflow |I| during bootstrapping
     * (standard in bootstrappable CKKS parameterizations).
     */
    std::size_t secretHamming = 0;
    ntt::NttVariant nttVariant = ntt::NttVariant::Butterfly;

    /** Digit width alpha = ceil((L+1) / dnum). */
    std::size_t alpha() const;
    /** Effective dnum (resolves the 0 = L+1 default). */
    int effectiveDnum() const;
    /**
     * The special-prime rule: the smallest K whose P = p_0 ... p_{K-1}
     * covers the widest digit, q_0 plus alpha - 1 scale primes (GKS
     * noise control, paper SII-B). validate() rejects any smaller K;
     * parameter sets that choose a dnum take K from here.
     */
    int minSpecial() const;
    /** Nominal log2(PQ): the bit sizes of every q and p prime summed. */
    int nominalLogPQ() const;
    double scale() const { return static_cast<double>(u64(1) << scaleBits); }
    std::size_t slots() const { return n / 2; }

    rns::TowerConfig towerConfig() const;

    /** Throws std::invalid_argument on inconsistent settings. */
    void validate() const;
};

/**
 * Named presets.
 *
 * Paper-scale sets reproduce Table V (N, L, K); they are meant for
 * the analytical perf model. Functional sets (Tiny/Small/Medium) are
 * the scaled-down instances the tests and measured benches run.
 */
struct Presets
{
    /// Paper Table V "Default": N = 2^16, L = 44, K = 1.
    static CkksParams paperDefault();
    /// Paper Table V "ResNet-20": N = 2^16, L = 29.
    static CkksParams paperResNet20();
    /// Paper Table V "Logistic Regression": N = 2^16, L = 38.
    static CkksParams paperLogisticRegression();
    /// Paper Table V "LSTM": N = 2^15, L = 25.
    static CkksParams paperLstm();
    /// Paper Table V "Packed Bootstrapping": N = 2^16, L = 57.
    static CkksParams paperPackedBootstrapping();

    /// HEAX Set A/B/C (Table VIII): N = 2^12/2^13/2^14, K = 2/4/8.
    static CkksParams heaxSetA();
    static CkksParams heaxSetB();
    static CkksParams heaxSetC();

    /// Functional sets sized for this machine.
    static CkksParams tiny();   ///< N = 2^10, L = 3
    static CkksParams small();  ///< N = 2^12, L = 6
    static CkksParams medium(); ///< N = 2^13, L = 8
    /// Bootstrappable functional set: N = 2^8, deep chain, sparse key.
    static CkksParams bootTest();
};

} // namespace tensorfhe::ckks

#endif // TENSORFHE_CKKS_PARAMS_HH
