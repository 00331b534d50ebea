/**
 * @file
 * CKKS canonical-embedding encoder: N/2 complex slots <-> an integer
 * polynomial in R_Q, via the special FFT over the 5^j orbit of
 * 2N-th roots of unity (paper SII-B, Eq. 5).
 */

#ifndef TENSORFHE_CKKS_ENCODER_HH
#define TENSORFHE_CKKS_ENCODER_HH

#include <complex>
#include <vector>

#include "rns/rns_poly.hh"

namespace tensorfhe::ckks
{

using Complex = std::complex<double>;

/** A scaled encoded message. */
struct Plaintext
{
    rns::RnsPolynomial poly; ///< Eval domain
    double scale = 0.0;

    std::size_t levelCount() const { return poly.numLimbs(); }
};

class CkksEncoder
{
  public:
    explicit CkksEncoder(const rns::RnsTower &tower);

    std::size_t slots() const { return slots_; }

    /**
     * Encode up to N/2 complex values (zero-padded) at the given
     * scale into a Plaintext over limbs {0 .. level_count-1}.
     */
    Plaintext encode(const std::vector<Complex> &values, double scale,
                     std::size_t level_count) const;

    /**
     * Encode a constant into every slot. Bit-identical to encode()
     * of the constant vector; a real constant skips the FFT and the
     * NTT (its polynomial is the constant itself).
     */
    Plaintext encodeConstant(Complex value, double scale,
                             std::size_t level_count) const;

    /**
     * Encode over an arbitrary tower limb set (e.g. the key-switch
     * union basis {q_0..q_{l-1}, p_*}). Same rounding as encode() —
     * the integer coefficient vector is identical, only the residue
     * set differs — so restricting the result to the q-limbs matches
     * encode() bit for bit. The double-hoisted BSGS path uses this to
     * multiply diagonals into pre-ModDown (extended-basis)
     * accumulators.
     */
    Plaintext encodeOnLimbs(const std::vector<Complex> &values,
                            double scale,
                            const std::vector<std::size_t> &limbs) const;

    /**
     * Decode back to N/2 complex values. Uses CRT reconstruction over
     * the first min(2, limbs) limbs; valid while coefficient
     * magnitudes stay below q_0*q_1 / 2 (see DESIGN.md SS8).
     */
    std::vector<Complex> decode(const Plaintext &pt) const;

    /** Forward special FFT (decode direction), exposed for tests. */
    void fftSpecial(std::vector<Complex> &vals) const;
    /** Inverse special FFT (encode direction), exposed for tests. */
    void fftSpecialInv(std::vector<Complex> &vals) const;

  private:
    const rns::RnsTower &tower_;
    std::size_t slots_;
    std::vector<std::size_t> rotGroup_; ///< 5^j mod 2N
    std::vector<Complex> ksiPows_;      ///< exp(2 pi i j / 2N)
};

} // namespace tensorfhe::ckks

#endif // TENSORFHE_CKKS_ENCODER_HH
