#include "ckks/encoder.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tensorfhe::ckks
{

CkksEncoder::CkksEncoder(const rns::RnsTower &tower)
    : tower_(tower), slots_(tower.n() / 2)
{
    std::size_t m = 2 * tower.n();
    rotGroup_.resize(slots_);
    std::size_t five = 1;
    for (std::size_t j = 0; j < slots_; ++j) {
        rotGroup_[j] = five;
        five = (five * 5) % m;
    }
    ksiPows_.resize(m + 1);
    for (std::size_t j = 0; j <= m; ++j) {
        double angle = 2.0 * M_PI * static_cast<double>(j)
            / static_cast<double>(m);
        ksiPows_[j] = Complex(std::cos(angle), std::sin(angle));
    }
}

namespace
{

void
arrayBitReverse(std::vector<Complex> &vals)
{
    std::size_t n = vals.size();
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j >= bit; bit >>= 1)
            j -= bit;
        j += bit;
        if (i < j)
            std::swap(vals[i], vals[j]);
    }
}

} // namespace

void
CkksEncoder::fftSpecial(std::vector<Complex> &vals) const
{
    std::size_t size = vals.size();
    std::size_t m = 2 * tower_.n();
    arrayBitReverse(vals);
    for (std::size_t len = 2; len <= size; len <<= 1) {
        std::size_t lenh = len >> 1;
        std::size_t lenq = len << 2;
        for (std::size_t i = 0; i < size; i += len) {
            for (std::size_t j = 0; j < lenh; ++j) {
                std::size_t idx =
                    (rotGroup_[j] % lenq) * (m / lenq);
                Complex u = vals[i + j];
                Complex v = vals[i + j + lenh] * ksiPows_[idx];
                vals[i + j] = u + v;
                vals[i + j + lenh] = u - v;
            }
        }
    }
}

void
CkksEncoder::fftSpecialInv(std::vector<Complex> &vals) const
{
    std::size_t size = vals.size();
    std::size_t m = 2 * tower_.n();
    for (std::size_t len = size; len >= 2; len >>= 1) {
        std::size_t lenh = len >> 1;
        std::size_t lenq = len << 2;
        for (std::size_t i = 0; i < size; i += len) {
            for (std::size_t j = 0; j < lenh; ++j) {
                std::size_t idx =
                    (lenq - (rotGroup_[j] % lenq)) * (m / lenq);
                Complex u = vals[i + j] + vals[i + j + lenh];
                Complex v =
                    (vals[i + j] - vals[i + j + lenh]) * ksiPows_[idx];
                vals[i + j] = u;
                vals[i + j + lenh] = v;
            }
        }
    }
    arrayBitReverse(vals);
    double inv = 1.0 / static_cast<double>(size);
    for (auto &v : vals)
        v *= inv;
}

Plaintext
CkksEncoder::encode(const std::vector<Complex> &values, double scale,
                    std::size_t level_count) const
{
    requireArg(level_count >= 1 && level_count <= tower_.numQ(),
               "bad level count");
    std::vector<std::size_t> limbs(level_count);
    for (std::size_t i = 0; i < level_count; ++i)
        limbs[i] = i;
    return encodeOnLimbs(values, scale, limbs);
}

Plaintext
CkksEncoder::encodeOnLimbs(const std::vector<Complex> &values,
                           double scale,
                           const std::vector<std::size_t> &limbs) const
{
    requireArg(values.size() <= slots_, "too many values for N/2 slots");
    requireArg(scale > 0, "scale must be positive");
    requireArg(!limbs.empty(), "need at least one limb");

    std::vector<Complex> vals(slots_, Complex(0, 0));
    std::copy(values.begin(), values.end(), vals.begin());
    fftSpecialInv(vals);

    std::vector<s64> coeffs(tower_.n());
    for (std::size_t j = 0; j < slots_; ++j) {
        coeffs[j] = static_cast<s64>(std::llround(vals[j].real() * scale));
        coeffs[j + slots_] =
            static_cast<s64>(std::llround(vals[j].imag() * scale));
    }

    Plaintext pt{rns::liftSigned(tower_, limbs, coeffs), scale};
    pt.poly.toEval();
    return pt;
}

Plaintext
CkksEncoder::encodeConstant(Complex value, double scale,
                            std::size_t level_count) const
{
    if (value.imag() != 0.0)
        return encode(std::vector<Complex>(slots_, value), scale,
                      level_count);
    requireArg(level_count >= 1 && level_count <= tower_.numQ(),
               "bad level count");
    requireArg(scale > 0, "scale must be positive");
    // The special inverse FFT of a constant real vector is exactly
    // (c, 0, ..., 0) (every butterfly difference is 0, every sum a
    // power-of-two multiple of c), so encode() would round the
    // constant polynomial llround(c * scale), whose NTT is that
    // integer at every evaluation point: write its residues directly.
    s64 c = std::llround(value.real() * scale);
    Plaintext pt{rns::RnsPolynomial::zeros(tower_, level_count,
                                           rns::Domain::Eval),
                 scale};
    for (std::size_t i = 0; i < level_count; ++i) {
        u64 q = pt.poly.limbModulus(i).value();
        u64 r = c >= 0 ? static_cast<u64>(c) % q
                       : (q - static_cast<u64>(-c) % q) % q;
        std::fill_n(pt.poly.limb(i), tower_.n(), r);
    }
    return pt;
}

std::vector<Complex>
CkksEncoder::decode(const Plaintext &pt) const
{
    requireArg(pt.scale > 0, "plaintext has no scale");
    rns::RnsPolynomial poly = pt.poly;
    poly.toCoeff();

    std::size_t n = tower_.n();
    std::vector<double> centered(n);
    if (poly.numLimbs() == 1) {
        u64 q = poly.limbModulus(0).value();
        for (std::size_t c = 0; c < n; ++c) {
            u64 v = poly.limb(0)[c];
            centered[c] = v <= q / 2
                ? static_cast<double>(v)
                : -static_cast<double>(q - v);
        }
    } else {
        // CRT over the first two limbs: exact while |coeff| < q0*q1/2.
        u64 q0 = poly.limbModulus(0).value();
        u64 q1 = poly.limbModulus(1).value();
        u128 q01 = static_cast<u128>(q0) * q1;
        u64 q0_inv_mod_q1 = invMod(q0 % q1, q1);
        for (std::size_t c = 0; c < n; ++c) {
            u64 r0 = poly.limb(0)[c];
            u64 r1 = poly.limb(1)[c];
            // x = r0 + q0 * ((r1 - r0) * q0^-1 mod q1)
            u64 t = mulMod(subMod(r1, r0 % q1, q1), q0_inv_mod_q1, q1);
            u128 x = static_cast<u128>(r0) + static_cast<u128>(q0) * t;
            centered[c] = x <= q01 / 2
                ? static_cast<double>(x)
                : -static_cast<double>(q01 - x);
        }
    }

    std::vector<Complex> vals(slots_);
    for (std::size_t j = 0; j < slots_; ++j) {
        vals[j] = Complex(centered[j] / pt.scale,
                          centered[j + slots_] / pt.scale);
    }
    fftSpecial(vals);
    return vals;
}

} // namespace tensorfhe::ckks
