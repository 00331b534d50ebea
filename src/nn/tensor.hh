/**
 * @file
 * CipherTensor: a logical tensor packed into CKKS slots. The paper's
 * neural workloads (ResNet-20, LSTM — SV, Table X) all compute on
 * tensors flattened into slot vectors; this header fixes the packing
 * vocabulary the nn layer library builds on.
 *
 * A tensor of shape (d_0, .., d_r) lives in a flat *slot space* of
 * chunkCount x slots positions (chunk c owns [c*slots, (c+1)*slots)).
 * The layout maps a logical index to its slot affinely: slot =
 * offset + sum_i idx_i * stride_i. Affine layouts are what make the
 * rotation algebra work: shifting one logical dimension by k is a
 * single HROTATE by k*stride_i for *every* element at once, which is
 * how AvgPool and the fold reductions run without repacking, and
 * strided layouts let a downstream Dense/Conv matrix read pooled
 * outputs in place (the matrix columns simply sit at strided slots).
 */

#ifndef TENSORFHE_NN_TENSOR_HH
#define TENSORFHE_NN_TENSOR_HH

#include <string>
#include <vector>

#include "ckks/crypto.hh"

namespace tensorfhe::nn
{

/** Logical tensor shape, row-major. */
struct TensorShape
{
    std::vector<std::size_t> dims;

    std::size_t numel() const;
    std::string str() const;

    bool operator==(const TensorShape &o) const { return dims == o.dims; }
};

/** Affine slot packing: slot = offset + sum_i idx_i * stride_i. */
struct SlotLayout
{
    std::size_t offset = 0;
    std::vector<std::size_t> stride; ///< one per shape dimension

    /** Row-major contiguous layout at offset 0. */
    static SlotLayout contiguous(const TensorShape &shape);

    /** Slot of the row-major flat index `flat`. */
    std::size_t slotOf(const TensorShape &shape, std::size_t flat) const;

    /** One past the largest slot any element occupies. */
    std::size_t slotSpan(const TensorShape &shape) const;

    bool
    operator==(const SlotLayout &o) const
    {
        return offset == o.offset && stride == o.stride;
    }
};

/**
 * Compile-time description of a tensor flowing between layers: the
 * packing plus the CKKS budget coordinates (level count and scale)
 * the nn::Sequential validator propagates before anything encrypted
 * runs.
 */
struct TensorMeta
{
    TensorShape shape;
    SlotLayout layout;
    std::size_t chunkCount = 1; ///< ciphertexts per sample
    std::size_t levelCount = 0;
    double scale = 0.0;
    /**
     * Every slot at or past layout.slotSpan(shape) decrypts to zero
     * (fresh encryptTensor outputs do). A compile-time promise, not
     * checked at run time: a tall matvec replicates its input with
     * rotate-and-add doublings that add those slots onto the logical
     * ones, so it relies on it. False (no promise) by default; each
     * layer's compile() states it for its output.
     */
    bool zeroPadded = false;
};

/**
 * One encrypted tensor: `chunkCount` ciphertexts holding the packed
 * slots. All chunks share level and scale. Matrix-shaped layers
 * (Dense/Conv2d) handle any chunk count — they lower to block BSGS
 * matvecs over (out-chunk, in-chunk) pairs; the rotate-fold layers
 * (AvgPool/SumReduce) still require single-chunk tensors because
 * slot rotations do not cross chunk boundaries. Elementwise layers
 * and Bootstrap treat chunks as extra batch slots.
 */
class CipherTensor
{
  public:
    CipherTensor() = default;
    CipherTensor(TensorShape shape, SlotLayout layout,
                 std::vector<ckks::Ciphertext> chunks);

    const TensorShape &shape() const { return shape_; }
    const SlotLayout &layout() const { return layout_; }
    const std::vector<ckks::Ciphertext> &chunks() const { return chunks_; }
    std::vector<ckks::Ciphertext> &chunks() { return chunks_; }

    std::size_t chunkCount() const { return chunks_.size(); }
    std::size_t levelCount() const;
    double scale() const;

    /** The meta this tensor currently matches. */
    TensorMeta meta() const;

  private:
    TensorShape shape_;
    SlotLayout layout_;
    std::vector<ckks::Ciphertext> chunks_;
};

/**
 * Client-side packing: encode `values` (row-major) contiguously and
 * encrypt into ceil(numel / slots) chunks at the context scale.
 */
CipherTensor encryptTensor(const ckks::CkksContext &ctx,
                           const ckks::Encryptor &enc, Rng &rng,
                           const std::vector<double> &values,
                           const TensorShape &shape,
                           std::size_t level_count);

/** Client-side unpacking: decrypt and read the logical elements. */
std::vector<double> decryptTensor(const ckks::CkksContext &ctx,
                                  const ckks::Decryptor &dec,
                                  const CipherTensor &t);

} // namespace tensorfhe::nn

#endif // TENSORFHE_NN_TENSOR_HH
