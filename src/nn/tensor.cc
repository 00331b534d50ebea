#include "nn/tensor.hh"

#include <sstream>

#include "common/logging.hh"

namespace tensorfhe::nn
{

std::size_t
TensorShape::numel() const
{
    std::size_t n = 1;
    for (std::size_t d : dims)
        n *= d;
    return n;
}

std::string
TensorShape::str() const
{
    std::ostringstream oss;
    oss << "(";
    for (std::size_t i = 0; i < dims.size(); ++i)
        oss << (i ? ", " : "") << dims[i];
    oss << ")";
    return oss.str();
}

SlotLayout
SlotLayout::contiguous(const TensorShape &shape)
{
    SlotLayout l;
    l.stride.assign(shape.dims.size(), 1);
    for (std::size_t i = shape.dims.size(); i-- > 1;)
        l.stride[i - 1] = l.stride[i] * shape.dims[i];
    return l;
}

std::size_t
SlotLayout::slotOf(const TensorShape &shape, std::size_t flat) const
{
    TFHE_ASSERT(stride.size() == shape.dims.size());
    std::size_t slot = offset;
    for (std::size_t i = shape.dims.size(); i-- > 0;) {
        slot += (flat % shape.dims[i]) * stride[i];
        flat /= shape.dims[i];
    }
    return slot;
}

std::size_t
SlotLayout::slotSpan(const TensorShape &shape) const
{
    std::size_t span = offset;
    for (std::size_t i = 0; i < shape.dims.size(); ++i)
        span += (shape.dims[i] - 1) * stride[i];
    return span + 1;
}

CipherTensor::CipherTensor(TensorShape shape, SlotLayout layout,
                           std::vector<ckks::Ciphertext> chunks)
    : shape_(std::move(shape)), layout_(std::move(layout)),
      chunks_(std::move(chunks))
{
    requireArg(!chunks_.empty(), "CipherTensor needs >= 1 chunk");
    for (const auto &ct : chunks_)
        requireArg(ct.levelCount() == chunks_[0].levelCount(),
                   "chunks must share a level");
}

std::size_t
CipherTensor::levelCount() const
{
    requireState(!chunks_.empty(), "empty tensor");
    return chunks_[0].levelCount();
}

double
CipherTensor::scale() const
{
    requireState(!chunks_.empty(), "empty tensor");
    return chunks_[0].scale;
}

TensorMeta
CipherTensor::meta() const
{
    // A tensor cannot vouch for its padding; only compile-time metas
    // promise it (TensorMeta::zeroPadded).
    return {shape_, layout_, chunkCount(), levelCount(), scale(),
            /*zeroPadded=*/false};
}

CipherTensor
encryptTensor(const ckks::CkksContext &ctx, const ckks::Encryptor &enc,
              Rng &rng, const std::vector<double> &values,
              const TensorShape &shape, std::size_t level_count)
{
    requireArg(values.size() == shape.numel(),
               "value count ", values.size(), " does not match shape ",
               shape.str());
    std::size_t slots = ctx.slots();
    auto layout = SlotLayout::contiguous(shape);
    std::size_t chunk_count = (shape.numel() + slots - 1) / slots;
    double scale = ctx.params().scale();

    std::vector<ckks::Ciphertext> chunks;
    chunks.reserve(chunk_count);
    for (std::size_t c = 0; c < chunk_count; ++c) {
        std::vector<ckks::Complex> z(slots, ckks::Complex(0, 0));
        for (std::size_t i = c * slots;
             i < std::min(values.size(), (c + 1) * slots); ++i)
            z[i - c * slots] = ckks::Complex(values[i], 0);
        chunks.push_back(enc.encrypt(
            ctx.encoder().encode(z, scale, level_count), rng));
    }
    return CipherTensor(shape, layout, std::move(chunks));
}

std::vector<double>
decryptTensor(const ckks::CkksContext &ctx, const ckks::Decryptor &dec,
              const CipherTensor &t)
{
    std::size_t slots = ctx.slots();
    std::vector<std::vector<ckks::Complex>> decoded;
    decoded.reserve(t.chunkCount());
    for (const auto &ct : t.chunks())
        decoded.push_back(dec.decryptAndDecode(ct));

    std::size_t numel = t.shape().numel();
    std::vector<double> out(numel);
    for (std::size_t i = 0; i < numel; ++i) {
        std::size_t slot = t.layout().slotOf(t.shape(), i);
        std::size_t chunk = slot / slots;
        requireArg(chunk < decoded.size(),
                   "layout reaches past the last chunk");
        out[i] = decoded[chunk][slot % slots].real();
    }
    return out;
}

} // namespace tensorfhe::nn
