#include "workloads/cnn.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tensorfhe::workloads
{

ckks::CkksParams
EncryptedCnnClassifier::recommendedParams()
{
    auto p = ckks::Presets::tiny();
    p.levels = 7; // conv 1 + ReLU 2 + pool 1 + dense 1, plus slack
    // Key switching: 4 digits of 2 limbs over K = 2 special primes
    // (nominal log2 PQ 235 -> 265 bits vs the 8/1 default). Half the
    // digits means half the ModUps per hoist and keys of 26 instead
    // of 46 MiB; measured on 4-image batches: 1.3x items/s, peak RSS
    // 157 -> 115 MiB, and 1-2 bits more precision.
    p.dnum = 4;
    p.special = p.minSpecial();
    return p;
}

CnnConfig
EncryptedCnnClassifier::deepConfig()
{
    CnnConfig cfg;
    cfg.inChannels = 4;   // 4x8x8 = 256 logical slots = 2 chunks
    cfg.convChannels = 4; // conv1 keeps 2 chunks (2x2 block matvec)
    cfg.conv2Channels = 2; // conv2 narrows to 1 chunk before pooling
    cfg.classes = 10;
    cfg.usePlanner = true;
    cfg.inputLevelCount = 5; // conv1 + ReLU drain it: conv2 cannot
                             // run without a refresh
    cfg.seed = 0xdee9;
    return cfg;
}

ckks::CkksParams
EncryptedCnnClassifier::recommendedDeepParams()
{
    // The bootTest shape (N = 2^8, 28-bit scale, 31-bit q0) with a
    // longer chain so the refreshed budget hosts conv2 + ReLU + pool
    // + dense, and a sparser key (h = 8): |I| <= ~4.6 keeps every
    // slot inside the degree-12 cosine's range at 2^4 doublings,
    // which the <1e-2 end-to-end bound needs (no catastrophic slots).
    auto p = ckks::Presets::bootTest();
    p.levels = 20;
    p.secretHamming = 8;
    // Key switching: 7 digits of 3 limbs over K = 3 special primes
    // (nominal log2 PQ 622 -> 684 bits vs the 21/1 default). A third
    // of the digits means a third of the ModUps and union-basis NTTs
    // per hoist and keys of 42 instead of 116 MiB; measured on one
    // image: 1.36x items/s at half the peak RSS, precision within
    // 0.15 bits. 5/5 runs as fast but loses 1.3 bits.
    p.dnum = 7;
    p.special = p.minSpecial();
    return p;
}

EncryptedCnnClassifier::EncryptedCnnClassifier(
    const ckks::CkksContext &ctx, CnnConfig cfg)
    : cfg_(cfg)
{
    // Synthetic weights, calibrated so every conv output stays inside
    // the ReLU approximant's [-1, 1] interval for images in [0, 1]:
    // |conv| <= fan_in * |tap| + |bias|.
    Rng rng(cfg.seed);
    auto uniform = [&](double mag) {
        return mag * (2.0 * rng.uniformReal() - 1.0);
    };
    auto convBlock = [&](std::size_t in_c, std::size_t out_c) {
        std::size_t fan_in = in_c * cfg.kernel * cfg.kernel;
        double mag = 0.9 / static_cast<double>(fan_in);
        std::vector<double> w(out_c * fan_in);
        for (auto &v : w)
            v = uniform(mag);
        std::vector<double> b(out_c);
        for (auto &v : b)
            v = uniform(0.05);
        net_.emplace<nn::Conv2d>(out_c, cfg.kernel, std::move(w),
                                 std::move(b));
        net_.emplace<nn::PolyActivation>(
            nn::reluApprox(cfg.actDegree));
    };

    if (cfg.usePlanner) {
        plan::PlannerOptions opts;
        opts.sine = cfg.sine;
        net_.enablePlanner(opts);
    }

    convBlock(cfg.inChannels, cfg.convChannels);
    std::size_t last_channels = cfg.convChannels;
    if (cfg.conv2Channels > 0) {
        convBlock(cfg.convChannels, cfg.conv2Channels);
        last_channels = cfg.conv2Channels;
    }

    std::size_t pooled = last_channels
        * (cfg.height / cfg.poolWindow) * (cfg.width / cfg.poolWindow);
    std::vector<std::vector<double>> fc_w(
        cfg.classes, std::vector<double>(pooled));
    for (auto &row : fc_w)
        for (auto &v : row)
            v = uniform(0.3);
    std::vector<double> fc_b(cfg.classes);
    for (auto &v : fc_b)
        v = uniform(0.1);

    net_.emplace<nn::AvgPool2d>(cfg.poolWindow);
    net_.emplace<nn::Dense>(std::move(fc_w), std::move(fc_b));

    nn::TensorMeta input;
    input.shape = {{cfg.inChannels, cfg.height, cfg.width}};
    input.layout = nn::SlotLayout::contiguous(input.shape);
    std::size_t slots = ctx.slots();
    input.chunkCount =
        (input.layout.slotSpan(input.shape) + slots - 1) / slots;
    input.levelCount = cfg.inputLevelCount > 0 ? cfg.inputLevelCount
                                               : ctx.tower().numQ();
    input.scale = ctx.params().scale();
    input.zeroPadded = true; // classifyEncrypted's encryptTensor inputs
    net_.compile(ctx, input);
}

std::vector<EncryptedCnnClassifier::Prediction>
EncryptedCnnClassifier::classifyEncrypted(
    const nn::NnEngine &engine, const ckks::Encryptor &enc,
    const ckks::Decryptor &dec, Rng &rng,
    const std::vector<std::vector<double>> &images) const
{
    const auto &ctx = engine.ctx();
    const auto &meta = net_.inputMeta();
    std::vector<nn::CipherTensor> batch;
    batch.reserve(images.size());
    for (const auto &img : images)
        batch.push_back(nn::encryptTensor(ctx, enc, rng, img,
                                          meta.shape,
                                          meta.levelCount));

    auto outputs = net_.run(engine, batch);

    std::vector<Prediction> preds;
    preds.reserve(outputs.size());
    for (const auto &out : outputs) {
        Prediction p;
        p.logits = nn::decryptTensor(ctx, dec, out);
        p.argmax = static_cast<std::size_t>(
            std::max_element(p.logits.begin(), p.logits.end())
            - p.logits.begin());
        preds.push_back(std::move(p));
    }
    return preds;
}

EncryptedCnnClassifier::Prediction
EncryptedCnnClassifier::classifyPlain(
    const std::vector<double> &image) const
{
    Prediction p;
    p.logits = net_.runPlain(image);
    p.argmax = static_cast<std::size_t>(
        std::max_element(p.logits.begin(), p.logits.end())
        - p.logits.begin());
    return p;
}

} // namespace tensorfhe::workloads
