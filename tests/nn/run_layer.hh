/**
 * @file
 * Test helper: run one compiled layer on a batch. The layer is
 * lowered into an unfused graph whose input sits at the batch's live
 * level count and scale, and that graph is executed — what
 * nn::Sequential::run does for a whole stack.
 */

#ifndef TENSORFHE_TESTS_NN_RUN_LAYER_HH
#define TENSORFHE_TESTS_NN_RUN_LAYER_HH

#include "graph/builder.hh"
#include "graph/executor.hh"

namespace tensorfhe::nn
{

/** `in` holds every sample's chunks, sample-major. */
inline Cts
runLayer(const NnEngine &engine, const Layer &layer, const Cts &in)
{
    graph::GraphBuilder b(engine.ctx());
    auto v = b.input(layer.inputMeta().chunkCount, in.at(0).levelCount(),
                     in[0].scale);
    b.output(b.lower(layer, v));
    auto g = b.take();
    graph::GraphExecutor ex(g, graph::scheduleGraph(g, {.fuse = false}));
    return std::move(ex.run(engine, {in}).outputs[0]);
}

} // namespace tensorfhe::nn

#endif // TENSORFHE_TESTS_NN_RUN_LAYER_HH
