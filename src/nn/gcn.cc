#include "nn/gcn.h"

#include <cmath>

#include "common/logging.h"

namespace hwpr::nn
{

GcnEncoder::GcnEncoder(const GcnConfig &cfg, Rng &rng) : cfg_(cfg)
{
    HWPR_CHECK(cfg.featDim > 0 && cfg.hidden > 0 && cfg.layers > 0,
               "invalid GCN configuration");
    std::size_t in = cfg.featDim;
    for (std::size_t l = 0; l < cfg.layers; ++l) {
        layers_.emplace_back(in, cfg.hidden, rng,
                             "gcn.l" + std::to_string(l));
        in = cfg.hidden;
    }
}

Matrix
GcnEncoder::normalizeAdjacency(const Matrix &raw)
{
    HWPR_ASSERT(raw.rows() == raw.cols(), "adjacency must be square");
    const std::size_t v = raw.rows();
    Matrix a = raw;
    for (std::size_t i = 0; i < v; ++i)
        a(i, i) = 1.0; // self loops
    std::vector<double> inv_sqrt_deg(v);
    for (std::size_t i = 0; i < v; ++i) {
        double deg = 0.0;
        for (std::size_t j = 0; j < v; ++j)
            deg += a(i, j);
        inv_sqrt_deg[i] = deg > 0.0 ? 1.0 / std::sqrt(deg) : 0.0;
    }
    for (std::size_t i = 0; i < v; ++i)
        for (std::size_t j = 0; j < v; ++j)
            a(i, j) *= inv_sqrt_deg[i] * inv_sqrt_deg[j];
    return a;
}

Tensor
GcnEncoder::forward(const std::vector<GraphInput> &graphs) const
{
    std::vector<const GraphInput *> ptrs;
    ptrs.reserve(graphs.size());
    for (const auto &g : graphs)
        ptrs.push_back(&g);
    return forward(ptrs);
}

Tensor
GcnEncoder::forward(const std::vector<const GraphInput *> &graphs) const
{
    HWPR_CHECK(!graphs.empty(), "empty GCN batch");

    // Stack node features and record the block structure once; every
    // layer's blockAdjacencyMatmul shares the same BlockAdjacency.
    auto blocks = std::make_shared<BlockAdjacency>();
    std::vector<std::size_t> global_rows;
    std::size_t total = 0;
    for (const auto *g : graphs) {
        HWPR_ASSERT(g->features.cols() == cfg_.featDim,
                    "feature dim mismatch");
        HWPR_ASSERT(g->adjacency.rows() == g->features.rows(),
                    "adjacency/features node count mismatch");
        blocks->offsets.push_back(total);
        blocks->adj.push_back(g->adjacency);
        global_rows.push_back(g->globalNode);
        total += g->features.rows();
    }
    Matrix stacked(total, cfg_.featDim);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
        const Matrix &f = graphs[gi]->features;
        for (std::size_t i = 0; i < f.rows(); ++i)
            for (std::size_t j = 0; j < f.cols(); ++j)
                stacked(blocks->offsets[gi] + i, j) = f(i, j);
    }

    Tensor h = Tensor::constant(std::move(stacked), "gcn_input");
    for (const auto &layer : layers_)
        h = relu(blockAdjacencyMatmul(layer.forward(h), blocks));

    if (cfg_.useGlobalNode)
        return gatherBlockRows(h, blocks->offsets, global_rows);

    // Mean-pool readout: average node embeddings per graph. Expressed
    // with a constant pooling matrix so gradients flow through matmul.
    Matrix pool(graphs.size(), total);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
        const std::size_t v = blocks->adj[gi].rows();
        for (std::size_t i = 0; i < v; ++i)
            pool(gi, blocks->offsets[gi] + i) = 1.0 / double(v);
    }
    return matmul(Tensor::constant(std::move(pool), "gcn_pool"), h);
}

Matrix
GcnEncoder::encodeBatch(const std::vector<GraphInput> &graphs) const
{
    HWPR_CHECK(!graphs.empty(), "empty GCN batch");

    std::vector<std::size_t> offsets, global_rows;
    std::size_t total = 0;
    for (const auto &g : graphs) {
        HWPR_ASSERT(g.features.cols() == cfg_.featDim,
                    "feature dim mismatch");
        HWPR_ASSERT(g.adjacency.rows() == g.features.rows(),
                    "adjacency/features node count mismatch");
        offsets.push_back(total);
        global_rows.push_back(g.globalNode);
        total += g.features.rows();
    }
    Matrix h(total, cfg_.featDim);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
        const Matrix &f = graphs[gi].features;
        for (std::size_t i = 0; i < f.rows(); ++i)
            for (std::size_t j = 0; j < f.cols(); ++j)
                h(offsets[gi] + i, j) = f(i, j);
    }

    for (const auto &layer : layers_) {
        Matrix lin = layer.predictBatch(h);
        // Block-diagonal adjacency product, same accumulation order
        // as the blockAdjacencyMatmul tensor op.
        Matrix out(lin.rows(), lin.cols());
        const std::size_t f = lin.cols();
        for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
            const Matrix &a = graphs[gi].adjacency;
            const std::size_t v = a.rows();
            const std::size_t base = offsets[gi];
            for (std::size_t i = 0; i < v; ++i) {
                for (std::size_t k = 0; k < v; ++k) {
                    const double w = a(i, k);
                    if (w == 0.0)
                        continue;
                    const double *src = &lin.data()[(base + k) * f];
                    double *dst = &out.data()[(base + i) * f];
                    for (std::size_t j = 0; j < f; ++j)
                        dst[j] += w * src[j];
                }
            }
        }
        applyActivationInPlace(out, Activation::ReLU);
        h = std::move(out);
    }

    if (cfg_.useGlobalNode) {
        Matrix out(graphs.size(), h.cols());
        for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
            const std::size_t row = offsets[gi] + global_rows[gi];
            HWPR_ASSERT(row < h.rows(), "block row OOB");
            for (std::size_t j = 0; j < h.cols(); ++j)
                out(gi, j) = h(row, j);
        }
        return out;
    }

    // Mean-pool readout via the same pooling-matrix product as the
    // tensor path so the floating-point result is identical.
    Matrix pool(graphs.size(), total);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
        const std::size_t v = graphs[gi].adjacency.rows();
        for (std::size_t i = 0; i < v; ++i)
            pool(gi, offsets[gi] + i) = 1.0 / double(v);
    }
    return pool.matmul(h);
}

const Matrix &
GcnEncoder::encodeBatchInto(const std::vector<GraphInput> &graphs,
                            PredictScratch &scratch) const
{
    HWPR_CHECK(!graphs.empty(), "empty GCN batch");

    // Batched sparse gather: flatten the block-diagonal adjacency
    // into one edge list, built once and replayed by every layer in
    // the same (graph, dst, src) ascending order encodeBatch's
    // per-graph triple loop accumulates in.
    std::vector<PredictScratch::Edge> &edges = scratch.edges();
    edges.clear();
    std::vector<std::size_t> offsets, global_rows;
    std::size_t total = 0;
    for (const auto &g : graphs) {
        HWPR_ASSERT(g.features.cols() == cfg_.featDim,
                    "feature dim mismatch");
        HWPR_ASSERT(g.adjacency.rows() == g.features.rows(),
                    "adjacency/features node count mismatch");
        offsets.push_back(total);
        global_rows.push_back(g.globalNode);
        const std::size_t v = g.adjacency.rows();
        for (std::size_t i = 0; i < v; ++i)
            for (std::size_t k = 0; k < v; ++k) {
                const double w = g.adjacency(i, k);
                if (w == 0.0)
                    continue;
                edges.push_back({std::uint32_t(total + i),
                                 std::uint32_t(total + k), w});
            }
        total += v;
    }

    const Matrix *cur = nullptr;
    {
        Matrix &h0 = scratch.acquire(total, cfg_.featDim);
        for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
            const Matrix &f = graphs[gi].features;
            for (std::size_t i = 0; i < f.rows(); ++i)
                for (std::size_t j = 0; j < f.cols(); ++j)
                    h0(offsets[gi] + i, j) = f(i, j);
        }
        cur = &h0;
    }

    for (const auto &layer : layers_) {
        Matrix &lin = scratch.acquire(total, cfg_.hidden);
        layer.predictBatchInto(*cur, lin);
        Matrix &out = scratch.acquire(total, cfg_.hidden, true);
        const std::size_t f = lin.cols();
        for (const auto &e : edges) {
            const double *src = &lin.data()[e.src * f];
            double *dst = &out.data()[e.dst * f];
            for (std::size_t j = 0; j < f; ++j)
                dst[j] += e.w * src[j];
        }
        applyActivationInPlace(out, Activation::ReLU);
        cur = &out;
    }

    if (cfg_.useGlobalNode) {
        Matrix &out = scratch.acquire(graphs.size(), cur->cols());
        for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
            const std::size_t row = offsets[gi] + global_rows[gi];
            HWPR_ASSERT(row < cur->rows(), "block row OOB");
            for (std::size_t j = 0; j < cur->cols(); ++j)
                out(gi, j) = (*cur)(row, j);
        }
        return out;
    }

    // Mean-pool readout via the same pooling-matrix product as the
    // tensor path so the floating-point result is identical.
    Matrix &pool = scratch.acquire(graphs.size(), total, true);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
        const std::size_t v = graphs[gi].adjacency.rows();
        for (std::size_t i = 0; i < v; ++i)
            pool(gi, offsets[gi] + i) = 1.0 / double(v);
    }
    Matrix &out = scratch.acquire(graphs.size(), cur->cols());
    pool.matmulInto(*cur, out);
    return out;
}

std::vector<Tensor>
GcnEncoder::params() const
{
    std::vector<Tensor> out;
    for (const auto &layer : layers_)
        for (const auto &p : layer.params())
            out.push_back(p);
    return out;
}

} // namespace hwpr::nn
