#include "nn/layers.h"

#include "common/logging.h"

namespace hwpr::nn
{

Tensor
applyActivation(const Tensor &x, Activation act)
{
    switch (act) {
      case Activation::None:
        return x;
      case Activation::ReLU:
        return relu(x);
      case Activation::Tanh:
        return tanhT(x);
      case Activation::Sigmoid:
        return sigmoid(x);
    }
    panic("unknown activation");
}

void
applyActivationInPlace(Matrix &x, Activation act)
{
    // The detail:: sweeps are the same code the tensor ops run, so
    // the raw inference path stays bit-identical to autodiff forward.
    switch (act) {
      case Activation::None:
        return;
      case Activation::ReLU:
        detail::reluMap(x, x);
        return;
      case Activation::Tanh:
        detail::tanhMap(x, x);
        return;
      case Activation::Sigmoid:
        detail::sigmoidMap(x, x);
        return;
    }
    panic("unknown activation");
}

Linear::Linear(std::size_t in, std::size_t out, Rng &rng,
               const std::string &name)
    : w_(Tensor::param(Matrix::xavier(in, out, rng), name + ".w")),
      b_(Tensor::param(Matrix(1, out), name + ".b"))
{
}

Tensor
Linear::forward(const Tensor &x) const
{
    return addRowBroadcast(matmul(x, w_), b_);
}

void
Linear::predictBatchInto(const Matrix &x, Matrix &out) const
{
    HWPR_ASSERT(out.rows() == x.rows() && out.cols() == outDim(),
                "predictBatchInto output shape mismatch");
    x.matmulInto(w_.value(), out);
    // In-place row broadcast: per-element a + b rounds identically
    // wherever the sum is stored, so this matches addRowBroadcast.
    const double *b = b_.value().data();
    const std::size_t cols = out.cols();
    for (std::size_t i = 0; i < out.rows(); ++i) {
        double *dst = &out.raw()[i * cols];
        for (std::size_t j = 0; j < cols; ++j)
            dst[j] += b[j];
    }
}

void
Linear::predictBatchFusedInto(const Matrix &x, Matrix &out,
                              Activation act) const
{
    HWPR_ASSERT(out.rows() == x.rows() && out.cols() == outDim(),
                "predictBatchFusedInto output shape mismatch");
    x.matmulInto(w_.value(), out);
    const double *b = b_.value().data();
    const std::size_t cols = out.cols();
    if (act == Activation::None || act == Activation::ReLU) {
        // Fused epilogue: bias + (optional) ReLU in one sweep. Both
        // ops are exact per element, so fusing cannot change bits —
        // each element sees the same add and the same max as the
        // separate sweeps, just without the intermediate store pass.
        const bool relu = act == Activation::ReLU;
        for (std::size_t i = 0; i < out.rows(); ++i) {
            double *dst = &out.raw()[i * cols];
            for (std::size_t j = 0; j < cols; ++j) {
                const double v = dst[j] + b[j];
                dst[j] = relu && !(v > 0.0) ? 0.0 : v;
            }
        }
        return;
    }
    // Tanh / Sigmoid: keep the separate libmvec sweep so the 4-lane
    // phase matches every other caller of the detail:: maps.
    for (std::size_t i = 0; i < out.rows(); ++i) {
        double *dst = &out.raw()[i * cols];
        for (std::size_t j = 0; j < cols; ++j)
            dst[j] += b[j];
    }
    applyActivationInPlace(out, act);
}

Mlp::Mlp(const MlpConfig &cfg, Rng &rng, const std::string &name)
    : cfg_(cfg)
{
    HWPR_CHECK(cfg.inDim > 0, "Mlp needs a positive input dim");
    std::size_t prev = cfg.inDim;
    std::size_t idx = 0;
    for (std::size_t h : cfg.hidden) {
        layers_.emplace_back(prev, h, rng,
                             name + ".h" + std::to_string(idx++));
        prev = h;
    }
    layers_.emplace_back(prev, cfg.outDim, rng, name + ".out");
}

Tensor
Mlp::forward(const Tensor &x, bool training, Rng &rng) const
{
    Tensor h = x;
    for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
        h = applyActivation(layers_[i].forward(h), cfg_.activation);
        if (cfg_.dropout > 0.0)
            h = dropout(h, cfg_.dropout, training, rng);
    }
    return layers_.back().forward(h);
}

Tensor
Mlp::forward(const Tensor &x) const
{
    // Inference path: dropout disabled, rng never touched.
    Rng dummy(0);
    return forward(x, false, dummy);
}

void
Mlp::predictBatchInto(const Matrix &x, PredictScratch &scratch,
                      Matrix &out) const
{
    const Matrix *cur = &x;
    for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
        Matrix &h = scratch.acquire(x.rows(), layers_[i].outDim());
        layers_[i].predictBatchFusedInto(*cur, h, cfg_.activation);
        cur = &h;
    }
    layers_.back().predictBatchInto(*cur, out);
}

std::vector<Tensor>
Mlp::params() const
{
    std::vector<Tensor> out;
    for (const auto &layer : layers_)
        for (const auto &p : layer.params())
            out.push_back(p);
    return out;
}

} // namespace hwpr::nn
