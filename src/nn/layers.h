/**
 * @file
 * Basic trainable layers: Linear and multi-layer perceptron (MLP).
 * Layers own their parameter tensors and expose them through params()
 * so optimizers can update them in place.
 */

#ifndef HWPR_NN_LAYERS_H
#define HWPR_NN_LAYERS_H

#include <cstddef>
#include <string>
#include <vector>

#include "nn/scratch.h"
#include "nn/tensor.h"

namespace hwpr::nn
{

/** Activation applied between MLP layers. */
enum class Activation
{
    None,
    ReLU,
    Tanh,
    Sigmoid,
};

/** Apply an activation function to a tensor. */
Tensor applyActivation(const Tensor &x, Activation act);

/**
 * Apply an activation elementwise to a raw matrix (inference path).
 * Uses the same scalar math as the tensor ops, so the two paths agree
 * bit-for-bit.
 */
void applyActivationInPlace(Matrix &x, Activation act);

/** Anything that owns trainable parameters. */
class Module
{
  public:
    virtual ~Module() = default;
    /** Trainable parameter tensors (persistent across iterations). */
    virtual std::vector<Tensor> params() const = 0;

    /** Zero gradients of all parameters. */
    void
    zeroGrad()
    {
        for (auto &p : params())
            p.zeroGrad();
    }

    /** Total scalar parameter count. */
    std::size_t
    numParams() const
    {
        std::size_t n = 0;
        for (const auto &p : params())
            n += p.value().size();
        return n;
    }
};

/** Affine layer y = xW + b. */
class Linear : public Module
{
  public:
    /** Xavier-initialized weights, zero bias. */
    Linear(std::size_t in, std::size_t out, Rng &rng,
           const std::string &name = "linear");

    Tensor forward(const Tensor &x) const;

    /**
     * Inference-only forward into a caller-provided (x.rows x outDim)
     * buffer: no autodiff graph is recorded and nothing is allocated.
     * Bit-identical to forward() — the GEMM lands in @p out via
     * matmulInto and the bias row is added in place, which rounds
     * exactly like the copy-then-add of addRowBroadcast.
     */
    void predictBatchInto(const Matrix &x, Matrix &out) const;

    /**
     * predictBatchInto with the bias add and the activation fused into
     * one epilogue sweep over @p out. Only ReLU and None actually
     * fuse — both are exact elementwise ops, so the result is
     * bit-identical to the separate bias + activation sweeps. Tanh and
     * Sigmoid fall back to the separate detail:: maps because those
     * run 4-lane libmvec kernels whose lane phase must match every
     * other caller (see nn/tensor.h).
     */
    void predictBatchFusedInto(const Matrix &x, Matrix &out,
                               Activation act) const;

    std::vector<Tensor> params() const override { return {w_, b_}; }

    std::size_t inDim() const { return w_.rows(); }
    std::size_t outDim() const { return w_.cols(); }

    /** Trained weight matrix (in x out), read-only. */
    const Matrix &weight() const { return w_.value(); }
    /** Trained bias row (1 x out), read-only. */
    const Matrix &bias() const { return b_.value(); }

  private:
    Tensor w_, b_;
};

/** Configuration of an Mlp. */
struct MlpConfig
{
    std::size_t inDim = 0;
    std::vector<std::size_t> hidden;
    std::size_t outDim = 1;
    Activation activation = Activation::ReLU;
    /** Dropout probability applied after each hidden activation. */
    double dropout = 0.0;
};

/**
 * Multi-layer perceptron. The output layer has no activation so it can
 * regress unbounded scores.
 */
class Mlp : public Module
{
  public:
    Mlp(const MlpConfig &cfg, Rng &rng, const std::string &name = "mlp");

    /**
     * Forward pass.
     * @param x input batch (n x inDim)
     * @param training enables dropout
     * @param rng dropout mask source (unused when not training)
     */
    Tensor forward(const Tensor &x, bool training, Rng &rng) const;

    /** Inference-mode forward (no dropout). */
    Tensor forward(const Tensor &x) const;

    /**
     * Batched inference on raw matrices, one matrix-level pass per
     * batch with no autodiff recording and no dropout: hidden
     * activations live in @p scratch and the final layer writes the
     * caller-provided (x.rows x outDim) buffer, so a plan-driven pass
     * allocates nothing after warm-up. Matches the tensor forward
     * (training=false) bit-for-bit.
     */
    void predictBatchInto(const Matrix &x, PredictScratch &scratch,
                          Matrix &out) const;

    std::vector<Tensor> params() const override;

    const MlpConfig &config() const { return cfg_; }

    /** The affine layers, hidden-first (for quantize-at-freeze). */
    const std::vector<Linear> &layers() const { return layers_; }

  private:
    MlpConfig cfg_;
    std::vector<Linear> layers_;
};

} // namespace hwpr::nn

#endif // HWPR_NN_LAYERS_H
