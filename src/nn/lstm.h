/**
 * @file
 * Batched multi-layer LSTM sequence encoder.
 *
 * The paper's latency predictor encodes the architecture's string form
 * (e.g. "|nor_conv_3x3~0|+|skip_connect~0|...") as a token sequence,
 * embeds it, and runs a 2-layer LSTM (225 hidden units in the paper);
 * the final hidden state is the architecture encoding. Sequences within
 * one search space have a fixed length, so batches are rectangular.
 */

#ifndef HWPR_NN_LSTM_H
#define HWPR_NN_LSTM_H

#include <cstddef>
#include <vector>

#include "nn/layers.h"
#include "nn/tensor.h"

namespace hwpr::nn
{

/** Configuration of an LstmEncoder. */
struct LstmConfig
{
    /** Token vocabulary size. */
    std::size_t vocab = 0;
    /** Embedding dimension. */
    std::size_t embedDim = 32;
    /** Hidden units per layer (paper: 225). */
    std::size_t hidden = 225;
    /** Number of stacked layers (paper: 2). */
    std::size_t layers = 2;
};

/** Gate parameters of one LSTM layer, gate order [i, f, g, o]. */
struct LstmLayer
{
    Tensor wx; ///< (in x 4h) input-to-gates
    Tensor wh; ///< (h x 4h) hidden-to-gates
    Tensor b;  ///< (1 x 4h) gate biases
};

/**
 * Fused stacked LSTM over equal-length token sequences: embedding
 * lookup, every layer and every step recorded as ONE autodiff node
 * whose value is the top layer's final hidden state (batch x h).
 *
 * Values and gradients are bit-identical to this composed graph of
 * tensor ops: per step and layer, z = add(matmul(x_t, wx), matmul(h, wh))
 * plus the bias row, four sliceCols panels through sigmoid/tanh, then
 * c = add(mul(f, c), mul(i, g)) and h = mul(o, tanhT(c)), starting
 * from zero h and c, with x_t = gatherRows(embedding, tokens at t) in
 * layer 0 and the layer below's h_t above it. tests/prop/
 * test_prop_lstm.cc builds that graph as the oracle.
 *
 * Forward: layer 0 reads rows of the (vocab x 4h) product
 * embedding * wx0 and each later layer runs one stacked
 * (T*batch x h) * (h x 4h) GEMM; neither changes a GEMM row's
 * ascending-k chain. The node keeps i, f, g, o, c, tanh(c) and h
 * per step and layer (7h doubles per row).
 *
 * Backward reproduces the composed graph's accumulation order under
 * nn::backward's reverse post-order (DESIGN.md "Training hot path"):
 * layers top down; within a layer, steps in descending t with the
 * graph's elementwise kernels over the same per-gate (batch x h)
 * panels, wh and b gradients accumulating per step; then the input
 * products' gradients as stacked GEMMs over ascending t. Parameters
 * that do not require a gradient get no gradient work.
 */
Tensor lstmStack(const Tensor &embedding,
                 const std::vector<LstmLayer> &layers,
                 const std::vector<const std::vector<std::size_t> *>
                     &sequences);

/**
 * Token-sequence encoder: embedding -> stacked LSTM -> final hidden
 * state of the top layer (batch x hidden).
 */
class LstmEncoder : public Module
{
  public:
    LstmEncoder(const LstmConfig &cfg, Rng &rng);

    /**
     * Encode a batch of equal-length token sequences (one lstmStack
     * node).
     * @param sequences sequences[b][t] is the token id at step t.
     * @return (batch x hidden) encoding.
     */
    Tensor forward(
        const std::vector<std::vector<std::size_t>> &sequences) const;

    /**
     * Same, over caller-owned sequences (the fit-time encoding cache
     * tokenizes once per fit and passes pointers per batch). Pointers
     * must stay valid for the duration of the call only.
     */
    Tensor forward(const std::vector<const std::vector<std::size_t> *>
                       &sequences) const;

    /**
     * Inference-only encoding on raw matrices, no autodiff node: every
     * intermediate (embedded steps, gate panels, hidden/cell state)
     * comes from @p scratch, so repeated passes allocate nothing. The
     * returned reference points at scratch memory valid until the next
     * scratch reset. Runs lstmStack's step routine with per-step input
     * products, so it matches forward() bit for bit.
     */
    const Matrix &encodeBatchInto(
        const std::vector<std::vector<std::size_t>> &sequences,
        PredictScratch &scratch) const;

    std::vector<Tensor> params() const override;

    const LstmConfig &config() const { return cfg_; }

  private:
    LstmConfig cfg_;
    Tensor embedding_; ///< (vocab x embedDim)
    std::vector<LstmLayer> layerParams_;
};

} // namespace hwpr::nn

#endif // HWPR_NN_LSTM_H
