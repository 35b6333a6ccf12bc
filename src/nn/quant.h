/**
 * @file
 * Int8 inference kernels for the rank-only fast path.
 *
 * QuantizedLinear / QuantizedMlp are frozen, inference-only snapshots
 * of trained fp64 layers: per-output-channel symmetric int8 weights
 * with fp32 scales, fp64 bias, integer accumulation. Inputs are
 * dynamically quantized per row (symmetric absmax, int16): a pure
 * W8A8 kernel left the FBNet-space Kendall tau just under the 0.98
 * gate (~0.965-0.97 — LSTM encodings quantize worse per row than GCN
 * ones), and widening activations to int16 removes that error term
 * while keeping the weights, which dominate the memory traffic, at
 * int8. Activations between layers stay fp64 so only the GEMMs run
 * quantized.
 *
 * The quantization error is bounded (half a quantization step per
 * weight channel / input row), which perturbs scores by a small,
 * score-magnitude-relative amount — enough to break bitwise equality
 * with fp64, but far too small to disturb *ranking* in practice.
 * tests/prop/test_prop_quant.cc and the `bench_micro_kernels
 * --quant-json` CI gate enforce Kendall tau >= 0.98 vs the fp64 path
 * per surrogate family; see DESIGN.md "Quantized rank path".
 *
 * Determinism: rounding is std::lround (half away from zero), the
 * integer dot products are exact (integer addition is associative, so
 * the vectorized and scalar sums agree), and the layout is a pure
 * function of the frozen weights — so the quantized path is
 * bit-reproducible across runs and thread counts just like the fp64
 * path.
 */

#ifndef HWPR_NN_QUANT_H
#define HWPR_NN_QUANT_H

#include <cstdint>
#include <cstddef>
#include <vector>

#include "common/matrix.h"
#include "nn/layers.h"
#include "nn/scratch.h"

namespace hwpr::nn
{

/**
 * Frozen int8 snapshot of a trained Linear layer.
 *
 * Weights are stored output-channel-major (`wq[j * in + k]`), i.e. the
 * transpose of the fp64 in x out layout — each output channel's
 * weights are one contiguous int8 run, so the int8 dot kernel streams
 * both operands sequentially (the "column-major packed head weights"
 * layout: W's column j is packed as a row).
 */
class QuantizedLinear
{
  public:
    QuantizedLinear() = default;

    /** Quantize-at-freeze from a trained fp64 layer. */
    explicit QuantizedLinear(const Linear &lin);

    std::size_t inDim() const { return in_; }
    std::size_t outDim() const { return out_; }

    /**
     * y(r, j) = dequant(sum_k xq(r, k) * wq(j, k)) + bias(j).
     *
     * @param xq  n x inDim int16 rows (already quantized, row-major)
     * @param xs  per-row input scales (length n)
     * @param n   batch rows
     * @param out n x outDim fp64 result (overwritten)
     *
     * Accumulation is int64: |int8 x int16| products are < 2^22, so
     * overflow would need 2^41 inputs — unreachable. Where
     * cpuHasAvx2Fma() holds, the dot product runs 16 k at a time
     * (madd_epi16) into int32 lanes, widened to int64 after at most
     * 256 k, so no partial sum can overflow; the sum is exact, so the
     * result is the same on every machine.
     */
    void forwardQuantized(const std::int16_t *xq, const double *xs,
                          std::size_t n, Matrix &out) const;

    /** Quantized weights, output-channel-major (tests/round-trip). */
    const std::vector<std::int8_t> &weights() const { return wq_; }
    /** Per-output-channel weight scales. */
    const std::vector<float> &weightScales() const { return wscale_; }
    /** fp64 bias copied from the trained layer. */
    const std::vector<double> &bias() const { return bias_; }

    /**
     * Symmetric absmax int8 quantization: scale = max|x| / 127 (1.0
     * for an all-zero row), values rounded half away from zero and
     * clamped to [-127, 127]. Used for the frozen weight channels.
     */
    static void quantizeRow(const double *x, std::size_t n,
                            std::int8_t *q, double &scale);

    /**
     * Symmetric absmax int16 quantization of one activation row:
     * scale = max|x| / 32767 (1.0 for an all-zero row), same rounding
     * and clamping discipline as quantizeRow.
     */
    static void quantizeActRow(const double *x, std::size_t n,
                               std::int16_t *q, double &scale);

  private:
    std::size_t in_ = 0;
    std::size_t out_ = 0;
    std::vector<std::int8_t> wq_; ///< out x in, channel-major
    std::vector<float> wscale_;   ///< per output channel
    std::vector<double> bias_;
};

/**
 * Frozen int8 snapshot of a trained Mlp: every affine layer is
 * quantized, activations between layers run in fp64 (they are a tiny
 * fraction of the work and keeping them exact tightens the rank
 * agreement with the fp64 path).
 */
class QuantizedMlp
{
  public:
    QuantizedMlp() = default;

    /** Quantize-at-freeze from a trained fp64 Mlp. */
    explicit QuantizedMlp(const Mlp &mlp);

    bool frozen() const { return !layers_.empty(); }
    std::size_t inDim() const { return layers_.front().inDim(); }
    std::size_t outDim() const { return layers_.back().outDim(); }

    /**
     * Batched quantized inference mirroring Mlp::predictBatchInto:
     * hidden activations live in @p scratch, the final layer writes
     * @p out (x.rows x outDim). Each layer's fp64 input is quantized
     * per row into the scratch's int16 pool, so a warm plan allocates
     * nothing.
     */
    void predictBatchInto(const Matrix &x, PredictScratch &scratch,
                          Matrix &out) const;

    /** The frozen layers, hidden-first (tests/round-trip). */
    const std::vector<QuantizedLinear> &layers() const { return layers_; }

  private:
    Activation act_ = Activation::ReLU;
    std::vector<QuantizedLinear> layers_;
};

} // namespace hwpr::nn

#endif // HWPR_NN_QUANT_H
