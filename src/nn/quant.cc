#include "nn/quant.h"

#include <algorithm>
#include <cmath>

#include "common/isa.h"
#include "common/logging.h"
#ifdef HWPR_AVX2_FMA_KERNELS
#include <immintrin.h>
#endif

namespace hwpr::nn
{

namespace
{

/**
 * Sanity cap on layer width, far beyond any encoder in this codebase.
 * The int64 accumulator itself tolerates 127 * 32767 * 2^41 — the
 * cap exists to catch corrupted shapes, not overflow.
 */
constexpr std::size_t kMaxQuantInDim = std::size_t(1) << 16;

/** sum_k x[k] * w[k] over k < n, one int64 chain in ascending k. */
std::int64_t
dotScalar(const std::int16_t *x, const std::int8_t *w, std::size_t n)
{
    std::int64_t acc = 0;
    for (std::size_t k = 0; k < n; ++k)
        acc += std::int64_t(x[k]) * std::int64_t(w[k]);
    return acc;
}

#ifdef HWPR_AVX2_FMA_KERNELS

/**
 * Longest k run summed in int32 lanes before widening to int64. Each
 * of the eight lanes adds two products of at most 32767 * 127 < 2^22
 * per 16 k, so a 256-k run stays below 2^27 per lane: no int32
 * partial can overflow, at the paper's 600-wide inputs or any other.
 */
constexpr std::size_t kDotRun = 256;

/**
 * dotScalar on AVX2: the weights widened to int16, madd_epi16 into
 * eight int32 lanes, the lanes widened to int64 after every kDotRun
 * k, then scalar products for the last n % 16 k. Integer sums are
 * exact in any order, so the result equals dotScalar's.
 */
HWPR_TARGET_AVX2_FMA std::int64_t
dotAvx2(const std::int16_t *x, const std::int8_t *w, std::size_t n)
{
    const std::size_t vec_end = n - n % 16;
    __m256i wide = _mm256_setzero_si256();
    for (std::size_t k0 = 0; k0 < vec_end; k0 += kDotRun) {
        const std::size_t k1 = std::min(vec_end, k0 + kDotRun);
        __m256i lanes = _mm256_setzero_si256();
        for (std::size_t k = k0; k < k1; k += 16) {
            const __m256i xv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(x + k));
            const __m256i wv = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(w + k)));
            lanes = _mm256_add_epi32(lanes, _mm256_madd_epi16(xv, wv));
        }
        wide = _mm256_add_epi64(
            wide, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(lanes)));
        wide = _mm256_add_epi64(
            wide,
            _mm256_cvtepi32_epi64(_mm256_extracti128_si256(lanes, 1)));
    }
    alignas(32) std::int64_t part[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(part), wide);
    return part[0] + part[1] + part[2] + part[3] +
           dotScalar(x + vec_end, w + vec_end, n - vec_end);
}

#endif // HWPR_AVX2_FMA_KERNELS

} // namespace

void
QuantizedLinear::quantizeRow(const double *x, std::size_t n,
                             std::int8_t *q, double &scale)
{
    double amax = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        const double a = std::fabs(x[k]);
        if (a > amax)
            amax = a;
    }
    scale = amax > 0.0 ? amax / 127.0 : 1.0;
    const double inv = 1.0 / scale;
    for (std::size_t k = 0; k < n; ++k) {
        // Half away from zero, clamped: deterministic on every libm.
        long v = std::lround(x[k] * inv);
        if (v > 127)
            v = 127;
        else if (v < -127)
            v = -127;
        q[k] = static_cast<std::int8_t>(v);
    }
}

void
QuantizedLinear::quantizeActRow(const double *x, std::size_t n,
                                std::int16_t *q, double &scale)
{
    double amax = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        const double a = std::fabs(x[k]);
        if (a > amax)
            amax = a;
    }
    scale = amax > 0.0 ? amax / 32767.0 : 1.0;
    const double inv = 1.0 / scale;
    for (std::size_t k = 0; k < n; ++k) {
        long v = std::lround(x[k] * inv);
        if (v > 32767)
            v = 32767;
        else if (v < -32767)
            v = -32767;
        q[k] = static_cast<std::int16_t>(v);
    }
}

QuantizedLinear::QuantizedLinear(const Linear &lin)
    : in_(lin.inDim()), out_(lin.outDim())
{
    HWPR_CHECK(in_ > 0 && in_ <= kMaxQuantInDim,
               "QuantizedLinear input dim out of sane range");
    const Matrix &w = lin.weight(); // in x out, row-major
    const Matrix &b = lin.bias();   // 1 x out

    wq_.resize(in_ * out_);
    wscale_.resize(out_);
    bias_.resize(out_);

    // Per-output-channel symmetric quantization of W's column j,
    // packed contiguously (channel-major) for the int8 dot kernel.
    std::vector<double> col(in_);
    for (std::size_t j = 0; j < out_; ++j) {
        for (std::size_t k = 0; k < in_; ++k)
            col[k] = w(k, j);
        double scale = 1.0;
        quantizeRow(col.data(), in_, &wq_[j * in_], scale);
        wscale_[j] = static_cast<float>(scale);
        bias_[j] = b(0, j);
    }
}

void
QuantizedLinear::forwardQuantized(const std::int16_t *xq,
                                  const double *xs, std::size_t n,
                                  Matrix &out) const
{
    HWPR_ASSERT(out.rows() == n && out.cols() == out_,
                "forwardQuantized output shape mismatch");
#ifdef HWPR_AVX2_FMA_KERNELS
    const auto dot = cpuHasAvx2Fma() ? dotAvx2 : dotScalar;
#else
    const auto dot = dotScalar;
#endif
    for (std::size_t r = 0; r < n; ++r) {
        const std::int16_t *xr = xq + r * in_;
        const double sx = xs[r];
        double *dst = &out.raw()[r * out_];
        for (std::size_t j = 0; j < out_; ++j) {
            const std::int64_t acc = dot(xr, &wq_[j * in_], in_);
            dst[j] =
                double(acc) * sx * double(wscale_[j]) + bias_[j];
        }
    }
}

QuantizedMlp::QuantizedMlp(const Mlp &mlp)
    : act_(mlp.config().activation)
{
    layers_.reserve(mlp.layers().size());
    for (const auto &layer : mlp.layers())
        layers_.emplace_back(layer);
}

void
QuantizedMlp::predictBatchInto(const Matrix &x,
                               PredictScratch &scratch,
                               Matrix &out) const
{
    HWPR_CHECK(frozen(), "QuantizedMlp used before freeze");
    const std::size_t n = x.rows();
    const Matrix *cur = &x;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const QuantizedLinear &lin = layers_[i];
        const bool last = i + 1 == layers_.size();

        // Dynamic per-row input quantization into the scratch pools.
        std::int16_t *xq = scratch.quantRows(n * lin.inDim()).data();
        double *xs = scratch.quantScales(n).data();
        for (std::size_t r = 0; r < n; ++r)
            QuantizedLinear::quantizeActRow(
                &cur->raw()[r * lin.inDim()], lin.inDim(),
                xq + r * lin.inDim(), xs[r]);

        Matrix &dst =
            last ? out : scratch.acquire(n, lin.outDim());
        lin.forwardQuantized(xq, xs, n, dst);
        if (!last) {
            // Activations stay fp64 (exact, cheap vs the GEMM).
            applyActivationInPlace(dst, act_);
            cur = &dst;
        }
    }
}

} // namespace hwpr::nn
