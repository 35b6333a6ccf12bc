#include "common/matrix.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/isa.h"
#ifdef HWPR_AVX2_FMA_KERNELS
#include <immintrin.h>
#endif
#include "common/obs.h"
#include "common/threadpool.h"

namespace hwpr
{

namespace
{

/**
 * Minimum flop count before a GEMM fans out to the global pool, and
 * the per-chunk flop budget once it does. Chunks are whole output
 * rows, each computed serially, so results are bit-identical at every
 * thread count.
 */
constexpr std::size_t kGemmParallelFlops = std::size_t(1) << 16;
constexpr std::size_t kGemmGrainFlops = std::size_t(1) << 15;

/** Elementwise-op threshold / grain (elements). */
constexpr std::size_t kMapParallelSize = std::size_t(1) << 15;

/**
 * Register-tile shape. Up to kMr output rows stay in registers for
 * the whole k loop, so each output element is one scalar ascending-k
 * chain — the canonical accumulation order shared with the naive
 * reference kernels. kNr is the portable tile's width and the AVX2
 * tiles' two-vector width. kNc is the column cache block: the k x kNc
 * panel of B stays hot while every row block of the chunk sweeps it.
 */
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 8;
constexpr std::size_t kNc = 256;

/**
 * Per-variant GEMM observability. Every entry-point call records wall
 * time, multiply-add count and call count into the registry when
 * metrics are armed; only calls big enough to fan out to the pool
 * (>= kGemmParallelFlops) open a trace span — small products run
 * thousands of times per training step and would swamp the trace
 * without changing its story.
 */
struct GemmMetrics
{
    obs::Histogram &us;
    obs::Counter &flops;
    obs::Counter &calls;

    explicit GemmMetrics(const char *variant)
        : us(obs::Registry::global().histogram(
              std::string("gemm.") + variant + ".us")),
          flops(obs::Registry::global().counter(
              std::string("gemm.") + variant + ".flops")),
          calls(obs::Registry::global().counter(
              std::string("gemm.") + variant + ".calls"))
    {}
};

/** Scoped per-call recorder for one GemmMetrics set. */
class GemmTimer
{
  public:
    GemmTimer(GemmMetrics &target, std::size_t flops)
        : target_(obs::metricsEnabled() ? &target : nullptr),
          flops_(flops), start_(target_ ? obs::nowMicros() : 0.0)
    {}

    ~GemmTimer()
    {
        if (target_) {
            target_->us.record(obs::nowMicros() - start_);
            target_->flops.add(flops_);
            target_->calls.add();
        }
    }

    GemmTimer(const GemmTimer &) = delete;
    GemmTimer &operator=(const GemmTimer &) = delete;

  private:
    GemmMetrics *target_;
    std::size_t flops_;
    double start_;
};

std::size_t
rowGrain(std::size_t flops_per_row)
{
    const std::size_t rows = std::max<std::size_t>(
        1, kGemmGrainFlops / std::max<std::size_t>(1, flops_per_row));
    // Align chunks to the register-tile height: parallel chunk
    // boundaries land on multiples of the grain, so a kMr-aligned
    // grain keeps every row's tile membership — and therefore its
    // exact instruction sequence — identical at every thread count.
    return (rows + kMr - 1) / kMr * kMr;
}

/*
 * Three tile sets compute the same chunks. Each takes the left factor
 * as strides: element (r, k) of the m x kk left operand sits at
 * a[r * rs + k * ks], so A * B passes (kk, 1) and A^T * B walks the
 * stored kk x m matrix with (1, m). B and C are row-major with
 * leading dimension n.
 *
 *  - AVX-512F and AVX2+FMA (common/isa.h): explicit-intrinsic register
 *    tiles, 8 and 4 lanes wide. Every chain step is one fused
 *    multiply-add of one broadcast A element, seeded with +0.0 or the
 *    existing output, with no zero skip: fma(0, b, acc) == acc for
 *    every finite b. The two sets compute the same chains; only the
 *    number of elements in flight differs.
 *  - Portable: runtime-bounded tiles, one rounded multiply and one
 *    add per step, zero A elements skipped.
 *
 * A set is kMr strips, strip mr covering mr output rows over one
 * column block; gemmRows is the one row and column blocking over
 * them. The process runs the widest set its CPU has (gemmTiles()).
 * The naive reference kernels step with std::fma under the same
 * cpuHasAvx2Fma() test, so tiled == naive holds exactly on every
 * machine and in every build flavour.
 */

/** C rows [0, mr) x columns [j0, j1) (+)= A * B for one fixed mr. */
using Strip = void (*)(const double *a, std::size_t rs, std::size_t ks,
                       const double *b, double *c, std::size_t n,
                       std::size_t j0, std::size_t j1, std::size_t kk,
                       bool accumulate);

/** A tile set: element mr - 1 is the strip of mr rows. */
using TileSet = std::array<Strip, kMr>;

#ifdef HWPR_AVX2_FMA_KERNELS

/**
 * MR x 4*NV register tile of C (+)= A * B: per k, NV 4-wide loads of
 * the B row, one broadcast per A row, MR * NV fused multiply-adds
 * into accumulators that stay in registers for the whole k loop.
 */
template <std::size_t MR, std::size_t NV>
HWPR_TARGET_AVX2_FMA HWPR_FORCE_INLINE void
fmaTile(const double *a, std::size_t rs, std::size_t ks,
        const double *b, double *c, std::size_t n, std::size_t kk,
        bool accumulate)
{
    __m256d acc[MR][NV];
    for (std::size_t r = 0; r < MR; ++r)
        for (std::size_t v = 0; v < NV; ++v)
            acc[r][v] = accumulate ? _mm256_loadu_pd(c + r * n + 4 * v)
                                   : _mm256_setzero_pd();
    for (std::size_t k = 0; k < kk; ++k) {
        __m256d bk[NV];
        for (std::size_t v = 0; v < NV; ++v)
            bk[v] = _mm256_loadu_pd(b + k * n + 4 * v);
        for (std::size_t r = 0; r < MR; ++r) {
            const __m256d av = _mm256_broadcast_sd(a + r * rs + k * ks);
            for (std::size_t v = 0; v < NV; ++v)
                acc[r][v] = _mm256_fmadd_pd(av, bk[v], acc[r][v]);
        }
    }
    for (std::size_t r = 0; r < MR; ++r)
        for (std::size_t v = 0; v < NV; ++v)
            _mm256_storeu_pd(c + r * n + 4 * v, acc[r][v]);
}

/** The last nr < 4 columns: one scalar fused chain per element. */
template <std::size_t MR>
HWPR_TARGET_AVX2_FMA HWPR_FORCE_INLINE void
fmaTileScalar(const double *a, std::size_t rs, std::size_t ks,
              const double *b, double *c, std::size_t n, std::size_t nr,
              std::size_t kk, bool accumulate)
{
    for (std::size_t j = 0; j < nr; ++j) {
        double acc[MR];
        for (std::size_t r = 0; r < MR; ++r)
            acc[r] = accumulate ? c[r * n + j] : 0.0;
        for (std::size_t k = 0; k < kk; ++k)
            for (std::size_t r = 0; r < MR; ++r)
                acc[r] = std::fma(a[r * rs + k * ks], b[k * n + j],
                                  acc[r]);
        for (std::size_t r = 0; r < MR; ++r)
            c[r * n + j] = acc[r];
    }
}

/**
 * AVX2 strip: MR rows x columns [j0, j1). Tiles hold about eight
 * accumulator vectors, enough independent chains to cover the FMA
 * latency: one row takes 32 columns per tile, two rows 16, three or
 * four rows 8. Then 8-wide tiles, a 4-wide one and scalar columns
 * finish the strip.
 */
template <std::size_t MR>
HWPR_TARGET_AVX2_FMA void
fmaStrip(const double *a, std::size_t rs, std::size_t ks,
         const double *b, double *c, std::size_t n, std::size_t j0,
         std::size_t j1, std::size_t kk, bool accumulate)
{
    constexpr std::size_t nv = std::max<std::size_t>(8 / MR, 2);
    std::size_t j = j0;
    for (; j + 4 * nv <= j1; j += 4 * nv)
        fmaTile<MR, nv>(a, rs, ks, b + j, c + j, n, kk, accumulate);
    if constexpr (nv > 2)
        for (; j + kNr <= j1; j += kNr)
            fmaTile<MR, 2>(a, rs, ks, b + j, c + j, n, kk, accumulate);
    if (j + 4 <= j1) {
        fmaTile<MR, 1>(a, rs, ks, b + j, c + j, n, kk, accumulate);
        j += 4;
    }
    if (j < j1)
        fmaTileScalar<MR>(a, rs, ks, b + j, c + j, n, j1 - j, kk,
                          accumulate);
}

/**
 * fmaTile at twice the width: MR x 8*NV, per k NV 8-wide loads of the
 * B row, one broadcast per A row, MR * NV fused multiply-adds. (GCC
 * cannot compile one template body for both targets, so the two
 * tiles mirror each other line for line.)
 */
template <std::size_t MR, std::size_t NV>
HWPR_TARGET_AVX512F HWPR_FORCE_INLINE void
fmaTile512(const double *a, std::size_t rs, std::size_t ks,
           const double *b, double *c, std::size_t n, std::size_t kk,
           bool accumulate)
{
    __m512d acc[MR][NV];
    for (std::size_t r = 0; r < MR; ++r)
        for (std::size_t v = 0; v < NV; ++v)
            acc[r][v] = accumulate ? _mm512_loadu_pd(c + r * n + 8 * v)
                                   : _mm512_setzero_pd();
    for (std::size_t k = 0; k < kk; ++k) {
        __m512d bk[NV];
        for (std::size_t v = 0; v < NV; ++v)
            bk[v] = _mm512_loadu_pd(b + k * n + 8 * v);
        for (std::size_t r = 0; r < MR; ++r) {
            const __m512d av = _mm512_set1_pd(a[r * rs + k * ks]);
            for (std::size_t v = 0; v < NV; ++v)
                acc[r][v] = _mm512_fmadd_pd(av, bk[v], acc[r][v]);
        }
    }
    for (std::size_t r = 0; r < MR; ++r)
        for (std::size_t v = 0; v < NV; ++v)
            _mm512_storeu_pd(c + r * n + 8 * v, acc[r][v]);
}

/**
 * AVX-512F strip: three or four rows take 32 columns per tile (up to
 * 16 accumulators of the 32 zmm registers), one or two rows 64. What
 * is left takes at most one tile each of 32 (one or two rows), 16 and
 * 8 columns; the last n % 8 columns run the AVX2 strip's 4-wide and
 * scalar columns, so no masked loads are needed.
 */
template <std::size_t MR>
HWPR_TARGET_AVX512F void
fmaStrip512(const double *a, std::size_t rs, std::size_t ks,
            const double *b, double *c, std::size_t n, std::size_t j0,
            std::size_t j1, std::size_t kk, bool accumulate)
{
    constexpr std::size_t nv = MR > 2 ? 4 : 8;
    std::size_t j = j0;
    for (; j + 8 * nv <= j1; j += 8 * nv)
        fmaTile512<MR, nv>(a, rs, ks, b + j, c + j, n, kk, accumulate);
    if constexpr (nv > 4)
        if (j + 32 <= j1) {
            fmaTile512<MR, 4>(a, rs, ks, b + j, c + j, n, kk, accumulate);
            j += 32;
        }
    if (j + 16 <= j1) {
        fmaTile512<MR, 2>(a, rs, ks, b + j, c + j, n, kk, accumulate);
        j += 16;
    }
    if (j + 8 <= j1) {
        fmaTile512<MR, 1>(a, rs, ks, b + j, c + j, n, kk, accumulate);
        j += 8;
    }
    if (j < j1)
        fmaStrip<MR>(a, rs, ks, b, c, n, j, j1, kk, accumulate);
}

constexpr TileSet kAvx2Tiles = {fmaStrip<1>, fmaStrip<2>, fmaStrip<3>,
                                fmaStrip<4>};
constexpr TileSet kAvx512Tiles = {fmaStrip512<1>, fmaStrip512<2>,
                                  fmaStrip512<3>, fmaStrip512<4>};

#endif // HWPR_AVX2_FMA_KERNELS

/**
 * Portable C tile [0,mr) x [0,nr) of C (+)= A * B (@p b, @p c at the
 * tile's first column, leading dimension n). Zero A elements skip
 * their row of multiply-adds, exactly like the portable naive
 * kernels; the skip is exact up to the sign of a zero output.
 */
void
gemmTilePortable(const double *a, std::size_t rs, std::size_t ks,
                 const double *b, double *c, std::size_t n,
                 std::size_t mr, std::size_t nr, std::size_t kk,
                 bool accumulate)
{
    double acc[kMr][kNr];
    for (std::size_t r = 0; r < mr; ++r)
        for (std::size_t j = 0; j < nr; ++j)
            acc[r][j] = accumulate ? c[r * n + j] : 0.0;
    for (std::size_t k = 0; k < kk; ++k) {
        const double *bk = b + k * n;
        for (std::size_t r = 0; r < mr; ++r) {
            const double av = a[r * rs + k * ks];
            if (av == 0.0)
                continue;
            for (std::size_t j = 0; j < nr; ++j)
                acc[r][j] += av * bk[j];
        }
    }
    for (std::size_t r = 0; r < mr; ++r)
        for (std::size_t j = 0; j < nr; ++j)
            c[r * n + j] = acc[r][j];
}

/** Portable strip: kNr-wide tiles, the last one narrower. */
template <std::size_t MR>
void
portableStrip(const double *a, std::size_t rs, std::size_t ks,
              const double *b, double *c, std::size_t n, std::size_t j0,
              std::size_t j1, std::size_t kk, bool accumulate)
{
    for (std::size_t j = j0; j < j1; j += kNr)
        gemmTilePortable(a, rs, ks, b + j, c + j, n, MR,
                         std::min(kNr, j1 - j), kk, accumulate);
}

constexpr TileSet kPortableTiles = {portableStrip<1>, portableStrip<2>,
                                    portableStrip<3>, portableStrip<4>};

const TileSet &
tileSet(GemmTiles tiles)
{
#ifdef HWPR_AVX2_FMA_KERNELS
    if (tiles == GemmTiles::Avx512)
        return kAvx512Tiles;
    if (tiles == GemmTiles::Avx2)
        return kAvx2Tiles;
#endif
    (void)tiles;
    return kPortableTiles;
}

/**
 * Chunk worker: output rows [i0, i1) of C (+)= A * B, A given by
 * strides (above), one strip per kMr rows and column block.
 */
void
gemmRows(const TileSet &tiles, const double *a, std::size_t rs,
         std::size_t ks, const double *b, double *c, std::size_t i0,
         std::size_t i1, std::size_t n, std::size_t kk, bool accumulate)
{
    for (std::size_t j0 = 0; j0 < n; j0 += kNc) {
        const std::size_t j1 = std::min(n, j0 + kNc);
        for (std::size_t i = i0; i < i1; i += kMr)
            tiles[std::min(kMr, i1 - i) - 1](a + i * rs, rs, ks, b,
                                             c + i * n, n, j0, j1, kk,
                                             accumulate);
    }
}

/**
 * Pack B (n x kk, row-major) as its transpose, a contiguous kk x n
 * panel. 8x8 blocked so both streams stay within a few cache lines
 * per tile (~4x faster than the naive strided sweep). Pure data
 * movement — the values feeding each fma chain are unchanged.
 */
HWPR_TARGET_CLONES void
packTransposed(const double *b, double *bt, std::size_t n,
               std::size_t kk)
{
    constexpr std::size_t blk = 8;
    for (std::size_t j0 = 0; j0 < n; j0 += blk) {
        const std::size_t j1 = std::min(j0 + blk, n);
        for (std::size_t k0 = 0; k0 < kk; k0 += blk) {
            const std::size_t k1 = std::min(k0 + blk, kk);
            for (std::size_t j = j0; j < j1; ++j) {
                const double *brow = b + j * kk;
                for (std::size_t k = k0; k < k1; ++k)
                    bt[k * n + j] = brow[k];
            }
        }
    }
}

/** Metrics of product @p p, registered on its first call. */
GemmMetrics &
gemmMetrics(detail::GemmProduct p)
{
    switch (p) {
    case detail::GemmProduct::AtB: {
        static GemmMetrics gm("atb");
        return gm;
    }
    case detail::GemmProduct::ABt: {
        static GemmMetrics gm("abt");
        return gm;
    }
    default: {
        static GemmMetrics gm("ab");
        return gm;
    }
    }
}

/**
 * out (+)= product @p p of @p a and @p b on @p tiles: the body of the
 * three Matrix products, shapes already checked. Below
 * kGemmParallelFlops one serial pass; above it, kMr-aligned whole-row
 * chunks on the global pool.
 */
void
gemm(GemmTiles tiles, detail::GemmProduct p, const Matrix &a,
     const Matrix &b, Matrix &out, bool accumulate)
{
    static const char *const spans[] = {"gemm.ab", "gemm.atb",
                                        "gemm.abt"};
    // A^T * B reads the stored (k x m) A with strides (1, m).
    const bool at = p == detail::GemmProduct::AtB;
    const std::size_t m = at ? a.cols() : a.rows();
    const std::size_t kk = at ? a.rows() : a.cols();
    const std::size_t n = out.cols();
    const std::size_t rs = at ? 1 : kk;
    const std::size_t ks = at ? m : 1;
    const std::size_t flops_per_row = kk * n;
    GemmTimer timer(gemmMetrics(p), m * flops_per_row);
    const double *panel = b.data();
    if (p == detail::GemmProduct::ABt) {
        // Pack b^T once, then run the contiguous A * B chunk worker
        // over it: every row tile re-reads the whole B panel, so the
        // strided column gathers are paid once instead of per tile
        // (O(k*n) moves against O(m*k*n) multiply-adds), and A * B^T
        // shares the A * B tiles instead of keeping gathered ones.
        thread_local std::vector<double> packed;
        packed.resize(kk * n);
        packTransposed(b.data(), packed.data(), n, kk);
        panel = packed.data();
    }
    // Capture the panel pointer, not the vector: the lambda runs on
    // pool threads, where the thread_local above is a different
    // (empty) instance.
    const TileSet &set = tileSet(tiles);
    auto rows_kernel = [&, panel](std::size_t i0, std::size_t i1) {
        gemmRows(set, a.data(), rs, ks, panel, out.data(), i0, i1, n, kk,
                 accumulate);
    };
    if (m * flops_per_row < kGemmParallelFlops) {
        rows_kernel(0, m);
    } else {
        HWPR_SPAN(spans[int(p)], {{"m", double(m)},
                                  {"n", double(n)},
                                  {"k", double(kk)}});
        ExecContext::global().pool->parallelFor(
            0, m, rowGrain(flops_per_row), rows_kernel);
    }
}

/**
 * Naive reference loops, in the loop shapes of the portable tiles.
 * Fma selects the chain step of the AVX2+FMA tiles (std::fma, no
 * zero skip); otherwise the portable tiles' multiply, add and zero
 * skip.
 * @{
 */
template <bool Fma>
HWPR_FORCE_INLINE void
chainStep(double &acc, double av, double bv)
{
    if constexpr (Fma)
        acc = std::fma(av, bv, acc);
    else
        acc += av * bv;
}

template <bool Fma>
void
naiveAB(const double *a, const double *b, double *c, std::size_t m,
        std::size_t n, std::size_t kk)
{
    for (std::size_t i = 0; i < m; ++i) {
        const double *arow = a + i * kk;
        double *crow = c + i * n;
        for (std::size_t k = 0; k < kk; ++k) {
            const double av = arow[k];
            if (!Fma && av == 0.0)
                continue;
            const double *brow = b + k * n;
            for (std::size_t j = 0; j < n; ++j)
                chainStep<Fma>(crow[j], av, brow[j]);
        }
    }
}

template <bool Fma>
void
naiveAtB(const double *a, const double *b, double *c, std::size_t m,
         std::size_t n, std::size_t kk)
{
    for (std::size_t k = 0; k < kk; ++k) {
        const double *arow = a + k * m;
        const double *brow = b + k * n;
        for (std::size_t i = 0; i < m; ++i) {
            const double av = arow[i];
            if (!Fma && av == 0.0)
                continue;
            double *crow = c + i * n;
            for (std::size_t j = 0; j < n; ++j)
                chainStep<Fma>(crow[j], av, brow[j]);
        }
    }
}

template <bool Fma>
void
naiveABt(const double *a, const double *b, double *c, std::size_t m,
         std::size_t n, std::size_t kk)
{
    // Same expression shape as the tile kernel: gather the k-th
    // column of B^T into a contiguous buffer, then run the axpy
    // acc += av * bk[j]. A dot-product form computes the same chain
    // on paper, but a compiler that contracts mul+add on its own may
    // fuse the two shapes differently.
    std::vector<double> bk(n);
    for (std::size_t i = 0; i < m; ++i) {
        const double *arow = a + i * kk;
        double *crow = c + i * n;
        for (std::size_t k = 0; k < kk; ++k) {
            const double av = arow[k];
            if (!Fma && av == 0.0)
                continue;
            for (std::size_t j = 0; j < n; ++j)
                bk[j] = b[j * kk + k];
            for (std::size_t j = 0; j < n; ++j)
                chainStep<Fma>(crow[j], av, bk[j]);
        }
    }
}
/** @} */

/**
 * @{
 * @name Elementwise accumulation loops
 *
 * Cloned so AVX2 machines run them 4-wide. Every caller sweeps them
 * serially over the whole buffer (only map() fans out, and it takes a
 * std::function, not these), so the vector-body/epilogue split
 * depends only on the length and results are identical at every
 * thread count.
 */
HWPR_TARGET_CLONES void
addInto(double *a, const double *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] += b[i];
}

HWPR_TARGET_CLONES void
subInto(double *a, const double *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] -= b[i];
}

HWPR_TARGET_CLONES void
scaleInto(double *a, double s, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] *= s;
}

HWPR_TARGET_CLONES void
mulInto(double *a, const double *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] *= b[i];
}

HWPR_TARGET_CLONES void
addScaledInto(double *a, const double *b, double s, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] += s * b[i];
}

HWPR_TARGET_CLONES void
addMulInto(double *a, const double *b, const double *c, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] += b[i] * c[i];
}
/** @} */

} // namespace

Matrix &
Matrix::operator+=(const Matrix &o)
{
    HWPR_ASSERT(rows_ == o.rows_ && cols_ == o.cols_,
                "shape mismatch in +=");
    addInto(data_.data(), o.data_.data(), data_.size());
    return *this;
}

Matrix &
Matrix::operator-=(const Matrix &o)
{
    HWPR_ASSERT(rows_ == o.rows_ && cols_ == o.cols_,
                "shape mismatch in -=");
    subInto(data_.data(), o.data_.data(), data_.size());
    return *this;
}

Matrix &
Matrix::operator*=(double s)
{
    scaleInto(data_.data(), s, data_.size());
    return *this;
}

Matrix
Matrix::operator+(const Matrix &o) const
{
    Matrix r = *this;
    r += o;
    return r;
}

Matrix
Matrix::operator-(const Matrix &o) const
{
    Matrix r = *this;
    r -= o;
    return r;
}

Matrix
Matrix::hadamard(const Matrix &o) const
{
    HWPR_ASSERT(rows_ == o.rows_ && cols_ == o.cols_,
                "shape mismatch in hadamard");
    Matrix r = *this;
    mulInto(r.data_.data(), o.data_.data(), r.data_.size());
    return r;
}

Matrix
Matrix::operator*(double s) const
{
    Matrix r = *this;
    r *= s;
    return r;
}

GemmTiles
gemmTiles()
{
    if (cpuHasAvx512f())
        return GemmTiles::Avx512;
    return cpuHasAvx2Fma() ? GemmTiles::Avx2 : GemmTiles::Portable;
}

const char *
gemmTilesName(GemmTiles tiles)
{
    switch (tiles) {
    case GemmTiles::Avx512:
        return "avx512";
    case GemmTiles::Avx2:
        return "avx2";
    default:
        return "portable";
    }
}

void
Matrix::matmulInto(const Matrix &o, Matrix &out,
                   bool accumulate) const
{
    HWPR_ASSERT(cols_ == o.rows_, "matmul inner-dim mismatch: ", cols_,
                " vs ", o.rows_);
    HWPR_ASSERT(out.rows_ == rows_ && out.cols_ == o.cols_,
                "matmulInto output shape mismatch");
    gemm(gemmTiles(), detail::GemmProduct::AB, *this, o, out, accumulate);
}

Matrix
Matrix::matmul(const Matrix &o) const
{
    Matrix r(rows_, o.cols_);
    matmulInto(o, r);
    return r;
}

void
Matrix::transposedMatmulInto(const Matrix &o, Matrix &out,
                             bool accumulate) const
{
    // (this^T * o): this is (k x m), o is (k x n), result (m x n).
    HWPR_ASSERT(rows_ == o.rows_, "transposedMatmul row mismatch");
    HWPR_ASSERT(out.rows_ == cols_ && out.cols_ == o.cols_,
                "transposedMatmulInto output shape mismatch");
    gemm(gemmTiles(), detail::GemmProduct::AtB, *this, o, out, accumulate);
}

Matrix
Matrix::transposedMatmul(const Matrix &o) const
{
    Matrix r(cols_, o.cols_);
    transposedMatmulInto(o, r);
    return r;
}

void
Matrix::matmulTransposedInto(const Matrix &o, Matrix &out,
                             bool accumulate) const
{
    // (this * o^T): this is (m x k), o is (n x k), result (m x n).
    HWPR_ASSERT(cols_ == o.cols_, "matmulTransposed col mismatch");
    HWPR_ASSERT(out.rows_ == rows_ && out.cols_ == o.rows_,
                "matmulTransposedInto output shape mismatch");
    gemm(gemmTiles(), detail::GemmProduct::ABt, *this, o, out, accumulate);
}

Matrix
Matrix::matmulTransposed(const Matrix &o) const
{
    Matrix r(rows_, o.rows_);
    matmulTransposedInto(o, r);
    return r;
}

namespace detail
{

void
gemmOnTiles(GemmTiles tiles, GemmProduct p, const Matrix &a,
            const Matrix &b, Matrix &out, bool accumulate)
{
    // The CPU runs every set up to its widest.
    HWPR_CHECK(tiles <= gemmTiles(), "gemmOnTiles: this CPU cannot run the ",
               gemmTilesName(tiles), " tiles");
    const bool at = p == GemmProduct::AtB;
    const bool bt = p == GemmProduct::ABt;
    HWPR_CHECK((at ? a.rows() : a.cols()) == (bt ? b.cols() : b.rows()) &&
                   out.rows() == (at ? a.cols() : a.rows()) &&
                   out.cols() == (bt ? b.rows() : b.cols()),
               "gemmOnTiles: operand shapes mismatch");
    gemm(tiles, p, a, b, out, accumulate);
}

} // namespace detail

Matrix
Matrix::matmulNaive(const Matrix &o) const
{
    HWPR_ASSERT(cols_ == o.rows_, "matmulNaive inner-dim mismatch");
    Matrix r(rows_, o.cols_);
    if (cpuHasAvx2Fma())
        naiveAB<true>(data_.data(), o.data_.data(), r.data_.data(),
                      rows_, o.cols_, cols_);
    else
        naiveAB<false>(data_.data(), o.data_.data(), r.data_.data(),
                       rows_, o.cols_, cols_);
    return r;
}

Matrix
Matrix::transposedMatmulNaive(const Matrix &o) const
{
    HWPR_ASSERT(rows_ == o.rows_, "transposedMatmulNaive row mismatch");
    Matrix r(cols_, o.cols_);
    if (cpuHasAvx2Fma())
        naiveAtB<true>(data_.data(), o.data_.data(), r.data_.data(),
                       cols_, o.cols_, rows_);
    else
        naiveAtB<false>(data_.data(), o.data_.data(), r.data_.data(),
                        cols_, o.cols_, rows_);
    return r;
}

Matrix
Matrix::matmulTransposedNaive(const Matrix &o) const
{
    HWPR_ASSERT(cols_ == o.cols_, "matmulTransposedNaive col mismatch");
    Matrix r(rows_, o.rows_);
    if (cpuHasAvx2Fma())
        naiveABt<true>(data_.data(), o.data_.data(), r.data_.data(),
                       rows_, o.rows_, cols_);
    else
        naiveABt<false>(data_.data(), o.data_.data(), r.data_.data(),
                        rows_, o.rows_, cols_);
    return r;
}

Matrix &
Matrix::addScaled(const Matrix &o, double s)
{
    HWPR_ASSERT(rows_ == o.rows_ && cols_ == o.cols_,
                "shape mismatch in addScaled");
    addScaledInto(data_.data(), o.data_.data(), s, data_.size());
    return *this;
}

Matrix &
Matrix::addHadamard(const Matrix &a, const Matrix &b)
{
    HWPR_ASSERT(rows_ == a.rows_ && cols_ == a.cols_ &&
                    rows_ == b.rows_ && cols_ == b.cols_,
                "shape mismatch in addHadamard");
    addMulInto(data_.data(), a.data_.data(), b.data_.data(),
               data_.size());
    return *this;
}

Matrix
Matrix::transposed() const
{
    Matrix r(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            r(j, i) = (*this)(i, j);
    return r;
}

Matrix
Matrix::map(const std::function<double(double)> &f) const
{
    Matrix r = *this;
    if (r.data_.size() < kMapParallelSize) {
        for (double &v : r.data_)
            v = f(v);
        return r;
    }
    ExecContext::global().pool->parallelFor(
        0, r.data_.size(), kMapParallelSize / 4,
        [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i)
                r.data_[i] = f(r.data_[i]);
        });
    return r;
}

Matrix
Matrix::addRowBroadcast(const Matrix &row) const
{
    HWPR_ASSERT(row.rows_ == 1 && row.cols_ == cols_,
                "broadcast row shape mismatch");
    Matrix r = *this;
    for (std::size_t i = 0; i < rows_; ++i)
        addInto(&r.data_[i * cols_], row.data_.data(), cols_);
    return r;
}

Matrix
Matrix::columnSums() const
{
    Matrix r(1, cols_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            r(0, j) += (*this)(i, j);
    return r;
}

double
Matrix::sum() const
{
    double acc = 0.0;
    for (double v : data_)
        acc += v;
    return acc;
}

Matrix
Matrix::rowSlice(std::size_t begin, std::size_t end) const
{
    HWPR_ASSERT(begin <= end && end <= rows_, "rowSlice out of range");
    Matrix r(end - begin, cols_);
    std::copy(data_.begin() + begin * cols_, data_.begin() + end * cols_,
              r.data_.begin());
    return r;
}

Matrix
Matrix::hconcat(const Matrix &a, const Matrix &b)
{
    HWPR_ASSERT(a.rows_ == b.rows_, "hconcat row mismatch");
    Matrix r(a.rows_, a.cols_ + b.cols_);
    for (std::size_t i = 0; i < a.rows_; ++i) {
        std::copy(a.data() + i * a.cols_, a.data() + (i + 1) * a.cols_,
                  r.data() + i * r.cols_);
        std::copy(b.data() + i * b.cols_, b.data() + (i + 1) * b.cols_,
                  r.data() + i * r.cols_ + a.cols_);
    }
    return r;
}

Matrix
Matrix::vconcat(const Matrix &a, const Matrix &b)
{
    HWPR_ASSERT(a.cols_ == b.cols_, "vconcat col mismatch");
    Matrix r(a.rows_ + b.rows_, a.cols_);
    std::copy(a.data_.begin(), a.data_.end(), r.data_.begin());
    std::copy(b.data_.begin(), b.data_.end(),
              r.data_.begin() + a.data_.size());
    return r;
}

Matrix
Matrix::xavier(std::size_t rows, std::size_t cols, Rng &rng)
{
    Matrix r(rows, cols);
    const double bound = std::sqrt(6.0 / double(rows + cols));
    for (double &v : r.raw())
        v = rng.uniform(-bound, bound);
    return r;
}

} // namespace hwpr
