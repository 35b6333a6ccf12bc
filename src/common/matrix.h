/**
 * @file
 * Dense row-major matrix of doubles.
 *
 * This is the numeric workhorse under the autodiff engine. The three
 * GEMM variants (matmul, transposedMatmul, matmulTransposed) run a
 * cache-tiled, register-blocked micro-kernel with one canonical
 * accumulation order: every output element accumulates its k terms in
 * ascending order in a single scalar chain. Register tiles only change
 * *which* elements are in flight together, never the per-element
 * chain, so the result is bit-identical to the kept naive reference
 * kernels (matmulNaive & co.) at any tile size. Above a flop threshold
 * the GEMMs and map() fan out over the global ExecContext pool in
 * whole-row chunks whose layout depends only on the shape, so results
 * are also bit-identical at every thread count.
 *
 * Where cpuHasAvx2Fma() (common/isa.h) holds, the tiles are explicit
 * intrinsics and every chain step is one fused multiply-add: 8 lanes
 * wide where cpuHasAvx512f() also holds, else 4. Elsewhere portable
 * tiles multiply, round and add. The naive kernels follow
 * cpuHasAvx2Fma(), so tiled == naive on every machine.
 *
 * The *Into variants write (or, with accumulate=true, add into) a
 * caller-provided output buffer, so gradients accumulate in place and
 * inference reuses its scratch instead of allocating per call.
 */

#ifndef HWPR_COMMON_MATRIX_H
#define HWPR_COMMON_MATRIX_H

#include <cstddef>
#include <functional>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace hwpr
{

/** Dense row-major matrix with the arithmetic the nn/ layer needs. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** rows x cols matrix filled with @p fill. */
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
        : rows_(rows), cols_(cols), data_(rows * cols, fill)
    {}

    /** Build from explicit row-major data. */
    Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
        : rows_(rows), cols_(cols), data_(std::move(data))
    {
        HWPR_ASSERT(data_.size() == rows_ * cols_,
                    "data size mismatches shape");
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }

    double &operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }
    double operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    double *data() { return data_.data(); }
    const double *data() const { return data_.data(); }
    std::vector<double> &raw() { return data_; }
    const std::vector<double> &raw() const { return data_; }

    /** Set every element to @p v. */
    void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

    /**
     * Make this a (rows x cols) matrix in its current storage.
     * Capacity never shrinks; it grows, to exactly rows * cols, only
     * when it is short. Contents are unspecified afterwards.
     */
    void
    reshape(std::size_t rows, std::size_t cols)
    {
        const std::size_t n = rows * cols;
        if (n > data_.capacity()) {
            data_.clear(); // nothing to copy into the new block
            data_.reserve(n);
        }
        data_.resize(n);
        rows_ = rows;
        cols_ = cols;
    }

    /** Elementwise in-place addition. */
    Matrix &operator+=(const Matrix &o);
    /** Elementwise in-place subtraction. */
    Matrix &operator-=(const Matrix &o);
    /** Scale every element in place. */
    Matrix &operator*=(double s);

    Matrix operator+(const Matrix &o) const;
    Matrix operator-(const Matrix &o) const;
    /** Elementwise (Hadamard) product. */
    Matrix hadamard(const Matrix &o) const;
    Matrix operator*(double s) const;

    /** Matrix product this(rows x k) * o(k x cols). */
    Matrix matmul(const Matrix &o) const;
    /** this^T * o without materializing the transpose. */
    Matrix transposedMatmul(const Matrix &o) const;
    /** this * o^T without materializing the transpose. */
    Matrix matmulTransposed(const Matrix &o) const;

    /**
     * this * o into @p out (pre-sized rows x o.cols). With
     * @p accumulate the product is added to out's current contents
     * (out += this * o), still one ascending-k chain per element.
     */
    void matmulInto(const Matrix &o, Matrix &out,
                    bool accumulate = false) const;
    /** this^T * o into @p out (pre-sized cols x o.cols). */
    void transposedMatmulInto(const Matrix &o, Matrix &out,
                              bool accumulate = false) const;
    /** this * o^T into @p out (pre-sized rows x o.rows). */
    void matmulTransposedInto(const Matrix &o, Matrix &out,
                              bool accumulate = false) const;

    /**
     * Naive serial reference kernels, kept as the determinism oracle
     * for the tiled paths above: same per-element ascending-k
     * accumulation chains, no tiling, no threading. The property
     * suite (tests/prop/test_prop_matrix.cc) asserts the tiled
     * kernels equal these bit for bit, and equal its own oracle bit
     * for bit under the FMA kernels, within 1e-10 otherwise.
     */
    Matrix matmulNaive(const Matrix &o) const;
    Matrix transposedMatmulNaive(const Matrix &o) const;
    Matrix matmulTransposedNaive(const Matrix &o) const;

    /** this += s * o (axpy). */
    Matrix &addScaled(const Matrix &o, double s);
    /** this += a ⊙ b (elementwise product accumulate). */
    Matrix &addHadamard(const Matrix &a, const Matrix &b);

    /** Transposed copy. */
    Matrix transposed() const;

    /** Apply a scalar function to every element (copy). */
    Matrix map(const std::function<double(double)> &f) const;

    /** Add a 1 x cols row vector to every row. */
    Matrix addRowBroadcast(const Matrix &row) const;

    /** Column sums as a 1 x cols matrix. */
    Matrix columnSums() const;

    /** Sum of all elements. */
    double sum() const;

    /** Extract rows [begin, end) as a copy. */
    Matrix rowSlice(std::size_t begin, std::size_t end) const;

    /** Concatenate two matrices with equal row counts side by side. */
    static Matrix hconcat(const Matrix &a, const Matrix &b);

    /** Stack two matrices with equal column counts vertically. */
    static Matrix vconcat(const Matrix &a, const Matrix &b);

    /**
     * Xavier/Glorot-uniform initialization; the standard choice for
     * tanh/sigmoid-style gates and fine for ReLU at these sizes.
     */
    static Matrix xavier(std::size_t rows, std::size_t cols, Rng &rng);

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/** The GEMM register-tile sets (common/matrix.cc), narrowest first. */
enum class GemmTiles
{
    Portable, ///< multiply, round, add: any CPU
    Avx2,     ///< 4-wide fused multiply-adds: cpuHasAvx2Fma()
    Avx512,   ///< 8-wide fused multiply-adds: cpuHasAvx512f()
};

/**
 * The tile set every Matrix product runs in this process: the widest
 * this CPU has. Fixed for the life of the process.
 */
GemmTiles gemmTiles();

/** "portable", "avx2" or "avx512" (run provenance). */
const char *gemmTilesName(GemmTiles tiles);

namespace detail
{

/** The three products, as gemmOnTiles names them. */
enum class GemmProduct
{
    AB,  ///< a * b, as matmulInto
    AtB, ///< a^T * b, as transposedMatmulInto
    ABt, ///< a * b^T, as matmulTransposedInto
};

/**
 * Test-only: out (+)= product @p p of @p a and @p b, computed as the
 * Matrix *Into entry points compute it (packing, chunking, pool
 * fan-out), but on @p tiles instead of gemmTiles(). @p tiles must be
 * a set this CPU runs. It lets one machine check every tile set it
 * has against the same oracles; the shipped products take no switch.
 */
void gemmOnTiles(GemmTiles tiles, GemmProduct p, const Matrix &a,
                 const Matrix &b, Matrix &out, bool accumulate);

} // namespace detail

} // namespace hwpr

#endif // HWPR_COMMON_MATRIX_H
