/**
 * @file
 * Differential property tests for the GEMM stack: the cache-tiled,
 * register-blocked kernels (matmul / transposedMatmul /
 * matmulTransposed and their *Into / accumulate variants) vs a plain
 * triple-loop oracle written here from the documented contract — one
 * ascending-k accumulation chain per output element, seeded with the
 * existing output value when accumulating.
 *
 * Shapes run from 1 to 20 per side, plus products past the pool
 * fan-out threshold (>= 65536 multiply-adds, so parallel chunks meet
 * the reference) and outputs wider than the 256-column cache block.
 * Operands are dense, ReLU-sparse, or have all-zero rows, and
 * accumulate seeds include -0.0.
 *
 * Two comparison strengths, deliberately distinct:
 *  - Bit for bit, sign of zero included, where the contract promises
 *    identity: tiled vs the shipped naive kernels (one dispatch
 *    predicate picks the chain step of both), Into vs the allocating
 *    entry points, and accumulate-onto-zero vs the plain product.
 *  - Against the oracle in this file: bit for bit when fused tiles
 *    run (the oracle then steps with std::fma), within 1e-10 on the
 *    portable tiles, where a compiler may contract a*b+c into fma
 *    differently across translation units. Either strength catches
 *    real indexing/tiling bugs.
 *
 * The Matrix products always run the process's widest tile set. The
 * EveryTileSet tests run each set this CPU has (portable always, AVX2
 * and AVX-512F where present) through detail::gemmOnTiles, so a wide
 * machine still checks the narrower sets, including every column
 * tail past each tile width and every row remainder.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/isa.h"
#include "common/matrix.h"
#include "common/prop.h"

using namespace hwpr;

namespace
{

// AB: a(m x k) * b(k x n); AtB: a(k x m)^T * b(k x n);
// ABt: a(m x k) * b(n x k)^T.
using Op = detail::GemmProduct;

struct GemmCase
{
    Op op = Op::AB;
    bool into = false;       // use the *Into entry point
    bool accumulate = false; // seed the chain from existing output
    Matrix a, b, out;        // out pre-filled for the accumulate case
};

/**
 * Independent reference: the documented accumulation order, nothing
 * else. Each output element is one scalar chain over ascending k,
 * starting from the existing output value when accumulating. With
 * @p fused every step is one fused multiply-add, as in the AVX2 and
 * AVX-512F tiles; the default follows the process's tiles.
 */
Matrix
gemmOracle(const GemmCase &c, bool fused = cpuHasAvx2Fma())
{
    std::size_t m = 0, n = 0, kk = 0;
    switch (c.op) {
    case Op::AB:
        m = c.a.rows();
        kk = c.a.cols();
        n = c.b.cols();
        break;
    case Op::AtB:
        m = c.a.cols();
        kk = c.a.rows();
        n = c.b.cols();
        break;
    case Op::ABt:
        m = c.a.rows();
        kk = c.a.cols();
        n = c.b.rows();
        break;
    }
    Matrix out(m, n);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double acc =
                c.into && c.accumulate ? c.out(i, j) : 0.0;
            for (std::size_t t = 0; t < kk; ++t) {
                double lhs = 0.0, rhs = 0.0;
                switch (c.op) {
                case Op::AB:
                    lhs = c.a(i, t);
                    rhs = c.b(t, j);
                    break;
                case Op::AtB:
                    lhs = c.a(t, i);
                    rhs = c.b(t, j);
                    break;
                case Op::ABt:
                    lhs = c.a(i, t);
                    rhs = c.b(j, t);
                    break;
                }
                acc = fused ? std::fma(lhs, rhs, acc) : acc + lhs * rhs;
            }
            out(i, j) = acc;
        }
    }
    return out;
}

Matrix
runTiled(const GemmCase &c)
{
    if (!c.into) {
        switch (c.op) {
        case Op::AB:
            return c.a.matmul(c.b);
        case Op::AtB:
            return c.a.transposedMatmul(c.b);
        case Op::ABt:
            return c.a.matmulTransposed(c.b);
        }
    }
    Matrix out = c.out;
    switch (c.op) {
    case Op::AB:
        c.a.matmulInto(c.b, out, c.accumulate);
        break;
    case Op::AtB:
        c.a.transposedMatmulInto(c.b, out, c.accumulate);
        break;
    case Op::ABt:
        c.a.matmulTransposedInto(c.b, out, c.accumulate);
        break;
    }
    return out;
}

Matrix
runNaive(const GemmCase &c)
{
    switch (c.op) {
    case Op::AB:
        return c.a.matmulNaive(c.b);
    case Op::AtB:
        return c.a.transposedMatmulNaive(c.b);
    case Op::ABt:
        return c.a.matmulTransposedNaive(c.b);
    }
    return {};
}

/** Element (i, t) of the logical m x kk left factor of @p c. */
double &
lhsAt(GemmCase &c, std::size_t i, std::size_t t)
{
    return c.op == Op::AtB ? c.a(t, i) : c.a(i, t);
}

/**
 * Operands of @p c (op and flags already drawn) for an m x n product
 * over kk: dense, ReLU-sparse or zero-row left factors, and an output
 * buffer with -0.0 seeds.
 */
void
fillOperands(GemmCase &c, std::size_t m, std::size_t kk, std::size_t n,
             Rng &rng)
{
    // Mix exactly-representable grid values with full-precision
    // draws: the former make mismatches obvious, the latter catch
    // any reassociation of the accumulation chain.
    auto draw = [&rng]() {
        return rng.bernoulli(0.5) ? double(rng.intIn(-3, 3))
                                  : rng.normal();
    };
    switch (c.op) {
    case Op::AB:
        c.a = Matrix(m, kk);
        c.b = Matrix(kk, n);
        break;
    case Op::AtB:
        c.a = Matrix(kk, m);
        c.b = Matrix(kk, n);
        break;
    case Op::ABt:
        c.a = Matrix(m, kk);
        c.b = Matrix(n, kk);
        break;
    }
    c.out = Matrix(m, n);
    for (Matrix *mat : {&c.a, &c.b, &c.out})
        for (double &v : mat->raw())
            v = draw();
    // Zero-heavy left factors: ReLU-sparse (about half the
    // entries +0.0 or -0.0) or with all-zero rows. Accumulate
    // seeds get -0.0 entries; a chain over zero terms must treat
    // them alike in every kernel.
    const int texture = rng.intIn(0, 2);
    for (std::size_t i = 0; i < m; ++i) {
        const bool zero_row = texture == 2 && rng.bernoulli(0.3);
        for (std::size_t t = 0; t < kk; ++t)
            if (zero_row || (texture == 1 && rng.bernoulli(0.5)))
                lhsAt(c, i, t) = rng.bernoulli(0.5) ? 0.0 : -0.0;
    }
    for (double &v : c.out.raw())
        if (rng.bernoulli(0.2))
            v = -0.0;
}

prop::Gen<GemmCase>
gemmGen()
{
    prop::Gen<GemmCase> g;
    g.sample = [](Rng &rng) {
        GemmCase c;
        c.op = Op(rng.intIn(0, 2));
        c.into = rng.bernoulli(0.5);
        c.accumulate = c.into && rng.bernoulli(0.5);
        // Mostly small shapes; one case in eight is at least 65536
        // multiply-adds (the pool fan-out threshold, so whole-row
        // chunks run on the pool), one in eight has more output
        // columns than the 256-column cache block.
        std::size_t m = 0, kk = 0, n = 0;
        const int shape = rng.intIn(0, 7);
        if (shape == 0) {
            m = std::size_t(rng.intIn(18, 48));
            kk = std::size_t(rng.intIn(48, 80));
            n = std::size_t(rng.intIn(80, 140));
        } else if (shape == 1) {
            m = std::size_t(rng.intIn(1, 9));
            kk = std::size_t(rng.intIn(1, 12));
            n = std::size_t(rng.intIn(257, 300));
        } else {
            m = std::size_t(rng.intIn(1, 20));
            kk = std::size_t(rng.intIn(1, 20));
            n = std::size_t(rng.intIn(1, 20));
        }
        fillOperands(c, m, kk, n, rng);
        return c;
    };
    g.shrink = [](const GemmCase &c) {
        std::vector<GemmCase> out;
        // Zero one operand at a time: isolates which input drives the
        // mismatch while keeping the (shape, op, flags) fixed.
        for (Matrix GemmCase::*field :
             {&GemmCase::a, &GemmCase::b, &GemmCase::out}) {
            bool already_zero = true;
            for (double v : (c.*field).raw())
                already_zero = already_zero && v == 0.0;
            if (!already_zero) {
                GemmCase cand = c;
                (cand.*field).fill(0.0);
                out.push_back(std::move(cand));
            }
        }
        return out;
    };
    return g;
}

std::string
showGemm(const GemmCase &c)
{
    std::ostringstream msg;
    msg << "op=" << int(c.op) << " into=" << c.into
        << " accumulate=" << c.accumulate << " a(" << c.a.rows() << "x"
        << c.a.cols() << ")=" << prop::show(c.a.raw()) << " b("
        << c.b.rows() << "x" << c.b.cols() << ")="
        << prop::show(c.b.raw());
    if (c.into && c.accumulate)
        msg << " out0=" << prop::show(c.out.raw());
    return msg.str();
}

/**
 * Elementwise comparison; tol == 0 means bit for bit, so the sign of a
 * zero must match too.
 */
std::optional<std::string>
compareMats(const Matrix &got, const Matrix &want,
            const std::string &label, double tol)
{
    if (got.rows() != want.rows() || got.cols() != want.cols())
        return label + ": shape mismatch";
    for (std::size_t i = 0; i < got.raw().size(); ++i) {
        const double g = got.raw()[i], w = want.raw()[i];
        const double bound = tol * std::max(1.0, std::fabs(w));
        const bool same =
            tol == 0.0 ? std::memcmp(&g, &w, sizeof g) == 0
                       : std::fabs(g - w) <= bound;
        if (!same) {
            std::ostringstream msg;
            msg << label << ": element " << i << " differs: got "
                << prop::show(g) << ", oracle " << prop::show(w);
            return msg.str();
        }
    }
    return std::nullopt;
}

std::optional<std::string>
bitIdentical(const Matrix &got, const Matrix &want,
             const std::string &label)
{
    return compareMats(got, want, label, 0.0);
}

} // namespace

/**
 * Oracle tolerance: none when the FMA kernels run (the oracle fuses
 * the same steps); otherwise room for per-term contraction
 * differences only (the accumulation order itself must match, or
 * errors grow far past 1e-10 on adversarial magnitudes).
 */
double
oracleTol()
{
    return cpuHasAvx2Fma() ? 0.0 : 1e-10;
}

TEST(PropMatrix, TiledGemmMatchesIndependentOracle)
{
    // Cross-TU differential check: catches indexing, tiling and
    // transpose bugs.
    const auto r = prop::forAll<GemmCase>(
        prop::Config::fromEnv(0x6E4D4D01, 1200), gemmGen(), showGemm,
        [](const GemmCase &c) -> std::optional<std::string> {
            return compareMats(runTiled(c), gemmOracle(c), "tiled",
                               oracleTol());
        });
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropMatrix, TiledGemmBitIdenticalToShippedNaiveKernels)
{
    // The documented contract: tiling and threading never change the
    // per-element accumulation chain, so tiled == naive exactly.
    // Additionally the Into entry points (with and without a zero
    // accumulate seed) must be bit-identical to the allocating ones.
    const auto r = prop::forAll<GemmCase>(
        prop::Config::fromEnv(0x6E4D4D02, 1200), gemmGen(), showGemm,
        [](const GemmCase &c) -> std::optional<std::string> {
            GemmCase plain = c;
            plain.into = false;
            plain.accumulate = false;
            const Matrix reference = runTiled(plain);
            if (auto f = bitIdentical(reference, runNaive(plain),
                                      "tiled vs naive"))
                return f;

            GemmCase into = c;
            into.into = true;
            into.accumulate = false;
            if (auto f = bitIdentical(runTiled(into), reference,
                                      "Into vs allocating"))
                return f;

            // accumulate=true onto a zero output runs the exact same
            // chain seeded with 0.0 — bit-identical to the product.
            GemmCase acc = c;
            acc.into = true;
            acc.accumulate = true;
            acc.out.fill(0.0);
            if (auto f = bitIdentical(runTiled(acc), reference,
                                      "accumulate onto zero"))
                return f;
            return std::nullopt;
        });
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropMatrix, AccumulateSeedsChainFromExistingOutput)
{
    // With accumulate, the chain starts from the existing output
    // value; the oracle reproduces that semantic independently.
    const auto r = prop::forAll<GemmCase>(
        prop::Config::fromEnv(0x6E4D4D03, 1000), gemmGen(), showGemm,
        [](const GemmCase &c) -> std::optional<std::string> {
            GemmCase acc = c;
            acc.into = true;
            acc.accumulate = true;
            return compareMats(runTiled(acc), gemmOracle(acc),
                               "accumulate", oracleTol());
        });
    EXPECT_TRUE(r.ok) << r.message;
}

namespace
{

/** Every tile set this CPU runs, narrowest first. */
std::vector<GemmTiles>
runnableTiles()
{
    std::vector<GemmTiles> out = {GemmTiles::Portable};
    if (cpuHasAvx2Fma())
        out.push_back(GemmTiles::Avx2);
    if (cpuHasAvx512f())
        out.push_back(GemmTiles::Avx512);
    return out;
}

/**
 * @p c on every tile set this CPU runs. Each set meets the oracle
 * with its own chain step (bit for bit when fused), and, where the
 * naive kernels share that step, the shipped naive kernels bit for
 * bit on the plain product.
 */
std::optional<std::string>
checkEveryTileSet(const GemmCase &c)
{
    const bool acc = c.into && c.accumulate;
    for (GemmTiles tiles : runnableTiles()) {
        const bool fused = tiles != GemmTiles::Portable;
        const std::string name = gemmTilesName(tiles);
        // Without accumulate the product overwrites c.out's values.
        Matrix got = c.out;
        detail::gemmOnTiles(tiles, c.op, c.a, c.b, got, acc);
        if (auto f = compareMats(got, gemmOracle(c, fused),
                                 name + " vs oracle", fused ? 0.0 : 1e-10))
            return f;
        if (!acc && fused == cpuHasAvx2Fma())
            if (auto f = bitIdentical(got, runNaive(c), name + " vs naive"))
                return f;
    }
    return std::nullopt;
}

} // namespace

TEST(PropMatrix, EveryTileSetMatchesOraclesOnRandomShapes)
{
    // The random shapes above (pool fan-out, the 256-column block,
    // -0.0 seeds, zero-heavy left factors) on every tile set.
    const auto r = prop::forAll<GemmCase>(
        prop::Config::fromEnv(0x6E4D4D04, 600), gemmGen(), showGemm,
        checkEveryTileSet);
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropMatrix, EveryTileSetCoversColumnTailsAndRowRemainders)
{
    // Every output width from 1 to 72 covers tails 1-7 past each
    // tile width (8, 16, 32, 64); widths past 256 and 320 repeat
    // them in the second column block. 1-8 rows leave every
    // remainder 1-4 after whole 4-row blocks, on all three products,
    // with and without accumulating onto -0.0 seeds.
    std::vector<std::size_t> widths;
    for (std::size_t n = 1; n <= 72; ++n)
        widths.push_back(n);
    for (std::size_t base : {256, 320})
        for (std::size_t t = 1; t < 8; ++t)
            widths.push_back(base + t);
    Rng rng(0x6E4D4D05);
    std::size_t cases = 0;
    for (Op op : {Op::AB, Op::AtB, Op::ABt})
        for (std::size_t m = 1; m <= 8; ++m)
            for (std::size_t n : widths) {
                GemmCase c;
                c.op = op;
                c.into = true;
                c.accumulate = rng.bernoulli(0.5);
                fillOperands(c, m, std::size_t(rng.intIn(1, 9)), n, rng);
                if (auto f = checkEveryTileSet(c))
                    FAIL() << *f << "\n" << showGemm(c);
                ++cases;
            }
    EXPECT_EQ(cases, 3u * 8u * widths.size());
}
