/**
 * @file
 * Training fast-path tests: the tiled GEMM kernels must match the
 * naive reference kernels on arbitrary (including odd and packed)
 * shapes, gradients must stay correct through the tiled kernels, and
 * the fit-time encoding cache must encode, and backpropagate, exactly
 * like the plain encoder for every encoding kind.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "core/encoding.h"
#include "nasbench/space.h"
#include "nn/gradcheck.h"
#include "nn/tensor.h"

using namespace hwpr;
using namespace hwpr::nn;

namespace
{

Matrix
randomMatrix(std::size_t r, std::size_t c, Rng &rng)
{
    Matrix m(r, c);
    for (double &v : m.raw())
        v = rng.normal(0.0, 1.0);
    return m;
}

double
maxAbsDiff(const Matrix &a, const Matrix &b)
{
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    double worst = 0.0;
    for (std::size_t i = 0; i < a.raw().size(); ++i)
        worst = std::max(worst, std::abs(a.raw()[i] - b.raw()[i]));
    return worst;
}

/** Same shape and the same bits, sign of zero included. */
bool
bitsEqual(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       a.raw().size() * sizeof(double)) == 0;
}

} // namespace

TEST(TiledGemm, MatchesNaiveOnArbitraryShapes)
{
    // (m, k, n) triples: tiny, odd, prime, below/above the kMr x kNr
    // register-tile boundaries, and large enough for the parallel
    // row-partitioned path.
    const std::size_t shapes[][3] = {
        {1, 1, 1},   {2, 3, 1},   {5, 7, 3},   {4, 8, 8},
        {17, 9, 1},  {13, 31, 29}, {33, 5, 2}, {40, 64, 72},
        {64, 64, 256},
    };
    Rng rng(42);
    for (const auto &s : shapes) {
        const Matrix a = randomMatrix(s[0], s[1], rng);
        const Matrix b = randomMatrix(s[1], s[2], rng);
        const Matrix at = randomMatrix(s[1], s[0], rng);
        const Matrix bt = randomMatrix(s[2], s[1], rng);

        EXPECT_LE(maxAbsDiff(a.matmul(b), a.matmulNaive(b)), 1e-12)
            << "AB " << s[0] << "x" << s[1] << "x" << s[2];
        EXPECT_LE(maxAbsDiff(at.transposedMatmul(b),
                             at.transposedMatmulNaive(b)),
                  1e-12)
            << "AtB " << s[0] << "x" << s[1] << "x" << s[2];
        EXPECT_LE(maxAbsDiff(a.matmulTransposed(bt),
                             a.matmulTransposedNaive(bt)),
                  1e-12)
            << "ABt " << s[0] << "x" << s[1] << "x" << s[2];
    }
}

TEST(TiledGemm, PackedAbtMatchesNaive)
{
    // A (m x kk) * B (n x kk)^T packs B^T when kk * n is large
    // enough; cover the packed path with both aligned and ragged
    // tile shapes.
    const std::size_t shapes[][3] = {
        {64, 128, 64},  // kk * n = 8192: aligned tiles, packed
        {37, 130, 33},  // kk * n = 4290: ragged edge tiles, packed
        {8, 4096, 3},   // long-k, narrow output, packed
    };
    Rng rng(7);
    for (const auto &s : shapes) {
        const Matrix a = randomMatrix(s[0], s[1], rng);
        const Matrix b = randomMatrix(s[2], s[1], rng);
        EXPECT_LE(maxAbsDiff(a.matmulTransposed(b),
                             a.matmulTransposedNaive(b)),
                  1e-12)
            << "packed ABt " << s[0] << "x" << s[1] << "x" << s[2];
    }
}

TEST(TiledGemm, AccumulateAddsToExistingContents)
{
    Rng rng(11);
    const Matrix a = randomMatrix(21, 17, rng);
    const Matrix b = randomMatrix(17, 13, rng);
    const Matrix bt = randomMatrix(13, 17, rng);
    const Matrix init = randomMatrix(21, 13, rng);

    Matrix out = init;
    a.matmulInto(b, out, /*accumulate=*/true);
    EXPECT_LE(maxAbsDiff(out, init + a.matmulNaive(b)), 1e-12);

    out = init;
    a.matmulTransposedInto(bt, out, /*accumulate=*/true);
    EXPECT_LE(maxAbsDiff(out, init + a.matmulTransposedNaive(bt)),
              1e-12);

    Matrix out2 = randomMatrix(17, 13, rng);
    const Matrix init2 = out2;
    a.transposedMatmulInto(init, out2, /*accumulate=*/true);
    EXPECT_LE(maxAbsDiff(out2, init2 + a.transposedMatmulNaive(init)),
              1e-12);
}

TEST(TrainFastPath, GradCheckThroughTiledKernels)
{
    // A two-layer network whose forward and backward both route
    // through the tiled matmul kernels, gradchecked.
    Rng rng(19);
    Tensor x = Tensor::constant(randomMatrix(6, 16, rng), "x");
    Tensor w1 = Tensor::param(randomMatrix(16, 24, rng), "w1");
    Tensor b1 = Tensor::param(randomMatrix(1, 24, rng), "b1");
    Tensor w2 = Tensor::param(randomMatrix(24, 1, rng), "w2");

    const auto build = [&] {
        const Tensor h =
            tanhT(addRowBroadcast(matmul(x, w1), b1));
        return meanAll(sigmoid(matmul(h, w2)));
    };

    for (Tensor leaf : {w1, b1, w2}) {
        const double err = gradCheck(build, leaf, 1e-6);
        EXPECT_LT(err, 1e-6) << "leaf " << leaf.name();
    }
}

TEST(TrainFastPath, EncodeCachedMatchesEncodeForEveryKind)
{
    // Every fit reads its encoder inputs (scaled AF rows, token
    // strings, normalized graphs) from a cache built once per fit
    // instead of recomputing them per step. That is safe because
    // encodeCached() over the cache is encode() over the same
    // architectures, bit for bit, in value and in every encoder
    // parameter's gradient.
    Rng data_rng(1234);
    std::vector<nasbench::Architecture> archs;
    for (int i = 0; i < 24; ++i)
        archs.push_back(i % 2 ? nasbench::fbnet().sample(data_rng)
                              : nasbench::nasBench201().sample(data_rng));
    // Out of order and with repeats, like a shuffled pair batch.
    const std::vector<std::size_t> batch = {5,  0, 17, 5, 23,
                                            9, 12, 3,  3, 20};
    std::vector<nasbench::Architecture> batch_archs;
    for (std::size_t i : batch)
        batch_archs.push_back(archs[i]);

    core::EncoderConfig cfg;
    cfg.gcnHidden = 12;
    cfg.lstmHidden = 10;
    cfg.embedDim = 6;
    for (const core::EncodingKind kind :
         {core::EncodingKind::AF, core::EncodingKind::LSTM,
          core::EncodingKind::GCN, core::EncodingKind::LSTM_AF,
          core::EncodingKind::GCN_AF, core::EncodingKind::ALL}) {
        SCOPED_TRACE(core::encodingName(kind));
        Rng rng(77);
        const core::ArchEncoder enc(kind, cfg,
                                    nasbench::DatasetId::Cifar10, archs,
                                    rng);
        const Tensor plain = enc.encode(batch_archs);
        const Tensor cached =
            enc.encodeCached(enc.buildCache(archs), batch);
        EXPECT_TRUE(bitsEqual(plain.value(), cached.value()));

        // A fixed random weight per encoding entry, so every column
        // reaches the loss with its own gradient.
        Rng w_rng(5);
        const Tensor w = Tensor::constant(
            randomMatrix(batch.size(), enc.dim(), w_rng), "w");
        auto grads = [&](const Tensor &encoding) {
            for (Tensor p : enc.params())
                p.zeroGrad();
            backward(sumAll(mul(encoding, w)));
            std::vector<Matrix> out;
            for (const Tensor &p : enc.params())
                out.push_back(p.grad());
            return out;
        };
        if (enc.params().empty())
            continue; // AF alone has no trainable encoder
        const std::vector<Matrix> g_plain = grads(plain);
        const std::vector<Matrix> g_cached = grads(cached);
        ASSERT_EQ(g_plain.size(), g_cached.size());
        for (std::size_t i = 0; i < g_plain.size(); ++i)
            EXPECT_TRUE(bitsEqual(g_plain[i], g_cached[i]))
                << enc.params()[i].name();
    }
}
