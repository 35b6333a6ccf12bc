/**
 * @file
 * Training fast-path tests: the tiled GEMM kernels must match the
 * naive reference kernels on arbitrary (including odd and packed)
 * shapes, gradients must stay correct through the tiled kernels, and
 * a same-seed fit() must be bit-identical with the fast path
 * (encoding cache) on vs off.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "core/hwprnas.h"
#include "core/train_util.h"
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

/** RAII toggle for the process-wide fast-path flag. */
class FastPathGuard
{
  public:
    explicit FastPathGuard(bool enabled)
        : saved_(core::trainFastPath())
    {
        core::setTrainFastPath(enabled);
    }
    ~FastPathGuard() { core::setTrainFastPath(saved_); }

  private:
    bool saved_;
};

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

TEST(TrainFastPath, SameSeedFitIdenticalFastVsSlow)
{
    // The encoding cache is pure reuse: with the fast path off, a
    // same-seed fit must produce the exact same loss trajectory and
    // scores, bit for bit.
    static nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
    Rng rng(1234);
    const auto data = nasbench::SampledDataset::sample(
        {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle, 200,
        140, 40, rng);

    core::HwPrNasConfig mc;
    mc.encoder.gcnHidden = 24;
    mc.encoder.lstmHidden = 24;
    mc.encoder.embedDim = 12;

    core::TrainConfig tc;
    tc.epochs = 3;
    tc.combinerEpochs = 0;

    const auto trainRecs = data.select(data.trainIdx);
    const auto valRecs = data.select(data.valIdx);
    std::vector<nasbench::Architecture> valArchs;
    for (const auto *r : valRecs)
        valArchs.push_back(r->arch);

    std::vector<double> slowLosses, fastLosses;
    std::vector<double> slowScores, fastScores;
    {
        FastPathGuard guard(false);
        core::HwPrNas model(mc, nasbench::DatasetId::Cifar10, 11);
        model.train(trainRecs, valRecs, hw::PlatformId::Pixel3, tc);
        slowLosses = model.valLossHistory();
        slowScores = model.scoreBatch(valArchs);
    }
    {
        FastPathGuard guard(true);
        core::HwPrNas model(mc, nasbench::DatasetId::Cifar10, 11);
        model.train(trainRecs, valRecs, hw::PlatformId::Pixel3, tc);
        fastLosses = model.valLossHistory();
        fastScores = model.scoreBatch(valArchs);
    }

    ASSERT_EQ(slowLosses.size(), fastLosses.size());
    for (std::size_t i = 0; i < slowLosses.size(); ++i)
        EXPECT_EQ(slowLosses[i], fastLosses[i]) << "epoch " << i;
    ASSERT_EQ(slowScores.size(), fastScores.size());
    for (std::size_t i = 0; i < slowScores.size(); ++i)
        EXPECT_EQ(slowScores[i], fastScores[i]) << "arch " << i;
}
