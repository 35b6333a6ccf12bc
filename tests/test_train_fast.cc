/**
 * @file
 * Training fast-path tests: the tiled GEMM kernels must match the
 * naive reference kernels on arbitrary (including odd and packed)
 * shapes, gradients must stay correct through the tiled kernels, the
 * fit-time encoding cache must encode, and backpropagate, exactly
 * like the plain encoder for every encoding kind, and the one fit
 * loop must early-stop and restore as documented and give every
 * family the same model at any thread count.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/brpnas.h"
#include "baselines/gates.h"
#include "common/matrix.h"
#include "common/obs.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "core/dominance.h"
#include "core/encoding.h"
#include "core/hwprnas.h"
#include "core/scalable.h"
#include "core/train_util.h"
#include "nasbench/space.h"
#include "nn/gradcheck.h"
#include "nn/loss.h"
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

namespace
{

/** 120 measured architectures: 80 train, 24 validation. */
const nasbench::SampledDataset &
fitData()
{
    static const nasbench::SampledDataset data = [] {
        static nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
        Rng rng(4321);
        return nasbench::SampledDataset::sample(
            {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle, 120,
            80, 24, rng);
    }();
    return data;
}

core::EncoderConfig
tinyFitEncoder()
{
    core::EncoderConfig cfg;
    cfg.gcnHidden = 12;
    cfg.lstmHidden = 10;
    cfg.embedDim = 6;
    return cfg;
}

/** save() bytes of the model @p fit returns, fitted at @p threads. */
std::string
fittedBytes(std::size_t threads,
            const std::function<std::unique_ptr<core::Surrogate>()> &fit)
{
    const std::size_t before = ExecContext::global().threads();
    ExecContext::setGlobalThreads(threads);
    const auto model = fit();
    ExecContext::setGlobalThreads(before);
    const std::string path = ::testing::TempDir() + "fit_loop_bytes.ckpt";
    EXPECT_TRUE(model->save(path));
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

} // namespace

TEST(FitLoop, EarlyStopRestoresTheBestEpoch)
{
    // One parameter pulled toward 3 by every step, so each epoch
    // leaves a different value; the validation losses are scripted.
    // Epochs 0, 1 and 3 improve. Epoch 2 and epoch 5 undercut the best
    // by less than 1e-9, which is no improvement, so epochs 4-6 are
    // the three without one and patience 3 stops the fit after epoch 6.
    const std::vector<double> script = {5.0, 4.0,       4.0 - 1e-10,
                                        3.0, 3.5,       3.0 - 5e-10,
                                        3.2, 1.0,       1.0};
    nn::Tensor w = nn::Tensor::param(Matrix(1, 1, 0.0), "w");
    std::vector<double> w_after;
    std::size_t epoch_starts = 0;

    const bool metrics_were_on = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    obs::Registry &registry = obs::Registry::global();
    const core::FitNames names = {
        "fit_loop_test.epoch", "fit_loop_test.epoch_us",
        "fit_loop_test.val_loss", "fit_loop_test.early_stop"};
    const std::uint64_t epochs_before =
        registry.histogram(names.epochUs).count();
    const std::uint64_t stops_before = registry.counterValue(names.earlyStop);

    Rng rng(3);
    core::FitLoop loop({w}, 4, 0.1, 2, rng, 0.0);
    const std::vector<double> history = loop.fit(
        names, 20, 3,
        [&](const std::vector<std::size_t> &) {
            return nn::mseLoss(w, {3.0});
        },
        [&] {
            EXPECT_EQ(epoch_starts, w_after.size() + 1);
            w_after.push_back(w.value()(0, 0));
            return script[w_after.size() - 1];
        },
        [&] { ++epoch_starts; });

    const std::uint64_t epochs_run =
        registry.histogram(names.epochUs).count() - epochs_before;
    const std::uint64_t stops =
        registry.counterValue(names.earlyStop) - stops_before;
    obs::setMetricsEnabled(metrics_were_on);

    ASSERT_EQ(history.size(), 7u);
    EXPECT_EQ(history, std::vector<double>(script.begin(),
                                           script.begin() + 7));
    EXPECT_EQ(w_after.size(), 7u);
    EXPECT_EQ(epochs_run, 7u);
    EXPECT_EQ(stops, 1u);
    EXPECT_EQ(registry.gaugeValue(names.valLoss), script[6]);
    // Restored to the value after epoch 3, not the last epoch's.
    EXPECT_NE(w_after[3], w_after[6]);
    EXPECT_EQ(w.value()(0, 0), w_after[3]);
}

TEST(FitLoop, ScheduleSpansOnlyTheBatchesThatRun)
{
    // 129 items in batches of 128 run one batch per epoch (the lone
    // trailing item is dropped), so four epochs are four steps and the
    // cosine schedule must span exactly those. A loss with zero
    // gradient leaves only AdamW's decoupled decay, which scales w by
    // (1 - lr_t * wd) per step; validation improves every epoch, so
    // the last epoch's w is kept.
    const double lr = 0.5, wd = 0.25;
    nn::Tensor w = nn::Tensor::param(Matrix(1, 1, 1.0), "w");
    const core::FitNames names = {
        "fit_schedule_test.epoch", "fit_schedule_test.epoch_us",
        "fit_schedule_test.val_loss", "fit_schedule_test.early_stop"};
    Rng rng(4);
    core::FitLoop loop({w}, 129, lr, 128, rng, wd);
    double val = 10.0;
    const std::vector<double> history = loop.fit(
        names, 4, 1,
        [&](const std::vector<std::size_t> &) {
            return nn::scale(w, 0.0);
        },
        [&] { return val -= 1.0; });
    ASSERT_EQ(history.size(), 4u);

    const nn::CosineAnnealing schedule(lr, 4);
    double expected = 1.0;
    for (std::size_t t = 0; t < 4; ++t)
        expected *= 1.0 - schedule.at(t) * wd;
    EXPECT_EQ(w.value()(0, 0), expected);
}

TEST(FitLoopDeathTest, ZeroBatchSizeIsAnError)
{
    // The schedule length divides by the batch size; a zero must be a
    // clear error, not a floating point exception. The fit runs pool
    // work before it fails, which a forked child cannot do.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto &data = fitData();
    core::HwPrNasConfig mc;
    mc.encoder = tinyFitEncoder();
    core::HwPrNas model(mc, nasbench::DatasetId::Cifar10, 5);
    core::TrainConfig tc;
    tc.batchSize = 0;
    EXPECT_DEATH(model.train(data.select(data.trainIdx),
                             data.select(data.valIdx),
                             hw::PlatformId::EdgeGpu, tc),
                 "batch size must be positive");
    Rng rng(1);
    nn::Tensor w = nn::Tensor::param(Matrix(1, 1, 0.0), "w");
    EXPECT_DEATH(core::FitLoop({w}, 4, 0.1, 0, rng),
                 "batch size must be positive");
}

TEST(FitLoop, EveryFitIsThreadCountInvariant)
{
    // Each training entry point fitted at 1 and at 4 threads must
    // save the same bytes: the GEMMs, the fused LSTM and the GCN fan
    // out over the pool, and none of it may change a model.
    const auto &data = fitData();
    const auto tr = data.select(data.trainIdx);
    const auto va = data.select(data.valIdx);
    const hw::PlatformId gpu = hw::PlatformId::EdgeGpu;
    const core::EncoderConfig enc = tinyFitEncoder();
    core::TrainConfig tc;
    tc.epochs = 3;
    tc.patience = 2;
    tc.combinerEpochs = 2;
    tc.learningRate = 2e-3;
    tc.batchSize = 32;
    core::PredictorTrainConfig pc;
    pc.epochs = 3;
    pc.batchSize = 32;

    core::HwPrNasConfig hc;
    hc.encoder = enc;
    core::ScalableConfig sc;
    sc.encoder = enc;
    // Dominance trains on 40 x 39 ordered pairs of the first 40
    // records: resampled above the cap, all of them below it.
    const std::vector<const nasbench::ArchRecord *> tr40(tr.begin(),
                                                         tr.begin() + 40);
    core::TrainConfig pairs_tc = tc;
    pairs_tc.batchSize = 128;
    auto dominance = [&](std::size_t max_pairs) {
        core::DominanceConfig dc;
        dc.encoder = enc;
        dc.maxPairsPerEpoch = max_pairs;
        auto m = std::make_unique<core::DominanceSurrogate>(
            dc, nasbench::DatasetId::Cifar10, 9);
        m->train(tr40, va, gpu, pairs_tc);
        return m;
    };
    using Fit = std::function<std::unique_ptr<core::Surrogate>()>;
    const std::vector<std::pair<const char *, Fit>> fits = {
        {"HW-PR-NAS train",
         [&] {
             auto m = std::make_unique<core::HwPrNas>(
                 hc, nasbench::DatasetId::Cifar10, 6);
             m->train(tr, va, gpu, tc);
             return m;
         }},
        {"HW-PR-NAS trainMultiPlatform",
         [&] {
             auto m = std::make_unique<core::HwPrNas>(
                 hc, nasbench::DatasetId::Cifar10, 7);
             m->trainMultiPlatform(tr, va, {gpu, hw::PlatformId::Pixel3},
                                   tc);
             return m;
         }},
        {"scalable train + addEnergyObjective",
         [&] {
             auto m = std::make_unique<core::ScalableHwPrNas>(
                 sc, nasbench::DatasetId::Cifar10, 8);
             m->train(tr, va, gpu, tc);
             m->addEnergyObjective(tr, 2, 1e-3, 32);
             return m;
         }},
        {"dominance, resampled pairs", [&] { return dominance(500); }},
        {"dominance, every pair", [&] { return dominance(20000); }},
        {"BRP-NAS",
         [&] {
             auto m = std::make_unique<baselines::BrpNas>(
                 enc, nasbench::DatasetId::Cifar10, 10);
             m->train(tr, va, gpu, pc);
             return m;
         }},
        {"GATES",
         [&] {
             auto m = std::make_unique<baselines::Gates>(
                 enc, nasbench::DatasetId::Cifar10, 11);
             m->train(tr, va, gpu, pc);
             return m;
         }},
    };
    for (const auto &[what, fit] : fits) {
        SCOPED_TRACE(what);
        const std::string serial = fittedBytes(1, fit);
        EXPECT_FALSE(serial.empty());
        EXPECT_TRUE(serial == fittedBytes(4, fit));
    }
}
