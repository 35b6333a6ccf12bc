/**
 * @file
 * Tests for the batched execution stack introduced with the unified
 * Surrogate interface: the thread pool's determinism contract, the
 * raw-matrix batched inference paths (MLP / LSTM / GCN / GBDT) against
 * their per-sample equivalents, every surrogate family behind
 * core::Surrogate, and thread-count invariance of a full MOEA search.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "baselines/brpnas.h"
#include "baselines/gates.h"
#include "baselines/lut.h"
#include "common/obs.h"
#include "common/threadpool.h"
#include "core/dominance.h"
#include "core/hwprnas.h"
#include "core/scalable.h"
#include "core/surrogate.h"
#include "gbdt/gbdt.h"
#include "nn/gcn.h"
#include "nn/layers.h"
#include "nn/lstm.h"
#include "pareto/pareto.h"
#include "search/moea.h"

using namespace hwpr;

// ---------------------------------------------------------------------
// ThreadPool / ExecContext
// ---------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    pool.parallelFor(0, hits.size(), 16,
                     [&](std::size_t b, std::size_t e) {
                         for (std::size_t i = b; i < e; ++i)
                             hits[i].fetch_add(1);
                     });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ChunkLayoutIndependentOfThreadCount)
{
    auto chunksOf = [](std::size_t threads) {
        ThreadPool pool(threads);
        std::mutex mu;
        std::vector<std::pair<std::size_t, std::size_t>> chunks;
        pool.parallelFor(3, 101, 10,
                         [&](std::size_t b, std::size_t e) {
                             std::lock_guard<std::mutex> lock(mu);
                             chunks.emplace_back(b, e);
                         });
        std::sort(chunks.begin(), chunks.end());
        return chunks;
    };
    // Any pool that actually fans out must produce the same chunk
    // list; a single-thread pool degenerates to one inline call over
    // the full range, which covers the same indices.
    const auto two = chunksOf(2);
    const auto four = chunksOf(4);
    ASSERT_EQ(two.size(), four.size());
    for (std::size_t i = 0; i < two.size(); ++i) {
        EXPECT_EQ(two[i].first, four[i].first);
        EXPECT_EQ(two[i].second, four[i].second);
    }
    const auto one = chunksOf(1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].first, 3u);
    EXPECT_EQ(one[0].second, 101u);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock)
{
    ThreadPool pool(4);
    std::atomic<int> total{0};
    pool.parallelFor(0, 8, 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            // A pool task calling back into the pool must not wait on
            // its own queue; the inner range runs inline.
            pool.parallelFor(0, 4, 1,
                             [&](std::size_t ib, std::size_t ie) {
                                 total.fetch_add(int(ie - ib));
                             });
    });
    EXPECT_EQ(total.load(), 32);
}

TEST(ExecContextTest, GlobalThreadsOverride)
{
    const std::size_t before = ExecContext::global().threads();
    ExecContext::setGlobalThreads(3);
    EXPECT_EQ(ExecContext::global().threads(), 3u);
    EXPECT_NE(ExecContext::global().pool, nullptr);
    ExecContext::setGlobalThreads(before);
    EXPECT_EQ(ExecContext::global().threads(), before);
}

TEST(ExecContextTest, WithSeedKeepsPool)
{
    ExecContext &g = ExecContext::global();
    const ExecContext derived = g.withSeed(42);
    EXPECT_EQ(derived.pool, g.pool);
    EXPECT_EQ(derived.seed, 42u);
}

// ---------------------------------------------------------------------
// Batched raw inference vs per-sample / tensor paths
// ---------------------------------------------------------------------

namespace
{

/** Max |a - b| over two equally shaped matrices. */
double
maxAbsDiff(const Matrix &a, const Matrix &b)
{
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    double m = 0.0;
    for (std::size_t i = 0; i < a.raw().size(); ++i)
        m = std::max(m, std::abs(a.raw()[i] - b.raw()[i]));
    return m;
}

} // namespace

TEST(BatchParity, MlpBatchedMatchesTensorAndSingleRows)
{
    Rng rng(21);
    nn::MlpConfig cfg;
    cfg.inDim = 6;
    cfg.hidden = {10, 7};
    cfg.outDim = 3;
    cfg.activation = nn::Activation::ReLU;
    nn::Mlp mlp(cfg, rng);

    Matrix x(33, 6);
    Rng data_rng(22);
    for (auto &v : x.raw())
        v = data_rng.uniform(-2, 2);

    nn::PredictScratch scratch;
    Matrix batched(x.rows(), cfg.outDim);
    mlp.predictBatchInto(x, scratch, batched);
    const Matrix tensor = mlp.forward(nn::Tensor::constant(x)).value();
    EXPECT_LE(maxAbsDiff(batched, tensor), 0.0); // bit-for-bit

    for (std::size_t r = 0; r < x.rows(); ++r) {
        Matrix row(1, x.cols());
        for (std::size_t c = 0; c < x.cols(); ++c)
            row(0, c) = x(r, c);
        scratch.reset();
        Matrix single(1, cfg.outDim);
        mlp.predictBatchInto(row, scratch, single);
        for (std::size_t c = 0; c < batched.cols(); ++c)
            EXPECT_NEAR(single(0, c), batched(r, c), 1e-9);
    }
}

TEST(BatchParity, LstmEncodeBatchMatchesTensorAndSingles)
{
    Rng rng(23);
    nn::LstmConfig cfg;
    cfg.vocab = 9;
    cfg.embedDim = 8;
    cfg.hidden = 11;
    cfg.layers = 2;
    nn::LstmEncoder lstm(cfg, rng);

    Rng data_rng(24);
    std::vector<std::vector<std::size_t>> seqs(17);
    for (auto &s : seqs) {
        s.resize(6);
        for (auto &t : s)
            t = data_rng.index(cfg.vocab);
    }

    nn::PredictScratch scratch;
    const Matrix batched = lstm.encodeBatchInto(seqs, scratch);
    const Matrix tensor = lstm.forward(seqs).value();
    EXPECT_LE(maxAbsDiff(batched, tensor), 0.0);

    for (std::size_t r = 0; r < seqs.size(); ++r) {
        scratch.reset();
        const Matrix single = lstm.encodeBatchInto({seqs[r]}, scratch);
        for (std::size_t c = 0; c < batched.cols(); ++c)
            EXPECT_NEAR(single(0, c), batched(r, c), 1e-9);
    }
}

namespace
{

nn::GraphInput
randomGraph(Rng &rng, std::size_t feat_dim)
{
    nn::GraphInput g;
    const std::size_t v = 3 + rng.index(4);
    Matrix raw(v, v);
    for (std::size_t i = 0; i + 1 < v; ++i)
        raw(i, i + 1) = raw(i + 1, i) = 1.0; // chain backbone
    if (v > 3 && rng.uniform() < 0.5)
        raw(0, v - 1) = raw(v - 1, 0) = 1.0;
    g.adjacency = nn::GcnEncoder::normalizeAdjacency(raw);
    g.features = Matrix(v, feat_dim);
    for (std::size_t i = 0; i < v; ++i)
        g.features(i, rng.index(feat_dim)) = 1.0;
    g.globalNode = v - 1;
    return g;
}

} // namespace

TEST(BatchParity, GcnEncodeBatchMatchesTensorAndSingles)
{
    Rng rng(25);
    nn::GcnConfig cfg;
    cfg.featDim = 5;
    cfg.hidden = 9;
    cfg.layers = 2;
    nn::GcnEncoder gcn(cfg, rng);

    Rng data_rng(26);
    std::vector<nn::GraphInput> graphs;
    for (int i = 0; i < 13; ++i)
        graphs.push_back(randomGraph(data_rng, cfg.featDim));

    nn::PredictScratch scratch;
    const Matrix batched = gcn.encodeBatchInto(graphs, scratch);
    const Matrix tensor = gcn.forward(graphs).value();
    EXPECT_LE(maxAbsDiff(batched, tensor), 0.0);

    for (std::size_t r = 0; r < graphs.size(); ++r) {
        scratch.reset();
        const Matrix single = gcn.encodeBatchInto({graphs[r]}, scratch);
        for (std::size_t c = 0; c < batched.cols(); ++c)
            EXPECT_NEAR(single(0, c), batched(r, c), 1e-9);
    }
}

TEST(BatchParity, GcnMeanPoolEncodeBatchMatchesTensor)
{
    Rng rng(27);
    nn::GcnConfig cfg;
    cfg.featDim = 4;
    cfg.hidden = 6;
    cfg.layers = 1;
    cfg.useGlobalNode = false;
    nn::GcnEncoder gcn(cfg, rng);

    Rng data_rng(28);
    std::vector<nn::GraphInput> graphs;
    for (int i = 0; i < 5; ++i)
        graphs.push_back(randomGraph(data_rng, cfg.featDim));
    nn::PredictScratch scratch;
    EXPECT_LE(maxAbsDiff(gcn.encodeBatchInto(graphs, scratch),
                         gcn.forward(graphs).value()),
              0.0);
}

TEST(BatchParity, GbdtPredictBatchMatchesRowsAtAnyThreadCount)
{
    Rng data_rng(29);
    Matrix x(120, 4);
    std::vector<double> y(120);
    for (std::size_t i = 0; i < x.rows(); ++i) {
        for (std::size_t c = 0; c < x.cols(); ++c)
            x(i, c) = data_rng.uniform(-1, 1);
        y[i] = x(i, 0) * 2.0 - x(i, 1) + 0.3 * x(i, 2) * x(i, 3);
    }
    gbdt::GbdtConfig cfg = gbdt::xgboostConfig();
    cfg.rounds = 30;
    gbdt::Gbdt model(cfg);
    Rng rng(30);
    model.fit(x, y, rng);

    const std::size_t before = ExecContext::global().threads();
    ExecContext::setGlobalThreads(1);
    const Matrix serial = model.predictBatch(x);
    ExecContext::setGlobalThreads(4);
    const Matrix parallel = model.predictBatch(x);
    ExecContext::setGlobalThreads(before);

    EXPECT_LE(maxAbsDiff(serial, parallel), 0.0);
    for (std::size_t r = 0; r < x.rows(); ++r)
        EXPECT_NEAR(serial(r, 0), model.predictRow(x, r), 1e-9);
}

// ---------------------------------------------------------------------
// Surrogate families behind the unified interface
// ---------------------------------------------------------------------

namespace
{

const nasbench::SampledDataset &
tinyData()
{
    static const nasbench::SampledDataset data = [] {
        static nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
        Rng rng(88);
        return nasbench::SampledDataset::sample(
            {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle,
            300, 200, 50, rng);
    }();
    return data;
}

core::SurrogateDataset
tinySurrogateData(hw::PlatformId platform = hw::PlatformId::EdgeGpu)
{
    const auto &data = tinyData();
    core::SurrogateDataset d;
    d.train = data.select(data.trainIdx);
    d.val = data.select(data.valIdx);
    d.platform = platform;
    return d;
}

std::vector<nasbench::Architecture>
testArchs()
{
    const auto &data = tinyData();
    std::vector<nasbench::Architecture> out;
    for (const auto *r : data.select(data.testIdx))
        out.push_back(r->arch);
    return out;
}

core::EncoderConfig
tinyEncoder()
{
    core::EncoderConfig cfg;
    cfg.gcnHidden = 16;
    cfg.lstmHidden = 16;
    cfg.embedDim = 8;
    return cfg;
}

core::TrainConfig
quickFit()
{
    core::TrainConfig cfg;
    cfg.epochs = 6;
    cfg.combinerEpochs = 2;
    cfg.learningRate = 2e-3;
    return cfg;
}

/** Batch result vs the same surrogate queried one arch at a time:
 *  the contract is bitwise, whatever the batch composition. */
void
expectBatchSingleParity(const core::Surrogate &model,
                        const std::vector<nasbench::Architecture> &archs)
{
    core::BatchPlan plan;
    const Matrix &batch = model.predictBatch(archs, plan);
    ASSERT_EQ(batch.rows(), archs.size());
    ASSERT_EQ(batch.cols(), model.outputCols());
    core::BatchPlan one;
    for (std::size_t i = 0; i < archs.size(); ++i) {
        const Matrix &row = model.predictBatch(
            std::span<const nasbench::Architecture>(&archs[i], 1), one);
        for (std::size_t c = 0; c < batch.cols(); ++c)
            EXPECT_EQ(row(0, c), batch(i, c)) << "row " << i;
    }
}

/** Batch results at 1 thread vs 4 threads must be bit-identical. */
void
expectThreadCountInvariance(
    const core::Surrogate &model,
    const std::vector<nasbench::Architecture> &archs)
{
    const std::size_t before = ExecContext::global().threads();
    ExecContext::setGlobalThreads(1);
    const Matrix serial = model.predict(archs);
    ExecContext::setGlobalThreads(4);
    const Matrix parallel = model.predict(archs);
    ExecContext::setGlobalThreads(before);
    EXPECT_EQ(serial.raw(), parallel.raw());
}

} // namespace

TEST(SurrogateIface, HwPrNasFitScoreAndObjectives)
{
    core::HwPrNasConfig mc;
    mc.encoder = tinyEncoder();
    core::HwPrNas model(mc, nasbench::DatasetId::Cifar10, 1);
    model.setFitConfig(quickFit());
    ExecContext ctx = ExecContext::global().withSeed(7);
    model.fit(tinySurrogateData(), ctx);

    EXPECT_EQ(model.name(), "HW-PR-NAS");
    EXPECT_EQ(model.evalKind(), search::EvalKind::ParetoScore);
    EXPECT_EQ(model.numObjectives(), 2u);

    const auto archs = testArchs();
    expectBatchSingleParity(model, archs);
    expectThreadCountInvariance(model, archs);

    // Branch outputs carry physical units: error % below 100 and a
    // positive latency.
    const auto acc = model.predictAccuracy(archs);
    const auto lat = model.predictLatency(archs);
    for (std::size_t i = 0; i < archs.size(); ++i) {
        EXPECT_GT(lat[i], 0.0);
        EXPECT_LT(100.0 - acc[i], 100.0);
    }
}

TEST(SurrogateIface, HwPrNasFitSameSeedIsIdentical)
{
    const auto archs = testArchs();
    std::vector<double> runs[2];
    for (int k = 0; k < 2; ++k) {
        core::HwPrNasConfig mc;
        mc.encoder = tinyEncoder();
        core::HwPrNas model(mc, nasbench::DatasetId::Cifar10,
                            std::uint64_t(900 + k));
        model.setFitConfig(quickFit());
        ExecContext ctx = ExecContext::global().withSeed(7);
        model.fit(tinySurrogateData(), ctx);
        runs[k] = model.predict(archs).raw();
    }
    // fit() reseeds from the context, so the constructor seeds (which
    // differ) must not matter: both models are the same model.
    for (std::size_t i = 0; i < runs[0].size(); ++i)
        EXPECT_DOUBLE_EQ(runs[0][i], runs[1][i]);
}

TEST(SurrogateIface, ScalableScoreBatchParity)
{
    core::ScalableConfig sc;
    sc.encoder = tinyEncoder();
    core::ScalableHwPrNas model(sc, nasbench::DatasetId::Cifar10, 2);
    model.setFitConfig(quickFit());
    ExecContext ctx = ExecContext::global().withSeed(9);
    model.fit(tinySurrogateData(), ctx);

    EXPECT_EQ(model.evalKind(), search::EvalKind::ParetoScore);
    EXPECT_EQ(model.numObjectives(), 2u); // acc + lat (no energy yet)
    const auto archs = testArchs();
    expectBatchSingleParity(model, archs);

    // A score family emits one column whatever it ranks over, and
    // the one-shot predict() is predictBatch() behind a local plan.
    EXPECT_EQ(model.outputCols(), 1u);
    core::BatchPlan plan;
    const Matrix &batch = model.predictBatch(archs, plan);
    EXPECT_EQ(model.predict(archs).raw(), batch.raw());
}

TEST(SurrogateIface, BrpNasObjectivesParity)
{
    const auto &data = tinyData();
    baselines::BrpNas model(tinyEncoder(),
                            nasbench::DatasetId::Cifar10, 3);
    core::PredictorTrainConfig cfg;
    cfg.epochs = 8;
    cfg.lr = 2e-3;
    model.train(data.select(data.trainIdx), data.select(data.valIdx),
                hw::PlatformId::EdgeGpu, cfg);

    const core::Surrogate &iface = model;
    EXPECT_EQ(iface.evalKind(), search::EvalKind::ObjectiveVector);
    EXPECT_EQ(iface.numObjectives(), 2u);
    const auto archs = testArchs();
    expectBatchSingleParity(iface, archs);

    // Column semantics: (100 - acc%, latency ms).
    const Matrix obj = iface.predict(archs);
    const auto acc = model.predictAccuracy(archs);
    const auto lat = model.predictLatency(archs);
    for (std::size_t i = 0; i < archs.size(); ++i) {
        EXPECT_DOUBLE_EQ(obj(i, 0), 100.0 - acc[i]);
        EXPECT_DOUBLE_EQ(obj(i, 1), lat[i]);
    }
}

TEST(SurrogateIface, GatesObjectivesParity)
{
    const auto &data = tinyData();
    baselines::Gates model(tinyEncoder(),
                           nasbench::DatasetId::Cifar10, 4);
    core::PredictorTrainConfig cfg;
    cfg.epochs = 8;
    cfg.lr = 2e-3;
    model.train(data.select(data.trainIdx), data.select(data.valIdx),
                hw::PlatformId::EdgeGpu, cfg);

    const core::Surrogate &iface = model;
    const auto archs = testArchs();
    expectBatchSingleParity(iface, archs);

    // Column semantics: (-accuracy score, latency score).
    const Matrix obj = iface.predict(archs);
    const auto acc = model.predictAccuracy(archs);
    const auto lat = model.predictLatency(archs);
    for (std::size_t i = 0; i < archs.size(); ++i) {
        EXPECT_DOUBLE_EQ(obj(i, 0), -acc[i]);
        EXPECT_DOUBLE_EQ(obj(i, 1), lat[i]);
    }
}

TEST(SurrogateIface, LutFitAndObjectivesParity)
{
    baselines::LatencyLut lut(nasbench::DatasetId::Cifar10,
                              hw::PlatformId::EdgeGpu);
    ExecContext ctx = ExecContext::global().withSeed(0);
    core::Surrogate &iface = lut;
    iface.fit(tinySurrogateData(), ctx);
    EXPECT_GT(lut.numEntries(), 0u);
    EXPECT_EQ(iface.numObjectives(), 1u);

    const auto archs = testArchs();
    expectBatchSingleParity(iface, archs);
    const Matrix obj = iface.predict(archs);
    for (std::size_t i = 0; i < archs.size(); ++i)
        EXPECT_DOUBLE_EQ(obj(i, 0), lut.estimateMs(archs[i]));

    // The rank path memoizes whole-architecture estimates; cold and
    // warm it returns the predict values bit for bit.
    for (int pass = 0; pass < 2; ++pass) {
        core::BatchPlan plan;
        EXPECT_EQ(iface.rankBatch(archs, plan).raw(), obj.raw());
    }
}

TEST(BatchPlanTest, EmptyBatchIsAWellDefinedNoOp)
{
    // The serving micro-batcher's deadline flush can fire with zero
    // queued rows; the plan must absorb that without touching the
    // pool or invoking the chunk body.
    core::BatchPlan plan;
    Matrix &out = plan.prepare(0, 3);
    EXPECT_EQ(out.rows(), 0u);
    EXPECT_EQ(out.cols(), 3u);
    EXPECT_EQ(plan.size(), 0u);
    std::atomic<int> calls{0};
    plan.forEachChunk("test", [&](nn::PredictScratch &, std::size_t,
                                  std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
    // Grain stays a pure function of n — no div-by-zero in the
    // ceil(n/16) math.
    EXPECT_EQ(core::BatchPlan::chunkGrain(0), 16u);
}

TEST(BatchPlanTest, ScratchStaysBoundedAcrossBatchShapes)
{
    // A long-lived plan (the server's, a search's) sees ever new batch
    // sizes, rank-cache miss counts and GCN node totals. Its scratch
    // must settle at the largest buffer each acquisition position has
    // asked for, not grow with every new shape.
    core::HwPrNasConfig mc;
    mc.encoder = tinyEncoder();
    core::HwPrNas model(mc, nasbench::DatasetId::Cifar10, 5);
    model.setFitConfig(quickFit());
    ExecContext ctx = ExecContext::global().withSeed(7);
    model.fit(tinySurrogateData(), ctx);

    const bool metrics_were_on = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    const obs::Gauge &scratch_bytes =
        obs::Registry::global().gauge("predict.plan.scratch_bytes");
    constexpr std::size_t kBatches = 200;
    Rng rng(2026);
    std::set<std::pair<int, std::vector<int>>> seen;
    core::BatchPlan plan;
    double early = 0.0;
    for (std::size_t b = 0; b < kBatches; ++b) {
        // Never-repeating architectures: every rank pass misses.
        std::vector<nasbench::Architecture> batch(1 + rng.index(300));
        for (nasbench::Architecture &arch : batch)
            do
                arch = (rng.bernoulli(0.25) ? nasbench::nasBench201()
                                            : nasbench::fbnet())
                           .sample(rng);
            while (!seen.emplace(int(arch.space), arch.genome).second);
        if (b % 2 == 0)
            model.predictBatch(batch, plan);
        else
            model.rankBatch(batch, plan);
        if (b + 1 == kBatches / 10)
            early = scratch_bytes.value();
    }
    const double last = scratch_bytes.value();
    obs::setMetricsEnabled(metrics_were_on);
    RecordProperty("scratch_bytes_early", std::to_string(early));
    RecordProperty("scratch_bytes_last", std::to_string(last));
    ASSERT_GT(early, 0.0);
    EXPECT_LE(last, 1.5 * early)
        << "scratch grew from " << early << " to " << last << " bytes";
}

TEST(SurrogateIface, EmptyBatchNoOpAcrossAllFamilies)
{
    // Every family must treat an empty span as a no-op returning
    // empty results; the daemon's flush-on-deadline path legitimately
    // produces them. Untrained models suffice — zero rows never reach
    // the weights.
    core::HwPrNasConfig mc;
    mc.encoder = tinyEncoder();
    core::HwPrNas hwpr(mc, nasbench::DatasetId::Cifar10, 41);
    core::ScalableConfig sc;
    sc.encoder = tinyEncoder();
    core::ScalableHwPrNas scalable(sc, nasbench::DatasetId::Cifar10,
                                   42);
    baselines::BrpNas brp(tinyEncoder(), nasbench::DatasetId::Cifar10,
                          43);
    baselines::Gates gates(tinyEncoder(),
                           nasbench::DatasetId::Cifar10, 44);
    baselines::LatencyLut lut(nasbench::DatasetId::Cifar10,
                              hw::PlatformId::EdgeGpu);
    core::DominanceConfig dc;
    dc.encoder = tinyEncoder();
    core::DominanceSurrogate dominance(dc, nasbench::DatasetId::Cifar10,
                                       45);

    const std::vector<const core::Surrogate *> families = {
        &hwpr, &scalable, &brp, &gates, &lut, &dominance};
    const std::span<const nasbench::Architecture> empty;
    for (const core::Surrogate *model : families) {
        SCOPED_TRACE(model->name());
        core::BatchPlan plan;
        const Matrix &pred = model->predictBatch(empty, plan);
        EXPECT_EQ(pred.rows(), 0u);
        EXPECT_GE(pred.cols(), 1u);
        core::BatchPlan rank_plan;
        const Matrix &ranked = model->rankBatch(empty, rank_plan);
        EXPECT_EQ(ranked.rows(), 0u);
        EXPECT_EQ(ranked.cols(), model->outputCols());
        EXPECT_EQ(model->predict(empty).rows(), 0u);
    }

    // The evaluator wrapper (the path search and serve actually
    // drive) returns an empty fitness set, trained or not.
    core::SurrogateEvaluator eval(hwpr);
    EXPECT_TRUE(eval.evaluate({}).empty());
}

TEST(SurrogateIfaceDeathTest, UntrainedPredictionFailsWithOneMessage)
{
    // The base class owns the trained check, so every family fails
    // the same way on both entry points. (The LUT profiles on demand
    // and is always ready.)
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    core::HwPrNasConfig mc;
    mc.encoder = tinyEncoder();
    core::HwPrNas hwpr(mc, nasbench::DatasetId::Cifar10, 51);
    core::ScalableConfig sc;
    sc.encoder = tinyEncoder();
    core::ScalableHwPrNas scalable(sc, nasbench::DatasetId::Cifar10,
                                   52);
    baselines::BrpNas brp(tinyEncoder(), nasbench::DatasetId::Cifar10,
                          53);
    baselines::Gates gates(tinyEncoder(),
                           nasbench::DatasetId::Cifar10, 54);
    core::DominanceConfig dc;
    dc.encoder = tinyEncoder();
    core::DominanceSurrogate dominance(dc, nasbench::DatasetId::Cifar10,
                                       55);

    Rng rng(56);
    const std::vector<nasbench::Architecture> one = {
        nasbench::nasBench201().sample(rng)};
    for (const core::Surrogate *model :
         {static_cast<const core::Surrogate *>(&hwpr),
          static_cast<const core::Surrogate *>(&scalable),
          static_cast<const core::Surrogate *>(&brp),
          static_cast<const core::Surrogate *>(&gates),
          static_cast<const core::Surrogate *>(&dominance)}) {
        SCOPED_TRACE(model->name());
        EXPECT_FALSE(model->trained());
        core::BatchPlan plan;
        EXPECT_DEATH(model->predictBatch(one, plan),
                     "prediction before train\\(\\)");
        EXPECT_DEATH(model->rankBatch(one, plan),
                     "prediction before train\\(\\)");
    }
}

TEST(SurrogateIface, ConcurrentRankFreezeMatchesSerial)
{
    // rankBatch() is const and freezes its quantized state lazily;
    // concurrent first calls race that freeze. Each family is fresh
    // from fitting, four threads rank at once, and every result must
    // equal a later serial call bit for bit.
    core::TrainConfig quick = quickFit();
    quick.epochs = 2;
    quick.combinerEpochs = 1;
    core::PredictorTrainConfig pquick;
    pquick.epochs = 2;
    const auto data = tinySurrogateData();
    ExecContext ctx = ExecContext::global().withSeed(57);

    core::HwPrNasConfig mc;
    mc.encoder = tinyEncoder();
    core::HwPrNas hwpr(mc, nasbench::DatasetId::Cifar10, 58);
    hwpr.setFitConfig(quick);
    hwpr.fit(data, ctx);
    core::ScalableConfig sc;
    sc.encoder = tinyEncoder();
    core::ScalableHwPrNas scalable(sc, nasbench::DatasetId::Cifar10,
                                   59);
    scalable.setFitConfig(quick);
    scalable.fit(data, ctx);
    baselines::BrpNas brp(tinyEncoder(), nasbench::DatasetId::Cifar10,
                          60);
    brp.train(data.train, data.val, data.platform, pquick);
    baselines::Gates gates(tinyEncoder(),
                           nasbench::DatasetId::Cifar10, 61);
    gates.train(data.train, data.val, data.platform, pquick);
    core::DominanceConfig dc;
    dc.encoder = tinyEncoder();
    dc.referenceSize = 16;
    dc.maxPairsPerEpoch = 2000;
    core::DominanceSurrogate dominance(dc, nasbench::DatasetId::Cifar10,
                                       62);
    dominance.setFitConfig(quick);
    dominance.fit(data, ctx);

    const auto archs = testArchs();
    for (const core::Surrogate *model :
         {static_cast<const core::Surrogate *>(&hwpr),
          static_cast<const core::Surrogate *>(&scalable),
          static_cast<const core::Surrogate *>(&brp),
          static_cast<const core::Surrogate *>(&gates),
          static_cast<const core::Surrogate *>(&dominance)}) {
        SCOPED_TRACE(model->name());
        constexpr int kThreads = 4;
        std::vector<Matrix> results(kThreads);
        std::atomic<int> ready{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                ready.fetch_add(1);
                while (ready.load() < kThreads) {
                }
                core::BatchPlan plan;
                results[t] = model->rankBatch(archs, plan);
            });
        for (auto &th : threads)
            th.join();
        core::BatchPlan plan;
        const Matrix &serial = model->rankBatch(archs, plan);
        for (const Matrix &r : results)
            EXPECT_EQ(r.raw(), serial.raw());
    }
}

TEST(SurrogateIface, RetrainingDropsFrozenRankState)
{
    // rankBatch() freezes int8 heads and encoding caches over the
    // weights it finds, and every training call must drop them. Each
    // model is fitted, ranked (which freezes), trained again and
    // ranked again: the result must equal, bit for bit, a twin trained
    // the same way that never ranked in between.
    core::TrainConfig quick = quickFit();
    quick.epochs = 2;
    quick.combinerEpochs = 1;
    core::PredictorTrainConfig pquick;
    pquick.epochs = 2;
    const auto data = tinySurrogateData();
    const auto archs = testArchs();
    ExecContext seed_a = ExecContext::global().withSeed(71);
    ExecContext seed_b = ExecContext::global().withSeed(72);

    using Factory = std::function<std::unique_ptr<core::Surrogate>()>;
    using Training = std::function<void(core::Surrogate &)>;
    auto fitWith = [&](ExecContext &ctx) -> Training {
        return [&](core::Surrogate &m) { m.fit(data, ctx); };
    };
    auto expectRefitDropsState = [&](const char *what,
                                     const Factory &make,
                                     const Training &first,
                                     const Training &again) {
        SCOPED_TRACE(what);
        const auto model = make();
        first(*model);
        core::BatchPlan plan;
        model->rankBatch(archs, plan);
        again(*model);
        const auto twin = make();
        first(*twin);
        again(*twin);
        core::BatchPlan twin_plan;
        EXPECT_EQ(model->rankBatch(archs, plan).raw(),
                  twin->rankBatch(archs, twin_plan).raw());
    };

    core::HwPrNasConfig mc;
    mc.encoder = tinyEncoder();
    const Factory hwpr = [&] {
        auto m = std::make_unique<core::HwPrNas>(
            mc, nasbench::DatasetId::Cifar10, 73);
        m->setFitConfig(quick);
        return m;
    };
    expectRefitDropsState("HW-PR-NAS train", hwpr, fitWith(seed_a),
                          fitWith(seed_b));
    expectRefitDropsState(
        "HW-PR-NAS trainMultiPlatform", hwpr, fitWith(seed_a),
        [&](core::Surrogate &m) {
            static_cast<core::HwPrNas &>(m).trainMultiPlatform(
                data.train, data.val,
                {hw::PlatformId::EdgeGpu, hw::PlatformId::Pixel3},
                quick);
        });

    core::ScalableConfig sc;
    sc.encoder = tinyEncoder();
    const Factory scalable = [&] {
        auto m = std::make_unique<core::ScalableHwPrNas>(
            sc, nasbench::DatasetId::Cifar10, 74);
        m->setFitConfig(quick);
        return m;
    };
    expectRefitDropsState("scalable train", scalable, fitWith(seed_a),
                          fitWith(seed_b));
    expectRefitDropsState(
        "scalable addEnergyObjective", scalable, fitWith(seed_a),
        [&](core::Surrogate &m) {
            static_cast<core::ScalableHwPrNas &>(m).addEnergyObjective(
                data.train, 2);
        });

    const Training brp_a = [&](core::Surrogate &m) {
        static_cast<baselines::TwoSurrogateBaseline &>(m).train(
            data.train, data.val, data.platform, pquick);
    };
    expectRefitDropsState(
        "BRP-NAS",
        [] {
            return std::make_unique<baselines::BrpNas>(
                tinyEncoder(), nasbench::DatasetId::Cifar10, 75);
        },
        brp_a, fitWith(seed_b));
    expectRefitDropsState(
        "GATES",
        [] {
            return std::make_unique<baselines::Gates>(
                tinyEncoder(), nasbench::DatasetId::Cifar10, 76);
        },
        brp_a, fitWith(seed_b));

    core::DominanceConfig dc;
    dc.encoder = tinyEncoder();
    dc.referenceSize = 16;
    dc.maxPairsPerEpoch = 2000;
    expectRefitDropsState(
        "dominance",
        [&] {
            auto m = std::make_unique<core::DominanceSurrogate>(
                dc, nasbench::DatasetId::Cifar10, 77);
            m->setFitConfig(quick);
            return m;
        },
        fitWith(seed_a), fitWith(seed_b));
}

TEST(SurrogateIface, DefaultSaveIsUnsupported)
{
    baselines::LatencyLut lut(nasbench::DatasetId::Cifar10,
                              hw::PlatformId::EdgeGpu);
    const core::Surrogate &iface = lut;
    EXPECT_FALSE(iface.save("/nonexistent/dir/file.bin"));
}

TEST(SurrogateIface, EvaluatorMatchesBatchMethods)
{
    core::ScalableConfig sc;
    sc.encoder = tinyEncoder();
    core::ScalableHwPrNas model(sc, nasbench::DatasetId::Cifar10, 5);
    model.setFitConfig(quickFit());
    ExecContext ctx = ExecContext::global().withSeed(11);
    model.fit(tinySurrogateData(), ctx);

    core::SurrogateEvaluator eval(model, 0.5);
    EXPECT_EQ(eval.kind(), search::EvalKind::ParetoScore);
    EXPECT_EQ(eval.numObjectives(), 1u);
    EXPECT_EQ(eval.name(), model.name());
    EXPECT_DOUBLE_EQ(eval.simulatedCostSeconds(10), 5.0);

    const auto archs = testArchs();
    const auto pts = eval.evaluate(archs);
    const Matrix scores = model.predict(archs);
    ASSERT_EQ(pts.size(), archs.size());
    for (std::size_t i = 0; i < archs.size(); ++i) {
        ASSERT_EQ(pts[i].size(), 1u);
        EXPECT_DOUBLE_EQ(pts[i][0], scores(i, 0));
    }
}

TEST(SurrogateIface, EvaluatorIgnoresRankOnlyEnvironment)
{
    // Only `hwpr search` reads HWPR_RANK_ONLY, and it re-scores its
    // final population in fp64. Every other evaluator scores in fp64
    // until setRankOnly() says otherwise, so no caller reports an
    // int8 number by accident.
    baselines::LatencyLut lut(nasbench::DatasetId::Cifar10,
                              hw::PlatformId::EdgeGpu);
    ASSERT_EQ(setenv("HWPR_RANK_ONLY", "1", 1), 0);
    core::SurrogateEvaluator eval(lut);
    EXPECT_FALSE(eval.rankOnly());
    unsetenv("HWPR_RANK_ONLY");
}

// ---------------------------------------------------------------------
// End-to-end determinism of the search
// ---------------------------------------------------------------------

TEST(Determinism, SearchIdenticalAcrossThreadCounts)
{
    core::HwPrNasConfig mc;
    mc.encoder = tinyEncoder();
    core::HwPrNas model(mc, nasbench::DatasetId::Cifar10, 6);
    model.setFitConfig(quickFit());
    ExecContext ctx = ExecContext::global().withSeed(13);
    model.fit(tinySurrogateData(), ctx);

    search::MoeaConfig smc;
    smc.populationSize = 16;
    smc.maxGenerations = 4;
    smc.simulatedBudgetSeconds = 0.0;

    const std::size_t before = ExecContext::global().threads();
    auto runSearch = [&] {
        core::SurrogateEvaluator eval(model);
        Rng rng(99);
        return search::Moea(smc).run(
            search::SearchDomain::unionBenchmarks(), eval, rng);
    };
    ExecContext::setGlobalThreads(1);
    const auto serial = runSearch();
    ExecContext::setGlobalThreads(4);
    const auto parallel = runSearch();
    ExecContext::setGlobalThreads(before);

    ASSERT_EQ(serial.population.size(), parallel.population.size());
    for (std::size_t i = 0; i < serial.population.size(); ++i) {
        EXPECT_TRUE(serial.population[i] == parallel.population[i]);
        ASSERT_EQ(serial.fitness[i].size(), parallel.fitness[i].size());
        for (std::size_t c = 0; c < serial.fitness[i].size(); ++c)
            EXPECT_DOUBLE_EQ(serial.fitness[i][c],
                             parallel.fitness[i][c]);
    }

    // Same-seed searches must agree on the hypervolume of the final
    // population's predicted objectives.
    auto hyper = [&](const search::SearchResult &r) {
        const auto acc = model.predictAccuracy(r.population);
        const auto lat = model.predictLatency(r.population);
        std::vector<pareto::Point> pts;
        for (std::size_t i = 0; i < acc.size(); ++i)
            pts.push_back({100.0 - acc[i], lat[i]});
        return pareto::hypervolume(pts, {100.0, 1e4});
    };
    EXPECT_DOUBLE_EQ(hyper(serial), hyper(parallel));
}
