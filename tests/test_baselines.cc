/**
 * @file
 * Baseline-surrogate tests: BRP-NAS and GATES train, predict with the
 * right semantics (signs/orders of objectives) and integrate with the
 * search as objective-vector evaluators.
 */

#include <gtest/gtest.h>

#include "baselines/brpnas.h"
#include "baselines/gates.h"
#include "baselines/lut.h"
#include "common/stats.h"
#include "search/moea.h"

using namespace hwpr;
using namespace hwpr::baselines;

namespace
{

const nasbench::SampledDataset &
tinyData()
{
    static const nasbench::SampledDataset data = [] {
        static nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
        Rng rng(77);
        return nasbench::SampledDataset::sample(
            {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle,
            360, 240, 60, rng);
    }();
    return data;
}

core::EncoderConfig
tinyEncoder()
{
    core::EncoderConfig cfg;
    cfg.gcnHidden = 24;
    cfg.lstmHidden = 24;
    cfg.embedDim = 12;
    return cfg;
}

core::PredictorTrainConfig
quickTraining()
{
    core::PredictorTrainConfig cfg;
    // Tiny fixture dataset -> few optimizer steps per epoch; raise
    // the paper's lr and epoch count accordingly.
    cfg.epochs = 25;
    cfg.lr = 2e-3;
    return cfg;
}

std::vector<nasbench::Architecture>
archsOf(const std::vector<const nasbench::ArchRecord *> &recs)
{
    std::vector<nasbench::Architecture> out;
    for (const auto *r : recs)
        out.push_back(r->arch);
    return out;
}

} // namespace

TEST(BrpNasTest, PredictsBothObjectives)
{
    const auto &data = tinyData();
    BrpNas model(tinyEncoder(), nasbench::DatasetId::Cifar10, 1);
    model.train(data.select(data.trainIdx), data.select(data.valIdx),
                hw::PlatformId::EdgeGpu, quickTraining());

    const auto test = data.select(data.testIdx);
    std::vector<double> true_acc, true_lat;
    const std::size_t pidx =
        hw::platformIndex(hw::PlatformId::EdgeGpu);
    for (const auto *r : test) {
        true_acc.push_back(r->accuracy);
        true_lat.push_back(r->latencyMs[pidx]);
    }
    EXPECT_GT(kendallTau(model.predictAccuracy(archsOf(test)),
                         true_acc),
              0.3);
    EXPECT_GT(kendallTau(model.predictLatency(archsOf(test)),
                         true_lat),
              0.3);
}

TEST(BrpNasTest, EvaluatorMinimizationSemantics)
{
    const auto &data = tinyData();
    BrpNas model(tinyEncoder(), nasbench::DatasetId::Cifar10, 2);
    model.train(data.select(data.trainIdx), data.select(data.valIdx),
                hw::PlatformId::EdgeGpu, quickTraining());
    core::SurrogateEvaluator eval(model);
    EXPECT_EQ(eval.kind(), search::EvalKind::ObjectiveVector);

    const auto test = data.select(data.testIdx);
    const auto archs = archsOf(test);
    const auto pts = eval.evaluate(archs);
    const auto acc = model.predictAccuracy(archs);
    for (std::size_t i = 0; i < archs.size(); ++i)
        EXPECT_DOUBLE_EQ(pts[i][0], 100.0 - acc[i]);
}

TEST(GatesTest, ScoresRankObjectives)
{
    const auto &data = tinyData();
    Gates model(tinyEncoder(), nasbench::DatasetId::Cifar10, 3);
    core::PredictorTrainConfig cfg = quickTraining();
    cfg.epochs = 20;
    model.train(data.select(data.trainIdx), data.select(data.valIdx),
                hw::PlatformId::Pixel3, cfg);

    const auto test = data.select(data.testIdx);
    std::vector<double> true_acc, true_lat;
    const std::size_t pidx = hw::platformIndex(hw::PlatformId::Pixel3);
    for (const auto *r : test) {
        true_acc.push_back(r->accuracy);
        true_lat.push_back(r->latencyMs[pidx]);
    }
    // Hinge-trained scores are rank-calibrated, not unit-calibrated.
    // Accuracy ranking across the union space is hard at this tiny
    // budget (FBNet accuracies live in a narrow band); the bar is
    // "clearly better than chance".
    EXPECT_GT(kendallTau(model.predictAccuracy(archsOf(test)),
                         true_acc),
              0.2);
    EXPECT_GT(kendallTau(model.predictLatency(archsOf(test)),
                         true_lat),
              0.3);
}

TEST(GatesTest, SearchIntegration)
{
    const auto &data = tinyData();
    Gates model(tinyEncoder(), nasbench::DatasetId::Cifar10, 4);
    core::PredictorTrainConfig cfg = quickTraining();
    cfg.epochs = 6;
    model.train(data.select(data.trainIdx), data.select(data.valIdx),
                hw::PlatformId::EdgeGpu, cfg);
    core::SurrogateEvaluator eval(model);

    search::MoeaConfig mc;
    mc.populationSize = 12;
    mc.maxGenerations = 3;
    mc.simulatedBudgetSeconds = 0.0;
    Rng rng(5);
    const auto result = search::Moea(mc).run(
        search::SearchDomain::unionBenchmarks(), eval, rng);
    EXPECT_EQ(result.population.size(), 12u);
    EXPECT_EQ(result.fitness[0].size(), 2u);
}

TEST(LatencyLutTest, OverestimatesOverlappedExecution)
{
    // The LUT sums isolated op latencies; the device overlaps
    // adjacent compute/memory phases, so the LUT must never
    // underestimate, and must strictly overestimate on platforms
    // with nonzero overlap.
    nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
    LatencyLut lut(nasbench::DatasetId::Cifar10,
                   hw::PlatformId::Eyeriss);
    Rng rng(31);
    int strictly_over = 0;
    for (int i = 0; i < 30; ++i) {
        const auto a = nasbench::nasBench201().sample(rng);
        const double est = lut.estimateMs(a);
        const double real =
            oracle.latencyMs(a, hw::PlatformId::Eyeriss);
        EXPECT_GE(est, real - 1e-9);
        if (est > real * 1.02)
            ++strictly_over;
    }
    EXPECT_GT(strictly_over, 10);
    EXPECT_GT(lut.numEntries(), 0u);
}

TEST(LatencyLutTest, BuildPrePopulatesEntries)
{
    LatencyLut lut(nasbench::DatasetId::Cifar10,
                   hw::PlatformId::EdgeGpu);
    Rng rng(32);
    std::vector<nasbench::Architecture> calib;
    for (int i = 0; i < 10; ++i)
        calib.push_back(nasbench::fbnet().sample(rng));
    lut.build(calib);
    const std::size_t entries = lut.numEntries();
    EXPECT_GT(entries, 10u);
    // Estimating the same archs adds no entries.
    lut.predict(calib);
    EXPECT_EQ(lut.numEntries(), entries);
}

TEST(LatencyLutTest, RanksWellButBelowPerfect)
{
    // Informative (FLOPs-correlated) but imperfect due to the missed
    // cross-op overlap.
    nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
    LatencyLut lut(nasbench::DatasetId::Cifar10,
                   hw::PlatformId::FpgaZCU102);
    Rng rng(33);
    std::vector<double> est, real;
    for (int i = 0; i < 150; ++i) {
        const auto a = nasbench::nasBench201().sample(rng);
        est.push_back(lut.estimateMs(a));
        real.push_back(
            oracle.latencyMs(a, hw::PlatformId::FpgaZCU102));
    }
    const double tau = kendallTau(est, real);
    EXPECT_GT(tau, 0.6);
    EXPECT_LT(tau, 0.99);
}
