/**
 * @file
 * End-to-end integration tests: the full pipeline the examples and
 * benches exercise — oracle -> sampled dataset -> surrogate training
 * -> surrogate-guided search -> measured front — plus the checkpoint
 * hand-off between training and search.
 */

#include <gtest/gtest.h>

#include "baselines/brpnas.h"
#include "common/stats.h"
#include "core/hwprnas.h"
#include "pareto/pareto.h"
#include "search/moea.h"
#include "search/report.h"

using namespace hwpr;

namespace
{

struct Pipeline
{
    nasbench::Oracle oracle{nasbench::DatasetId::Cifar10};
    nasbench::SampledDataset data;
    std::unique_ptr<core::HwPrNas> model;

    Pipeline()
    {
        Rng rng(90210);
        data = nasbench::SampledDataset::sample(
            {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle,
            420, 280, 70, rng);
        core::HwPrNasConfig mc;
        mc.encoder.gcnHidden = 24;
        mc.encoder.lstmHidden = 24;
        mc.encoder.embedDim = 12;
        model = std::make_unique<core::HwPrNas>(
            mc, nasbench::DatasetId::Cifar10, 7);
        core::TrainConfig tc;
        tc.epochs = 20;
        tc.learningRate = 2e-3;
        model->train(data.select(data.trainIdx),
                     data.select(data.valIdx),
                     hw::PlatformId::EdgeGpu, tc);
    }
};

/** One shared pipeline for the whole file (training is the cost). */
Pipeline &
pipeline()
{
    static Pipeline p;
    return p;
}

} // namespace

TEST(Integration, SurrogateGuidedSearchBeatsRandomSelection)
{
    auto &p = pipeline();
    core::SurrogateEvaluator eval(*p.model);

    search::MoeaConfig mc;
    mc.populationSize = 40;
    mc.maxGenerations = 15;
    mc.simulatedBudgetSeconds = 0.0;
    Rng rng(1);
    const auto guided = search::Moea(mc).run(
        search::SearchDomain::unionBenchmarks(), eval, rng);
    const auto guided_front = search::measureFront(
        guided, p.oracle, hw::PlatformId::EdgeGpu);

    // Random baseline with the same evaluation budget, selected at
    // random rather than by score.
    Rng rng2(1);
    std::vector<nasbench::Architecture> random_pop;
    const auto domain = search::SearchDomain::unionBenchmarks();
    for (std::size_t i = 0; i < mc.populationSize; ++i)
        random_pop.push_back(domain.sample(rng2));
    search::SearchResult random_result;
    random_result.population = random_pop;
    const auto random_front = search::measureFront(
        random_result, p.oracle, hw::PlatformId::EdgeGpu);

    // Shared reference over both clouds.
    std::vector<pareto::Point> all = guided_front.objectives;
    all.insert(all.end(), random_front.objectives.begin(),
               random_front.objectives.end());
    const auto ref = pareto::nadirReference(all, 0.1);
    const double hv_guided =
        pareto::hypervolume(guided_front.front, ref);
    const double hv_random =
        pareto::hypervolume(random_front.front, ref);
    // At this tiny training budget the surrogate is weak; the claim
    // is "competitive with random selection", not strict dominance
    // (the full-budget comparison lives in bench_table3).
    EXPECT_GT(hv_guided, hv_random * 0.75);
}

TEST(Integration, CheckpointHandoffPreservesSearchOutcome)
{
    auto &p = pipeline();
    const std::string path = "/tmp/hwpr_integration_ckpt.bin";
    ASSERT_TRUE(p.model->save(path));
    const auto loaded = core::HwPrNas::load(path);
    ASSERT_NE(loaded, nullptr);

    auto run_with = [](const core::HwPrNas &model) {
        core::SurrogateEvaluator eval(model);
        search::MoeaConfig mc;
        mc.populationSize = 16;
        mc.maxGenerations = 5;
        mc.simulatedBudgetSeconds = 0.0;
        Rng rng(3);
        return search::Moea(mc).run(
            search::SearchDomain::unionBenchmarks(), eval, rng);
    };
    const auto a = run_with(*p.model);
    const auto b = run_with(*loaded);
    ASSERT_EQ(a.population.size(), b.population.size());
    for (std::size_t i = 0; i < a.population.size(); ++i)
        EXPECT_EQ(a.population[i], b.population[i]);
}

TEST(Integration, TwoSurrogatePipelineAgreesOnUnits)
{
    auto &p = pipeline();
    baselines::BrpNas brp(core::EncoderConfig{
                              .gcnHidden = 24,
                              .gcnLayers = 2,
                              .lstmHidden = 24,
                              .lstmLayers = 2,
                              .embedDim = 12,
                          },
                          nasbench::DatasetId::Cifar10, 11);
    core::PredictorTrainConfig cfg;
    cfg.epochs = 15;
    cfg.lr = 2e-3;
    brp.train(p.data.select(p.data.trainIdx),
              p.data.select(p.data.valIdx), hw::PlatformId::EdgeGpu,
              cfg);

    // Predictions are in physical units comparable with the oracle.
    const auto test = p.data.select(p.data.testIdx);
    std::vector<nasbench::Architecture> archs;
    std::vector<double> true_lat;
    for (const auto *rec : test) {
        archs.push_back(rec->arch);
        true_lat.push_back(
            rec->latencyMs[hw::platformIndex(hw::PlatformId::EdgeGpu)]);
    }
    const auto pred = brp.predictLatency(archs);
    const double ratio = mean(pred) / mean(true_lat);
    EXPECT_GT(ratio, 0.5);
    EXPECT_LT(ratio, 2.0);
}

TEST(Integration, OracleConsistentAcrossInstances)
{
    // Two independent oracles agree on every measurement
    // (determinism of the full substrate stack).
    nasbench::Oracle a(nasbench::DatasetId::Cifar100);
    nasbench::Oracle b(nasbench::DatasetId::Cifar100);
    Rng rng(4);
    for (int i = 0; i < 20; ++i) {
        const auto arch = nasbench::fbnet().sample(rng);
        const auto &ra = a.record(arch);
        const auto &rb = b.record(arch);
        EXPECT_DOUBLE_EQ(ra.accuracy, rb.accuracy);
        for (std::size_t pi = 0; pi < hw::kNumPlatforms; ++pi) {
            EXPECT_DOUBLE_EQ(ra.latencyMs[pi], rb.latencyMs[pi]);
            EXPECT_DOUBLE_EQ(ra.energyMj[pi], rb.energyMj[pi]);
        }
    }
}
