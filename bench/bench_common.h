/**
 * @file
 * Shared infrastructure for the table/figure reproduction harnesses.
 *
 * Every bench binary reproduces one table or figure of the paper. The
 * shared Budget selects dataset sizes, model sizes and search budgets;
 * three modes are selectable via the HWPR_BENCH_MODE environment
 * variable:
 *  - "quick":   smallest sizes, for smoke-testing the harnesses;
 *  - "default": sizes that reproduce every qualitative shape in a few
 *               minutes per bench on one core;
 *  - "paper":   the paper's sizes (4000 samples, pop 150, gen 250,
 *               GCN 600 / LSTM 225); hours of runtime.
 * The number of independent runs is HWPR_BENCH_SEEDS (default by
 * mode). CSV series are written to bench/out/.
 */

#ifndef HWPR_BENCH_BENCH_COMMON_H
#define HWPR_BENCH_BENCH_COMMON_H

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "baselines/brpnas.h"
#include "baselines/gates.h"
#include "common/csv.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/hwprnas.h"
#include "core/scalable.h"
#include "search/moea.h"
#include "search/report.h"

namespace hwpr::benchx
{

/** Wall-clock seconds (steady). */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Experiment sizing, selected by HWPR_BENCH_MODE. */
struct Budget
{
    std::string mode = "default";

    /** Architectures sampled / train / validation per dataset. */
    std::size_t sampleTotal = 1100;
    std::size_t trainCount = 700;
    std::size_t valCount = 200;

    /** Independent runs for mean +- stderr rows. */
    std::size_t seeds = 3;

    /** Encoder sizes. */
    core::EncoderConfig encoder;

    /** HW-PR-NAS training (Table II, lr raised for small datasets). */
    core::TrainConfig hwprTrain;

    /** Baseline predictor training. */
    core::PredictorTrainConfig predTrain;

    /** MOEA configuration (Algorithm 1). */
    search::MoeaConfig moea;

    /** Random-search sampling budget. */
    std::size_t randomBudget = 2000;

    /** Random cloud size for true-front / reference estimation. */
    std::size_t referenceCloud = 4000;

    static Budget fromEnv();
};

inline Budget
Budget::fromEnv()
{
    Budget b;
    const char *mode_env = std::getenv("HWPR_BENCH_MODE");
    b.mode = mode_env ? mode_env : "default";

    b.encoder = core::EncoderConfig::fast();
    b.encoder.gcnHidden = 48;
    b.encoder.lstmHidden = 48;
    b.encoder.embedDim = 16;

    b.hwprTrain.epochs = 40;
    b.hwprTrain.learningRate = 1e-3;
    b.hwprTrain.patience = 8;
    b.predTrain.epochs = 40;
    b.predTrain.lr = 1.5e-3;
    b.predTrain.patience = 8;

    b.moea.populationSize = 60;
    b.moea.maxGenerations = 40;
    b.moea.simulatedBudgetSeconds = 0.0;

    if (b.mode == "quick") {
        b.sampleTotal = 450;
        b.trainCount = 300;
        b.valCount = 100;
        b.seeds = 2;
        b.hwprTrain.epochs = 15;
        b.predTrain.epochs = 15;
        b.moea.populationSize = 30;
        b.moea.maxGenerations = 12;
        b.randomBudget = 600;
        b.referenceCloud = 1500;
    } else if (b.mode == "paper") {
        b.sampleTotal = 4000;
        b.trainCount = 2800;
        b.valCount = 1000;
        b.seeds = 5;
        b.encoder = core::EncoderConfig::paper();
        b.hwprTrain = core::TrainConfig{};
        b.predTrain = core::PredictorTrainConfig{};
        b.predTrain.epochs = 80;
        b.moea.populationSize = 150;
        b.moea.maxGenerations = 250;
        b.randomBudget = 15000;
        b.referenceCloud = 15625;
    }

    if (const char *seeds_env = std::getenv("HWPR_BENCH_SEEDS"))
        b.seeds = std::size_t(std::atoi(seeds_env));
    return b;
}

/** Print the Table II hyperparameters this run uses. */
inline void
printTrainingConfig(const Budget &b)
{
    AsciiTable t({"hyperparameter", "value"});
    t.addRow({"mode", b.mode});
    t.addRow({"epochs",
              std::to_string(b.hwprTrain.epochs) + " (early stop, patience " +
                  std::to_string(b.hwprTrain.patience) + ")"});
    t.addRow({"initial learning rate",
              AsciiTable::num(b.hwprTrain.learningRate, 5)});
    t.addRow({"lr schedule", "cosine annealing"});
    t.addRow({"batch size", std::to_string(b.hwprTrain.batchSize)});
    t.addRow({"optimizer", "AdamW"});
    t.addRow({"L2 weight decay", AsciiTable::num(core::kWeightDecay, 5)});
    t.addRow({"dropout", AsciiTable::num(core::kDropout, 3)});
    t.addRow({"GCN hidden", std::to_string(b.encoder.gcnHidden)});
    t.addRow({"LSTM hidden", std::to_string(b.encoder.lstmHidden)});
    std::cout << "Training configuration (paper Table II):\n"
              << t.render() << std::endl;
}

/** Everything trained for one (dataset, platform, seed). */
struct SurrogateBundle
{
    std::unique_ptr<nasbench::Oracle> oracle;
    nasbench::SampledDataset data;
    std::unique_ptr<core::HwPrNas> hwpr;
    std::unique_ptr<baselines::BrpNas> brp;
    std::unique_ptr<baselines::Gates> gates;
    double hwprTrainSeconds = 0.0;
    double brpTrainSeconds = 0.0;
    double gatesTrainSeconds = 0.0;
    /** Measured seconds of one surrogate model call per arch. */
    double unitCallSeconds = 0.0;
};

/** Which surrogates to train (skip unused ones to save time). */
struct BundleSelect
{
    bool hwpr = true;
    bool brp = true;
    bool gates = true;
};

/**
 * Sample a dataset (from NAS-Bench-201 + FBNet) and train the
 * requested surrogates for one platform and seed.
 */
inline SurrogateBundle
trainSurrogates(const Budget &b, nasbench::DatasetId dataset,
                hw::PlatformId platform, std::uint64_t seed,
                const BundleSelect &select = {})
{
    SurrogateBundle bundle;
    bundle.oracle = std::make_unique<nasbench::Oracle>(dataset);
    Rng rng(seed * 7919 + 17);
    bundle.data = nasbench::SampledDataset::sample(
        {&nasbench::nasBench201(), &nasbench::fbnet()},
        *bundle.oracle, b.sampleTotal, b.trainCount, b.valCount, rng);
    const auto train = bundle.data.select(bundle.data.trainIdx);
    const auto val = bundle.data.select(bundle.data.valIdx);

    if (select.hwpr) {
        core::HwPrNasConfig mc;
        mc.encoder = b.encoder;
        bundle.hwpr = std::make_unique<core::HwPrNas>(mc, dataset,
                                                      seed ^ 0x11ull);
        const double t0 = nowSeconds();
        bundle.hwpr->train(train, val, platform, b.hwprTrain);
        bundle.hwprTrainSeconds = nowSeconds() - t0;

        // Calibrate the per-call unit cost from a real batch.
        std::vector<nasbench::Architecture> probe;
        for (std::size_t i = 0; i < 64 && i < train.size(); ++i)
            probe.push_back(train[i]->arch);
        const double c0 = nowSeconds();
        bundle.hwpr->predict(probe);
        bundle.unitCallSeconds =
            (nowSeconds() - c0) / double(probe.size());
    }
    if (select.brp) {
        bundle.brp = std::make_unique<baselines::BrpNas>(
            b.encoder, dataset, seed ^ 0x22ull);
        const double t0 = nowSeconds();
        bundle.brp->train(train, val, platform, b.predTrain);
        bundle.brpTrainSeconds = nowSeconds() - t0;
    }
    if (select.gates) {
        bundle.gates = std::make_unique<baselines::Gates>(
            b.encoder, dataset, seed ^ 0x33ull);
        const double t0 = nowSeconds();
        bundle.gates->train(train, val, platform, b.predTrain);
        bundle.gatesTrainSeconds = nowSeconds() - t0;
    }
    return bundle;
}

/** Batched score evaluator over a trained HW-PR-NAS. */
inline core::SurrogateEvaluator
hwprEvaluator(const SurrogateBundle &bundle)
{
    return core::SurrogateEvaluator(
        *bundle.hwpr, /*one model call per arch*/ bundle.unitCallSeconds);
}

/** Batched vector evaluator over BRP-NAS (two model calls per arch). */
inline core::SurrogateEvaluator
brpEvaluator(const SurrogateBundle &bundle)
{
    return core::SurrogateEvaluator(*bundle.brp,
                                    2.0 * bundle.unitCallSeconds);
}

/** Batched vector evaluator over GATES (two model calls per arch). */
inline core::SurrogateEvaluator
gatesEvaluator(const SurrogateBundle &bundle)
{
    return core::SurrogateEvaluator(*bundle.gates,
                                    2.0 * bundle.unitCallSeconds);
}

/**
 * Reference cloud: a large random sample of both spaces measured on
 * the oracle. Provides the shared hypervolume reference point and an
 * approximation of the true Pareto front.
 */
struct ReferenceCloud
{
    std::vector<pareto::Point> objectives;
    std::vector<pareto::Point> trueFront;
    pareto::Point refPoint;
};

inline ReferenceCloud
buildReferenceCloud(const nasbench::Oracle &oracle,
                    hw::PlatformId platform, std::size_t n,
                    std::uint64_t seed, bool include_energy = false)
{
    ReferenceCloud cloud;
    Rng rng(seed);
    const search::SearchDomain domain =
        search::SearchDomain::unionBenchmarks();
    for (std::size_t i = 0; i < n; ++i) {
        const auto a = domain.sample(rng);
        cloud.objectives.push_back(search::trueObjectives(
            oracle.record(a), platform, include_energy));
    }
    for (std::size_t idx :
         pareto::nonDominatedIndices(cloud.objectives))
        cloud.trueFront.push_back(cloud.objectives[idx]);
    cloud.refPoint = pareto::nadirReference(cloud.objectives, 0.05);
    return cloud;
}

/** Output directory for CSV dumps. */
inline std::string
outDir()
{
    const std::string dir = "bench/out";
    ensureDirectory(dir);
    return dir;
}

} // namespace hwpr::benchx

#endif // HWPR_BENCH_BENCH_COMMON_H
