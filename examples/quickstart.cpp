/**
 * @file
 * Quickstart: train the HW-PR-NAS surrogate on a sampled benchmark
 * dataset, plug it into the multi-objective evolutionary search, and
 * print the resulting Pareto front for one edge platform.
 *
 * Walks the full public API in ~a minute:
 *   oracle -> sampled dataset -> HwPrNas::train -> MOEA -> front.
 */

#include <iostream>

#include "common/stats.h"
#include "common/table.h"
#include "core/hwprnas.h"
#include "pareto/pareto.h"
#include "core/surrogate.h"
#include "search/moea.h"
#include "search/report.h"

using namespace hwpr;

int
main()
{
    const auto dataset_id = nasbench::DatasetId::Cifar10;
    const auto platform = hw::PlatformId::EdgeGpu;
    Rng rng(42);

    // 1. The measurement oracle (accuracy simulator + HW cost model).
    nasbench::Oracle oracle(dataset_id);

    // 2. Sample and split a training dataset from both benchmarks.
    std::cout << "Sampling architectures from NAS-Bench-201 + FBNet..."
              << std::endl;
    const auto data = nasbench::SampledDataset::sample(
        {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle,
        /*total=*/1200, /*train=*/700, /*val=*/200, rng);

    // 3. Train the Pareto rank-preserving surrogate (Table II
    //    hyperparameters, reduced model sizes for the quickstart).
    std::cout << "Training HW-PR-NAS for "
              << hw::platformName(platform) << " / "
              << nasbench::datasetName(dataset_id) << "..."
              << std::endl;
    core::HwPrNas model(core::HwPrNasConfig{}, dataset_id, 7);
    core::TrainConfig tc;
    tc.epochs = 30;
    model.train(data.select(data.trainIdx), data.select(data.valIdx),
                platform, tc);

    // 4. How well does the score preserve the true Pareto ranking?
    const auto test = data.select(data.testIdx);
    std::vector<nasbench::Architecture> test_archs;
    std::vector<pareto::Point> test_points;
    for (const auto *rec : test) {
        test_archs.push_back(rec->arch);
        test_points.push_back(search::trueObjectives(*rec, platform));
    }
    const auto ranks = pareto::paretoRanks(test_points);
    std::vector<double> rank_d(ranks.size());
    for (std::size_t i = 0; i < ranks.size(); ++i)
        rank_d[i] = -double(ranks[i]); // high score should mean rank 1
    const double tau =
        kendallTau(model.predict(test_archs).raw(), rank_d);
    std::cout << "Kendall tau (score vs true Pareto rank) on "
              << test.size() << " test archs: "
              << AsciiTable::num(tau, 3) << std::endl;

    // Branch diagnostics: how well each predictor ranks its metric.
    std::vector<double> true_acc, true_lat;
    for (const auto *rec : test) {
        true_acc.push_back(rec->accuracy);
        true_lat.push_back(
            rec->latencyMs[hw::platformIndex(platform)]);
    }
    std::cout << "  accuracy-branch tau: "
              << AsciiTable::num(
                     kendallTau(model.predictAccuracy(test_archs),
                                true_acc),
                     3)
              << ", latency-branch tau: "
              << AsciiTable::num(
                     kendallTau(model.predictLatency(test_archs),
                                true_lat),
                     3)
              << std::endl;

    // 5. Search with the surrogate as the fitness function.
    core::SurrogateEvaluator evaluator(model);
    search::MoeaConfig mc;
    mc.populationSize = 60;
    mc.maxGenerations = 30;
    mc.simulatedBudgetSeconds = 0.0;
    const auto result =
        search::Moea(mc).run(search::SearchDomain::unionBenchmarks(),
                             evaluator, rng);
    std::cout << "MOEA finished: " << result.stats.evaluations
              << " surrogate evaluations in "
              << AsciiTable::num(result.stats.wallSeconds, 2) << " s"
              << std::endl;

    // 6. Measure the final population and print the true front.
    const auto report =
        search::measureFront(result, oracle, platform);
    AsciiTable table({"architecture", "accuracy (%)", "latency (ms)"});
    for (std::size_t i = 0; i < report.front.size(); ++i) {
        const auto &arch = report.frontArchs[i];
        table.addRow({
            nasbench::spaceFor(arch.space).toString(arch),
            AsciiTable::num(100.0 - report.front[i][0], 2),
            AsciiTable::num(report.front[i][1], 3),
        });
    }
    std::cout << "\nTrue Pareto front of the final population ("
              << report.front.size() << " architectures):\n"
              << table.render() << std::endl;

    const auto ref = pareto::nadirReference(report.objectives, 0.1);
    std::cout << "Hypervolume of the front: "
              << AsciiTable::num(pareto::hypervolume(report.front, ref),
                                 1)
              << std::endl;
    return 0;
}
