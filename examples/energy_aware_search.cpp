/**
 * @file
 * Energy-aware three-objective search using the scalable HW-PR-NAS
 * variant (paper Sec. III-F): train the concatenated-encoding model
 * on (accuracy, latency), then add energy as a third objective by
 * fine-tuning only the MLP for five epochs — no encoder retraining —
 * and search for battery-friendly architectures on the Edge GPU.
 */

#include <iostream>

#include "common/table.h"
#include "core/scalable.h"
#include "pareto/pareto.h"
#include "core/surrogate.h"
#include "search/moea.h"

using namespace hwpr;

int
main()
{
    const auto dataset_id = nasbench::DatasetId::Cifar10;
    const auto platform = hw::PlatformId::EdgeGpu;

    nasbench::Oracle oracle(dataset_id);
    Rng rng(3);
    const auto data = nasbench::SampledDataset::sample(
        {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle, 900,
        600, 150, rng);

    std::cout << "Training the scalable surrogate on (accuracy, "
                 "latency)..."
              << std::endl;
    core::ScalableConfig sc;
    core::ScalableHwPrNas model(sc, dataset_id, 5);
    core::TrainConfig tc;
    tc.epochs = 25;
    tc.learningRate = 1e-3;
    model.train(data.select(data.trainIdx), data.select(data.valIdx),
                platform, tc);

    std::cout << "Adding the energy objective (5-epoch MLP "
                 "fine-tune, encoders frozen)..."
              << std::endl;
    model.addEnergyObjective(data.select(data.trainIdx), 5, 1e-3);

    core::SurrogateEvaluator eval(model);
    search::MoeaConfig mc;
    mc.populationSize = 50;
    mc.maxGenerations = 25;
    mc.simulatedBudgetSeconds = 0.0;
    Rng srng(9);
    const auto result = search::Moea(mc).run(
        search::SearchDomain::unionBenchmarks(), eval, srng);

    // Measure all three objectives and extract the 3-D front.
    std::vector<pareto::Point> objectives;
    for (const auto &arch : result.population)
        objectives.push_back(search::trueObjectives(
            oracle.record(arch), platform, /*energy=*/true));

    AsciiTable table({"space", "accuracy (%)", "latency (ms)",
                      "energy (mJ)"});
    for (std::size_t idx : pareto::nonDominatedIndices(objectives)) {
        const auto &arch = result.population[idx];
        table.addRow({
            nasbench::spaceFor(arch.space).name(),
            AsciiTable::num(100.0 - objectives[idx][0], 2),
            AsciiTable::num(objectives[idx][1], 3),
            AsciiTable::num(objectives[idx][2], 3),
        });
    }
    std::cout << "\n3-objective Pareto front on "
              << hw::platformName(platform) << ":\n"
              << table.render()
              << "\nPick the row matching your battery budget — the "
                 "Pareto front defers that decision to deployment "
                 "time (no hard energy threshold was baked into the "
                 "search).\n";
    return 0;
}
