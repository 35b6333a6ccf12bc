/**
 * @file
 * Figure 9 reproduction: three-objective search (accuracy, latency,
 * energy) on CIFAR-10 / Edge GPU using the scalable HW-PR-NAS variant
 * (Fig. 5): the concatenated AF+GNN+LSTM encoding is trained once on
 * two objectives, then only the MLP is fine-tuned for 5 epochs with
 * energy-aware Pareto ranks (encoders frozen).
 */

#include "bench_common.h"

using namespace hwpr;
using namespace hwpr::benchx;

int
main()
{
    const Budget budget = Budget::fromEnv();
    const auto dataset = nasbench::DatasetId::Cifar10;
    const auto platform = hw::PlatformId::EdgeGpu;
    std::cout << "=== Figure 9: accuracy + latency + energy Pareto "
                 "front on "
              << hw::platformName(platform)
              << " (scalable HW-PR-NAS, 5-epoch MLP fine-tune) ===\n"
              << std::endl;

    nasbench::Oracle oracle(dataset);
    Rng rng(101);
    const auto data = nasbench::SampledDataset::sample(
        {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle,
        budget.sampleTotal, budget.trainCount, budget.valCount, rng);

    core::ScalableConfig sc;
    sc.encoder = budget.encoder;
    core::ScalableHwPrNas model(sc, dataset, 11);
    core::TrainConfig tc = budget.hwprTrain;
    const double t0 = nowSeconds();
    model.train(data.select(data.trainIdx), data.select(data.valIdx),
                platform, tc);
    std::cout << "base 2-objective training: "
              << AsciiTable::num(nowSeconds() - t0, 1) << " s"
              << std::endl;

    const double t1 = nowSeconds();
    model.addEnergyObjective(data.select(data.trainIdx), 5,
                             budget.hwprTrain.learningRate);
    std::cout << "energy fine-tune (MLP only, 5 epochs): "
              << AsciiTable::num(nowSeconds() - t1, 1) << " s\n"
              << std::endl;

    // Search with the energy-aware score.
    core::SurrogateEvaluator eval(model);
    Rng rng_s(102);
    const auto result =
        search::Moea(budget.moea)
            .run(search::SearchDomain::unionBenchmarks(), eval,
                 rng_s);

    // Measure all three objectives.
    std::vector<pareto::Point> objectives;
    for (const auto &arch : result.population)
        objectives.push_back(search::trueObjectives(
            oracle.record(arch), platform, /*energy=*/true));
    std::vector<pareto::Point> front;
    std::vector<nasbench::Architecture> front_archs;
    for (std::size_t idx : pareto::nonDominatedIndices(objectives)) {
        front.push_back(objectives[idx]);
        front_archs.push_back(result.population[idx]);
    }

    // Reference cloud with energy for normalized hypervolume.
    const auto cloud = buildReferenceCloud(
        oracle, platform, budget.referenceCloud, 777, true);
    const double nhv =
        pareto::hypervolume(front, cloud.refPoint) /
        pareto::hypervolume(cloud.trueFront, cloud.refPoint);

    // Two 2-D projections of the 3-D front.
    AsciiScatter proj1("Fig. 9 projection: accuracy vs latency",
                       "accuracy (%)", "latency (ms)");
    AsciiScatter proj2("Fig. 9 projection: accuracy vs energy",
                       "accuracy (%)", "energy (mJ)");
    std::vector<double> acc, lat, energy;
    for (const auto &p : front) {
        acc.push_back(100.0 - p[0]);
        lat.push_back(p[1]);
        energy.push_back(p[2]);
    }
    proj1.addSeries("3-objective front", acc, lat);
    proj2.addSeries("3-objective front", acc, energy);
    std::cout << proj1.render() << "\n" << proj2.render() << std::endl;

    AsciiTable table({"space", "accuracy (%)", "latency (ms)",
                      "energy (mJ)"});
    CsvWriter csv(outDir() + "/fig9_three_objectives.csv",
                  {"space", "accuracy_pct", "latency_ms",
                   "energy_mj"});
    for (std::size_t i = 0; i < front.size(); ++i) {
        const std::string space =
            nasbench::spaceFor(front_archs[i].space).name();
        table.addRow({space, AsciiTable::num(acc[i], 2),
                      AsciiTable::num(lat[i], 3),
                      AsciiTable::num(energy[i], 3)});
        csv.addRow({space, AsciiTable::num(acc[i], 4),
                    AsciiTable::num(lat[i], 5),
                    AsciiTable::num(energy[i], 5)});
    }
    std::cout << table.render() << std::endl;
    std::cout << "3-objective front: " << front.size()
              << " architectures, normalized hypervolume "
              << AsciiTable::num(nhv, 3) << "\n";
    return 0;
}
