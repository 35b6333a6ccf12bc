/**
 * @file
 * Multi-platform hardware-aware search: train one HW-PR-NAS surrogate
 * per target platform and search the NAS-Bench-201 + FBNet union for
 * each, then compare what kind of architecture each platform's Pareto
 * front prefers — the scenario from the paper's introduction (pick a
 * different model from the front per device).
 */

#include <iostream>

#include "common/table.h"
#include "core/hwprnas.h"
#include "core/surrogate.h"
#include "search/moea.h"
#include "search/report.h"

using namespace hwpr;

namespace
{

/** Fraction of depthwise convolutions in an architecture. */
double
depthwiseShare(const nasbench::Architecture &arch,
               nasbench::DatasetId dataset)
{
    const auto net = nasbench::spaceFor(arch.space).lower(arch, dataset);
    double convs = 0.0, dw = 0.0;
    for (const auto &op : net) {
        if (op.kind == hw::OpKind::Conv) {
            convs += 1.0;
            if (op.isDepthwise())
                dw += 1.0;
        }
    }
    return convs > 0.0 ? dw / convs : 0.0;
}

} // namespace

int
main()
{
    const auto dataset_id = nasbench::DatasetId::Cifar10;
    const std::vector<hw::PlatformId> platforms = {
        hw::PlatformId::EdgeGpu, hw::PlatformId::Pixel3,
        hw::PlatformId::Eyeriss};

    nasbench::Oracle oracle(dataset_id);
    Rng rng(7);
    const auto data = nasbench::SampledDataset::sample(
        {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle, 1000,
        650, 150, rng);

    AsciiTable summary({"platform", "front size", "best acc (%)",
                        "min latency (ms)", "FBNet share (%)",
                        "depthwise conv share (%)"});

    for (hw::PlatformId platform : platforms) {
        std::cout << "Training HW-PR-NAS for "
                  << hw::platformName(platform) << "..." << std::endl;
        core::HwPrNasConfig mc;
        core::HwPrNas model(mc, dataset_id,
                            41 + hw::platformIndex(platform));
        core::TrainConfig tc;
        tc.epochs = 25;
        tc.learningRate = 1e-3;
        model.train(data.select(data.trainIdx),
                    data.select(data.valIdx), platform, tc);

        core::SurrogateEvaluator eval(model);
        search::MoeaConfig sc;
        sc.populationSize = 50;
        sc.maxGenerations = 25;
        sc.simulatedBudgetSeconds = 0.0;
        Rng srng(17);
        const auto result = search::Moea(sc).run(
            search::SearchDomain::unionBenchmarks(), eval, srng);
        const auto front =
            search::measureFront(result, oracle, platform);

        double best_acc = 0.0, min_lat = 1e300;
        double fbnet = 0.0, dw_share = 0.0;
        for (std::size_t i = 0; i < front.front.size(); ++i) {
            best_acc = std::max(best_acc, 100.0 - front.front[i][0]);
            min_lat = std::min(min_lat, front.front[i][1]);
            if (front.frontArchs[i].space == nasbench::SpaceId::FBNet)
                fbnet += 1.0;
            dw_share +=
                depthwiseShare(front.frontArchs[i], dataset_id);
        }
        const double n = double(front.front.size());
        summary.addRow({hw::platformName(platform),
                        std::to_string(front.front.size()),
                        AsciiTable::num(best_acc, 2),
                        AsciiTable::num(min_lat, 3),
                        AsciiTable::num(100.0 * fbnet / n, 1),
                        AsciiTable::num(100.0 * dw_share / n, 1)});
    }

    std::cout << "\nPer-platform Pareto fronts (CIFAR-10):\n"
              << summary.render()
              << "\nMobile CPUs should lean on FBNet's depthwise "
                 "blocks; the GPU and the row-stationary ASIC prefer "
                 "dense convolutions.\n";
    return 0;
}
