/**
 * @file
 * hwpr — command-line front end to the library.
 *
 *   hwpr sample  --space union --count 10 --dataset cifar10
 *   hwpr measure --space nb201 --arch "3,3,0,0,0,1" --dataset cifar10
 *   hwpr lower   --space fbnet --arch "..." --platform edgegpu
 *   hwpr train   --dataset cifar10 --platform edgegpu --samples 1200
 *                --epochs 40 --out model.bin
 *   hwpr search  --model model.bin --pop 60 --gens 40
 *                [--checkpoint-dir DIR [--resume]]
 *
 * Every subcommand prints aligned tables; see --help output for the
 * full option list.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string_view>

#include "argparse.h"

#include "baselines/registry.h"
#include "common/csv.h"
#include "common/ledger.h"
#include "common/obs.h"
#include "common/table.h"
#include "common/threadpool.h"
#include "hw/cost_model.h"
#include "core/hwprnas.h"
#include "core/surrogate.h"
#include "pareto/pareto.h"
#include "search/moea.h"
#include "search/report.h"

using namespace hwpr;
using tools::Args;

namespace
{

void
usage()
{
    std::cout <<
        R"(hwpr — HW-PR-NAS command line

subcommands:
  sample   sample architectures and print measured metrics
           --space nb201|fbnet|union  --count N  --dataset D  --seed S
  measure  measure one architecture on all 7 platforms
           --space nb201|fbnet  --arch "genes or |canonical~string|"
           --dataset D
  lower    per-operator latency/energy breakdown on one platform
           --space S --arch A --dataset D --platform P [--top N]
  train    train a HW-PR-NAS surrogate and write a checkpoint
           --dataset D --platform P --samples N --epochs E
           --lr X --seed S --out FILE
  search   run the MOEA with a trained surrogate checkpoint
           --model FILE --pop N --gens G --seed S
           --csv FILE             also write the measured front as
                                  CSV; exits non-zero if the write
                                  fails (full disk, bad path)
           --checkpoint-dir DIR   write a crash-safe search
                                  checkpoint (DIR/moea.ckpt) after
                                  every generation
           --resume               continue from DIR/moea.ckpt; with
                                  the same model, config and seed the
                                  result is bit-identical to an
                                  uninterrupted run
           HWPR_RANK_ONLY=1       score generations through the
                                  encoding cache (rankBatch): the
                                  same scores, so the same output
global options:
  --threads N   size of the shared execution thread pool (default:
                HWPR_THREADS env var, else hardware concurrency).
                Results are identical at every thread count.
  --trace FILE  record trace spans and write Chrome trace-event JSON
                to FILE at exit (view in Perfetto / chrome://tracing;
                same as HWPR_TRACE=FILE). No effect on results.
  --metrics FILE
                collect runtime counters/gauges/histograms and write
                a JSON snapshot to FILE at exit (same as
                HWPR_METRICS=FILE). No effect on results.
datasets:  cifar10 cifar100 imagenet16
platforms: edgegpu edgetpu raspberrypi4 fpga-zc706 fpga-zcu102
           pixel3 eyeriss
)";
}

const nasbench::SearchSpace &
spaceArg(const Args &args)
{
    const std::string name = args.get("space", "nb201");
    if (name == "nb201" || name == "nasbench201")
        return nasbench::nasBench201();
    if (name == "fbnet")
        return nasbench::fbnet();
    fatal("unknown space '", name, "' (nb201 | fbnet)");
}

nasbench::DatasetId
datasetArg(const Args &args)
{
    nasbench::DatasetId dataset;
    const std::string name = args.get("dataset", "cifar10");
    HWPR_CHECK(nasbench::datasetFromName(name, dataset),
               "unknown dataset '", name, "'");
    return dataset;
}

hw::PlatformId
platformArg(const Args &args)
{
    hw::PlatformId platform;
    const std::string name = args.get("platform", "edgegpu");
    HWPR_CHECK(hw::platformFromName(name, platform),
               "unknown platform '", name, "'");
    return platform;
}

nasbench::Architecture
archArg(const Args &args)
{
    const auto &space = spaceArg(args);
    const std::string text = args.get("arch");
    HWPR_CHECK(!text.empty(), "--arch is required");
    return text.find('|') != std::string::npos
               ? space.fromString(text)
               : space.fromGenome(text);
}

int
cmdSample(const Args &args)
{
    const auto dataset = datasetArg(args);
    const long count = args.getInt("count", 10);
    Rng rng(std::uint64_t(args.getInt("seed", 1)));
    nasbench::Oracle oracle(dataset);

    const std::string space_name = args.get("space", "union");
    const search::SearchDomain domain =
        space_name == "union"
            ? search::SearchDomain::unionBenchmarks()
            : search::SearchDomain::single(spaceArg(args));

    AsciiTable table({"space", "genotype", "accuracy (%)",
                      "latency EdgeGPU (ms)", "latency Pixel3 (ms)"});
    for (long i = 0; i < count; ++i) {
        const auto a = domain.sample(rng);
        const auto &rec = oracle.record(a);
        table.addRow({
            nasbench::spaceFor(a.space).name(),
            nasbench::spaceFor(a.space).toString(a),
            AsciiTable::num(rec.accuracy, 2),
            AsciiTable::num(
                rec.latencyMs[hw::platformIndex(
                    hw::PlatformId::EdgeGpu)],
                3),
            AsciiTable::num(
                rec.latencyMs[hw::platformIndex(
                    hw::PlatformId::Pixel3)],
                3),
        });
    }
    std::cout << table.render();
    return 0;
}

int
cmdMeasure(const Args &args)
{
    const auto dataset = datasetArg(args);
    const auto arch = archArg(args);
    nasbench::Oracle oracle(dataset);
    const auto &rec = oracle.record(arch);

    std::cout << "architecture: "
              << nasbench::spaceFor(arch.space).toString(arch) << "\n"
              << "dataset:      " << nasbench::datasetName(dataset)
              << "\n"
              << "accuracy:     " << AsciiTable::num(rec.accuracy, 2)
              << " %\n\n";
    AsciiTable table({"platform", "latency (ms)", "energy (mJ)"});
    for (hw::PlatformId p : hw::allPlatforms()) {
        const std::size_t i = hw::platformIndex(p);
        table.addRow({hw::platformName(p),
                      AsciiTable::num(rec.latencyMs[i], 3),
                      AsciiTable::num(rec.energyMj[i], 3)});
    }
    std::cout << table.render();
    return 0;
}

int
cmdLower(const Args &args)
{
    const auto dataset = datasetArg(args);
    const auto platform = platformArg(args);
    const auto arch = archArg(args);
    const long top = args.getInt("top", 15);

    const auto net =
        nasbench::spaceFor(arch.space).lower(arch, dataset);
    const hw::CostModel model = hw::costModelFor(platform);

    struct Row
    {
        std::size_t index;
        hw::OpWorkload op;
        hw::CostBreakdown cost;
    };
    std::vector<Row> rows;
    for (std::size_t i = 0; i < net.size(); ++i)
        rows.push_back({i, net[i], model.opCost(net[i])});
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        return a.cost.latencySec > b.cost.latencySec;
    });

    const auto total = model.networkCost(net);
    std::cout << "end-to-end on " << hw::platformName(platform)
              << ": "
              << AsciiTable::num(total.latencySec * 1e3, 3) << " ms, "
              << AsciiTable::num(total.energyJ * 1e3, 3) << " mJ ("
              << net.size() << " ops; cross-op overlap applied)\n\n";

    AsciiTable table({"#", "op", "shape", "latency (us)",
                      "bound by"});
    for (long i = 0; i < top && i < long(rows.size()); ++i) {
        const Row &r = rows[std::size_t(i)];
        table.addRow({
            std::to_string(r.index),
            hw::opKindName(r.op.kind) +
                (r.op.isDepthwise() ? " (dw)" : ""),
            std::to_string(r.op.h) + "x" + std::to_string(r.op.w) +
                " " + std::to_string(r.op.cin) + "->" +
                std::to_string(r.op.cout) + " k" +
                std::to_string(r.op.kernel) + " s" +
                std::to_string(r.op.stride),
            AsciiTable::num(r.cost.latencySec * 1e6, 2),
            r.cost.computeSec >= r.cost.memorySec ? "compute"
                                                  : "memory",
        });
    }
    std::cout << table.render();
    return 0;
}

int
cmdTrain(const Args &args)
{
    const auto dataset = datasetArg(args);
    const auto platform = platformArg(args);
    const long samples = args.getInt("samples", 1200);
    const long train_count = samples * 6 / 10;
    const long val_count = samples * 2 / 10;
    const std::string out = args.get("out", "hwpr_model.bin");
    Rng rng(std::uint64_t(args.getInt("seed", 1)));

    nasbench::Oracle oracle(dataset);
    std::cout << "sampling " << samples << " architectures..."
              << std::endl;
    const auto data = nasbench::SampledDataset::sample(
        {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle,
        std::size_t(samples), std::size_t(train_count),
        std::size_t(val_count), rng);

    core::HwPrNasConfig mc;
    core::HwPrNas model(mc, dataset,
                        std::uint64_t(args.getInt("seed", 1)));
    core::TrainConfig tc;
    tc.epochs = std::size_t(args.getInt("epochs", 40));
    tc.learningRate = args.getDouble("lr", 1e-3);
    std::cout << "training HW-PR-NAS for "
              << hw::platformName(platform) << " ("
              << tc.epochs << " epochs)..." << std::endl;
    const double t0 = obs::nowMicros();
    model.train(data.select(data.trainIdx), data.select(data.valIdx),
                platform, tc);
    const double wall_sec = (obs::nowMicros() - t0) * 1e-6;

    HWPR_CHECK(model.save(out), "could not write '", out, "'");
    std::cout << "checkpoint written to " << out << std::endl;

    ledger::Record rec("train");
    rec.add("dataset", nasbench::datasetName(dataset))
        .add("platform", hw::platformName(platform))
        .add("samples", double(samples))
        .add("epochs", double(tc.epochs))
        .add("lr", tc.learningRate)
        .add("seed", double(args.getInt("seed", 1)))
        .add("wall_sec", wall_sec)
        .add("checkpoint", out)
        .addRaw("metrics",
                obs::Registry::global().snapshotJson());
    ledger::append(rec);
    return 0;
}

int
cmdSearch(const Args &args)
{
    const std::string path = args.get("model", "hwpr_model.bin");
    const auto model = core::HwPrNas::load(path);
    HWPR_CHECK(model != nullptr,
               "could not load checkpoint '", path,
               "' (missing, corrupt or not a HW-PR-NAS model)");
    std::cout << "loaded surrogate for "
              << hw::platformName(model->platform()) << " / "
              << nasbench::datasetName(model->dataset()) << std::endl;

    core::SurrogateEvaluator eval(*model);
    // HWPR_RANK_ONLY: any value but "" / "0" enables rank-only mode.
    const char *rank_only = std::getenv("HWPR_RANK_ONLY");
    eval.setRankOnly(rank_only != nullptr && *rank_only != '\0' &&
                     std::string_view(rank_only) != "0");
    if (eval.rankOnly())
        std::cout << "rank-only mode (HWPR_RANK_ONLY): generations "
                     "scored through the encoding cache"
                  << std::endl;
    search::MoeaConfig mc;
    mc.populationSize = std::size_t(args.getInt("pop", 60));
    mc.maxGenerations = std::size_t(args.getInt("gens", 40));
    mc.simulatedBudgetSeconds = 0.0;
    Rng rng(std::uint64_t(args.getInt("seed", 1)));

    search::CheckpointOptions ckpt;
    search::MoeaCheckpoint resume_state;
    ckpt.dir = args.get("checkpoint-dir", "");
    if (!ckpt.dir.empty())
        std::filesystem::create_directories(ckpt.dir);
    if (args.has("resume")) {
        HWPR_CHECK(!ckpt.dir.empty(),
                   "--resume requires --checkpoint-dir");
        const std::string ck_path = ckpt.dir + "/moea.ckpt";
        HWPR_CHECK(search::loadMoeaCheckpoint(ck_path, resume_state),
                   "missing or corrupt search checkpoint '", ck_path,
                   "'");
        ckpt.resume = &resume_state;
        std::cout << "resuming from generation "
                  << resume_state.stats.generations << std::endl;
    }

    const double t0 = obs::nowMicros();
    auto result = search::Moea(mc).run(
        search::SearchDomain::unionBenchmarks(), eval, rng, ckpt);
    const double wall_sec = (obs::nowMicros() - t0) * 1e-6;

    // Fitness-space summary: fp64 in either mode, since rankBatch
    // returns predictBatch's bits. For a scalar ParetoScore evaluator
    // the fitness-space Pareto front degenerates to the best score.
    double best_score = 0.0, mean_score = 0.0;
    if (!result.fitness.empty() && result.fitness[0].size() == 1) {
        double best = result.fitness[0][0];
        double sum = 0.0;
        for (const auto &p : result.fitness) {
            best = std::max(best, p[0]);
            sum += p[0];
        }
        best_score = best;
        mean_score = sum / double(result.fitness.size());
        std::cout << "final population score (fp64): best "
                  << AsciiTable::num(best, 6) << ", mean "
                  << AsciiTable::num(mean_score, 6) << std::endl;
    }

    nasbench::Oracle oracle(model->dataset());
    const auto front =
        search::measureFront(result, oracle, model->platform());
    AsciiTable table({"space", "genotype", "accuracy (%)",
                      "latency (ms)"});
    for (std::size_t i = 0; i < front.front.size(); ++i) {
        const auto &arch = front.frontArchs[i];
        table.addRow({
            nasbench::spaceFor(arch.space).name(),
            nasbench::spaceFor(arch.space).toString(arch),
            AsciiTable::num(100.0 - front.front[i][0], 2),
            AsciiTable::num(front.front[i][1], 3),
        });
    }
    std::cout << "true Pareto front of the final population ("
              << front.front.size() << " architectures):\n"
              << table.render();

    const std::string csv_path = args.get("csv", "");
    if (!csv_path.empty()) {
        CsvWriter csv(csv_path, {"space", "genotype", "accuracy_pct",
                                 "latency_ms"});
        for (std::size_t i = 0; i < front.front.size(); ++i) {
            const auto &arch = front.frontArchs[i];
            csv.addRow({
                nasbench::spaceFor(arch.space).name(),
                nasbench::spaceFor(arch.space).toString(arch),
                AsciiTable::num(100.0 - front.front[i][0], 4),
                AsciiTable::num(front.front[i][1], 4),
            });
        }
        HWPR_CHECK(csv.ok(), "could not write Pareto front CSV '",
                   csv_path, "' (open or write failure)");
        std::cout << "front written to " << csv_path << std::endl;
    }

    // Hypervolume of the oracle-measured front against a reference
    // 10% beyond the componentwise worst — the headline quality
    // number the run ledger tracks across commits.
    double hv = 0.0;
    if (!front.front.empty()) {
        pareto::Point ref = front.front[0];
        for (const auto &p : front.front)
            for (std::size_t d = 0; d < ref.size(); ++d)
                ref[d] = std::max(ref[d], p[d]);
        for (double &r : ref)
            r = r * 1.1 + 1e-9;
        hv = pareto::hypervolume(front.front, ref);
    }

    ledger::Record rec("search");
    rec.add("model", path)
        .add("dataset", nasbench::datasetName(model->dataset()))
        .add("platform", hw::platformName(model->platform()))
        .add("pop", double(mc.populationSize))
        .add("gens", double(mc.maxGenerations))
        .add("seed", double(args.getInt("seed", 1)))
        .add("rank_only", eval.rankOnly() ? 1.0 : 0.0)
        .add("wall_sec", wall_sec)
        .add("best_score_fp64", best_score)
        .add("mean_score_fp64", mean_score)
        .add("front_size", double(front.front.size()))
        .add("front_hypervolume", hv)
        .addRaw("metrics", obs::Registry::global().snapshotJson());
    ledger::append(rec);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = Args::parse(argc, argv);
    if (args.command().empty() || args.has("help")) {
        usage();
        return args.command().empty() ? 1 : 0;
    }
    baselines::registerBaselineLoaders();
    if (args.has("threads"))
        ExecContext::setGlobalThreads(
            std::size_t(std::max(1L, args.getInt("threads", 1))));
    if (args.has("trace"))
        obs::enableTracing(args.get("trace"));
    if (args.has("metrics"))
        obs::enableMetrics(args.get("metrics"));
    if (args.command() == "sample")
        return cmdSample(args);
    if (args.command() == "measure")
        return cmdMeasure(args);
    if (args.command() == "lower")
        return cmdLower(args);
    if (args.command() == "train")
        return cmdTrain(args);
    if (args.command() == "search")
        return cmdSearch(args);
    usage();
    fatal("unknown subcommand '", args.command(), "'");
}
