/**
 * @file
 * Micro-benchmarks (google-benchmark) for the kernels every
 * experiment leans on: matrix multiply, non-dominated sorting,
 * hypervolume, Kendall tau, the hardware cost model, architecture
 * encoders, the listwise loss, and the batched inference paths.
 *
 * Besides the google-benchmark suite, `--batch-json[=FILE]` runs a
 * fixed grid of batched-forward, fused-surrogate and parallel-GEMM
 * measurements (batch 1/32/256/1024 x threads 1/2/4/N, all five
 * surrogate families through their plan-backed predictBatch) and
 * writes them as JSON (default BENCH_batch.json) so the
 * batching/threading speedup is tracked across PRs. `--quick` shrinks
 * the grid (mlp + gemm only, batch 1/1024, 0.05 s budget) for CI
 * smoke jobs.
 *
 * `--quant-json[=FILE]` sweeps the rank path instead (default
 * BENCH_quant.json): every family's warm rankBatch vs predictBatch
 * ops/s at batch=256 on one thread, plus the rank-vs-predict Kendall
 * tau on seeded NB201-only and FBNet-only pools. CI gates tau == 1
 * for every family (the two passes return the same bits) and >= 2x
 * speedup for the MLP-backed ones. Unlike --batch-json, --quick still
 * fits all families (the tau gates need them) and only shrinks pools
 * and timing budgets.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "baselines/brpnas.h"
#include "baselines/gates.h"
#include "baselines/lut.h"
#include "common/obs.h"
#include "common/stats.h"
#include "common/threadpool.h"
#include "core/batch_plan.h"
#include "core/dominance.h"
#include "core/encoding.h"
#include "core/hwprnas.h"
#include "core/scalable.h"
#include "nasbench/dataset.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/scratch.h"
#include "pareto/pareto.h"

using namespace hwpr;

namespace
{

Matrix
randomMatrix(std::size_t r, std::size_t c, Rng &rng)
{
    Matrix m(r, c);
    for (double &v : m.raw())
        v = rng.normal();
    return m;
}

std::vector<pareto::Point>
randomCloud(std::size_t n, std::size_t dims, Rng &rng)
{
    std::vector<pareto::Point> pts(n, pareto::Point(dims));
    for (auto &p : pts)
        for (double &v : p)
            v = rng.uniform();
    return pts;
}

void
BM_Matmul(benchmark::State &state)
{
    const std::size_t n = std::size_t(state.range(0));
    Rng rng(1);
    const Matrix a = randomMatrix(n, n, rng);
    const Matrix b = randomMatrix(n, n, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.matmul(b));
    state.SetItemsProcessed(int64_t(state.iterations()) * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void
nonDominatedSort(benchmark::State &state, std::size_t dims)
{
    Rng rng(2);
    const auto pts =
        randomCloud(std::size_t(state.range(0)), dims, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(pareto::paretoRanks(pts));
}

// 4,000 points is the pipeline and search reference cloud.
void
BM_NonDominatedSort(benchmark::State &state)
{
    nonDominatedSort(state, 2);
}
BENCHMARK(BM_NonDominatedSort)->Arg(150)->Arg(300)->Arg(1000)->Arg(4000);

// Three objectives take the front-scan path instead of the
// newest-member check.
void
BM_NonDominatedSort3D(benchmark::State &state)
{
    nonDominatedSort(state, 3);
}
BENCHMARK(BM_NonDominatedSort3D)->Arg(150)->Arg(1000)->Arg(4000);

void
BM_Hypervolume2D(benchmark::State &state)
{
    Rng rng(3);
    const auto pts =
        randomCloud(std::size_t(state.range(0)), 2, rng);
    const pareto::Point ref = {1.1, 1.1};
    for (auto _ : state)
        benchmark::DoNotOptimize(pareto::hypervolume(pts, ref));
}
BENCHMARK(BM_Hypervolume2D)->Arg(100)->Arg(1000);

void
BM_Hypervolume3D(benchmark::State &state)
{
    Rng rng(4);
    const auto pts =
        randomCloud(std::size_t(state.range(0)), 3, rng);
    const pareto::Point ref = {1.1, 1.1, 1.1};
    for (auto _ : state)
        benchmark::DoNotOptimize(pareto::hypervolume(pts, ref));
}
BENCHMARK(BM_Hypervolume3D)->Arg(100)->Arg(500);

void
BM_KendallTau(benchmark::State &state)
{
    Rng rng(5);
    const std::size_t n = std::size_t(state.range(0));
    std::vector<double> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = rng.uniform();
        y[i] = rng.uniform();
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(kendallTau(x, y));
}
BENCHMARK(BM_KendallTau)->Arg(1000)->Arg(10000);

void
BM_OracleRecord(benchmark::State &state)
{
    // Cold-path cost of one full measurement (accuracy simulation +
    // 7-platform cost model). A fresh architecture every iteration.
    nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
    Rng rng(6);
    for (auto _ : state) {
        const auto a = nasbench::fbnet().sample(rng);
        benchmark::DoNotOptimize(oracle.record(a));
    }
}
BENCHMARK(BM_OracleRecord);

void
BM_GcnEncode(benchmark::State &state)
{
    Rng rng(7);
    std::vector<nasbench::Architecture> archs;
    for (int i = 0; i < 64; ++i)
        archs.push_back(nasbench::nasBench201().sample(rng));
    core::EncoderConfig cfg;
    core::ArchEncoder enc(core::EncodingKind::GCN, cfg,
                          nasbench::DatasetId::Cifar10, archs, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(enc.encode(archs));
    state.SetItemsProcessed(int64_t(state.iterations()) * 64);
}
BENCHMARK(BM_GcnEncode);

void
BM_LstmEncode(benchmark::State &state)
{
    Rng rng(8);
    std::vector<nasbench::Architecture> archs;
    for (int i = 0; i < 64; ++i)
        archs.push_back(nasbench::fbnet().sample(rng));
    core::EncoderConfig cfg;
    core::ArchEncoder enc(core::EncodingKind::LSTM, cfg,
                          nasbench::DatasetId::Cifar10, archs, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(enc.encode(archs));
    state.SetItemsProcessed(int64_t(state.iterations()) * 64);
}
BENCHMARK(BM_LstmEncode);

void
BM_ListMleLossBackward(benchmark::State &state)
{
    Rng rng(9);
    const std::size_t n = 128;
    std::vector<int> ranks(n);
    for (auto &r : ranks)
        r = rng.intIn(1, 10);
    for (auto _ : state) {
        nn::Tensor s =
            nn::Tensor::param(randomMatrix(n, 1, rng), "s");
        nn::Tensor loss = nn::listMleParetoLoss(s, ranks);
        nn::backward(loss);
        benchmark::DoNotOptimize(s.grad());
    }
}
BENCHMARK(BM_ListMleLossBackward);

// ---------------------------------------------------------------------
// Batched-forward / parallel-GEMM cases (the execution substrate the
// unified Surrogate interface runs on).
// ---------------------------------------------------------------------

/** A surrogate-head-sized MLP shared by the batched-forward cases. */
const nn::Mlp &
benchMlp()
{
    static Rng rng(10);
    static const nn::Mlp mlp = [] {
        nn::MlpConfig cfg;
        cfg.inDim = 96;
        cfg.hidden = {64, 32};
        cfg.outDim = 1;
        return nn::Mlp(cfg, rng);
    }();
    return mlp;
}

void
BM_MlpPredictBatch(benchmark::State &state)
{
    const std::size_t batch = std::size_t(state.range(0));
    Rng rng(11);
    const Matrix x = randomMatrix(batch, benchMlp().config().inDim, rng);
    nn::PredictScratch scratch;
    Matrix out(batch, benchMlp().config().outDim);
    for (auto _ : state) {
        scratch.reset();
        benchMlp().predictBatchInto(x, scratch, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(batch));
}
BENCHMARK(BM_MlpPredictBatch)->Arg(1)->Arg(32)->Arg(256)->Arg(1024);

void
BM_GemmThreads(benchmark::State &state)
{
    // One 256^3 GEMM, which is above the parallel threshold, at an
    // explicit global pool size. google-benchmark runs all cases in
    // one process, so the pool is restored afterwards.
    const std::size_t threads = std::size_t(state.range(0));
    const std::size_t before = ExecContext::global().threads();
    ExecContext::setGlobalThreads(threads);
    Rng rng(12);
    const std::size_t n = 256;
    const Matrix a = randomMatrix(n, n, rng);
    const Matrix b = randomMatrix(n, n, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.matmul(b));
    state.SetItemsProcessed(int64_t(state.iterations()) * n * n * n);
    ExecContext::setGlobalThreads(before);
}
BENCHMARK(BM_GemmThreads)->Arg(1)->Arg(2)->Arg(4);

// ---------------------------------------------------------------------
// --batch-json mode: fixed measurement grid, machine-readable output
// ---------------------------------------------------------------------

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Seconds per call of @p fn, repeated until @p budget s elapsed. */
template <class Fn>
double
secondsPerCall(const Fn &fn, double budget = 0.2)
{
    fn(); // warm-up
    std::size_t reps = 1;
    for (;;) {
        const double t0 = wallSeconds();
        for (std::size_t i = 0; i < reps; ++i)
            fn();
        const double dt = wallSeconds() - t0;
        if (dt >= budget)
            return dt / double(reps);
        reps = dt <= 1e-4 ? reps * 16 : reps * 2;
    }
}

/** One fitted surrogate family measured through predictBatch. */
struct FamilyCase
{
    std::string kernel;
    std::unique_ptr<core::Surrogate> model;
    core::BatchPlan plan;
};

/**
 * Fit all five surrogate families on a small sampled dataset (the
 * test-suite "tiny" protocol: 300 archs from both spaces, fast
 * encoder dims, a few epochs). Training quality is irrelevant here —
 * the measured inference path is identical to a fully trained model's.
 */
std::vector<FamilyCase>
fitFamilies(const nasbench::SampledDataset &data)
{
    core::EncoderConfig enc;
    enc.gcnHidden = 16;
    enc.lstmHidden = 16;
    enc.embedDim = 8;

    core::TrainConfig quick;
    quick.epochs = 6;
    quick.combinerEpochs = 2;
    quick.learningRate = 2e-3;

    core::SurrogateDataset sd;
    sd.train = data.select(data.trainIdx);
    sd.val = data.select(data.valIdx);
    sd.platform = hw::PlatformId::EdgeGpu;
    ExecContext ctx = ExecContext::global().withSeed(14);

    std::vector<FamilyCase> families;
    auto add = [&](const char *kernel,
                   std::unique_ptr<core::Surrogate> model) {
        std::cout << "fitting " << kernel << "...\n";
        model->fit(sd, ctx);
        families.push_back({kernel, std::move(model), {}});
    };

    core::HwPrNasConfig mc;
    mc.encoder = enc;
    auto hwpr = std::make_unique<core::HwPrNas>(
        mc, nasbench::DatasetId::Cifar10, 1);
    hwpr->setFitConfig(quick);
    add("hwprnas_predict_batch", std::move(hwpr));

    core::ScalableConfig sc;
    sc.encoder = enc;
    auto scalable = std::make_unique<core::ScalableHwPrNas>(
        sc, nasbench::DatasetId::Cifar10, 2);
    scalable->setFitConfig(quick);
    add("scalable_predict_batch", std::move(scalable));

    add("brpnas_predict_batch",
        std::make_unique<baselines::BrpNas>(
            enc, nasbench::DatasetId::Cifar10, 3));
    add("gates_predict_batch",
        std::make_unique<baselines::Gates>(
            enc, nasbench::DatasetId::Cifar10, 4));
    add("lut_predict_batch",
        std::make_unique<baselines::LatencyLut>(
            nasbench::DatasetId::Cifar10, hw::PlatformId::EdgeGpu));

    core::DominanceConfig dc;
    dc.encoder = enc;
    dc.headHidden = {16, 8};
    dc.referenceSize = 16;
    auto dom = std::make_unique<core::DominanceSurrogate>(
        dc, nasbench::DatasetId::Cifar10, 5);
    dom->setFitConfig(quick);
    add("dominance_predict_batch", std::move(dom));
    return families;
}

int
emitBatchJson(const std::string &path, bool quick)
{
    // Snapshot the kernel-level registry activity (GEMM variants,
    // thread-pool chunking, per-family ops/s gauges) alongside the
    // throughput numbers.
    obs::setMetricsEnabled(true);
    const std::size_t hw = ExecContext::global().threads();
    std::vector<std::size_t> thread_counts = {1, 2, 4};
    if (hw > 4)
        thread_counts.push_back(hw);
    const std::vector<std::size_t> batches =
        quick ? std::vector<std::size_t>{1, 1024}
              : std::vector<std::size_t>{1, 32, 256, 1024};
    const double budget = quick ? 0.05 : 0.2;
    const std::size_t before = hw;

    // The surrogate-family sweep needs fitted models and a pool of
    // architectures to rank; both come from the tiny sampled dataset.
    std::vector<FamilyCase> families;
    std::vector<nasbench::Architecture> pool;
    if (!quick) {
        static nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
        Rng data_rng(88);
        const auto data = nasbench::SampledDataset::sample(
            {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle,
            300, 200, 50, data_rng);
        families = fitFamilies(data);
        for (const auto *rec : data.select(data.testIdx))
            pool.push_back(rec->arch);
    }

    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write " << path << "\n";
        return 1;
    }
    out << "{\n  \"bench\": \"bench_micro_kernels --batch-json\",\n"
        << "  \"meta\": " << obs::runMetaJson("  ") << ",\n"
        << "  \"hardware_threads\": " << hw << ",\n"
        << "  \"cases\": [";

    bool first = true;
    auto emit = [&](const std::string &kernel, std::size_t batch,
                    std::size_t threads, double ops_per_sec) {
        out << (first ? "" : ",") << "\n    {\"kernel\": \"" << kernel
            << "\", \"batch\": " << batch
            << ", \"threads\": " << threads
            << ", \"ops_per_sec\": " << ops_per_sec << "}";
        first = false;
        std::cout << kernel << " batch=" << batch
                  << " threads=" << threads << ": " << ops_per_sec
                  << " ops/s\n";
    };

    Rng rng(13);
    // The MLP forward reuses one plan across the whole grid, exactly
    // like a search driver reuses its plan across generations.
    core::BatchPlan mlp_plan;
    const nn::Mlp &mlp = benchMlp();
    const std::size_t in_dim = mlp.config().inDim;
    for (std::size_t threads : thread_counts) {
        ExecContext::setGlobalThreads(threads);
        // Fused batched MLP forward: ops/sec = architectures (rows)
        // per second through the surrogate head. Zero allocation per
        // call once the plan is warm.
        for (std::size_t batch : batches) {
            const Matrix x = randomMatrix(batch, in_dim, rng);
            const double spc = secondsPerCall(
                [&] {
                    Matrix &o = mlp_plan.prepare(batch, 1);
                    mlp_plan.forEachChunk(
                        "mlp",
                        [&](nn::PredictScratch &scratch,
                            std::size_t i0, std::size_t i1) {
                            const std::size_t len = i1 - i0;
                            Matrix &in = scratch.acquire(len, in_dim);
                            std::copy(
                                x.raw().begin() +
                                    std::ptrdiff_t(i0 * in_dim),
                                x.raw().begin() +
                                    std::ptrdiff_t(i1 * in_dim),
                                in.raw().begin());
                            Matrix &y = scratch.acquire(len, 1);
                            mlp.predictBatchInto(in, scratch, y);
                            for (std::size_t r = 0; r < len; ++r)
                                o(i0 + r, 0) = y(r, 0);
                        });
                    benchmark::DoNotOptimize(o.data());
                },
                budget);
            emit("mlp_predict_batch", batch, threads,
                 double(batch) / spc);
        }
        // Full fused pipelines: encode + predict per family through
        // the plan-backed predictBatch.
        for (auto &fam : families) {
            for (std::size_t batch : batches) {
                std::vector<nasbench::Architecture> archs;
                archs.reserve(batch);
                for (std::size_t i = 0; i < batch; ++i)
                    archs.push_back(pool[i % pool.size()]);
                const double spc = secondsPerCall(
                    [&] {
                        benchmark::DoNotOptimize(
                            fam.model->predictBatch(archs, fam.plan)
                                .data());
                    },
                    budget);
                emit(fam.kernel, batch, threads, double(batch) / spc);
            }
        }
        // Parallel GEMM: ops/sec = multiply-accumulate ops per second
        // of one n^3 product per "batch" row count.
        const std::size_t n = 256;
        const Matrix a = randomMatrix(n, n, rng);
        const Matrix b = randomMatrix(n, n, rng);
        const double spc = secondsPerCall(
            [&] { benchmark::DoNotOptimize(a.matmul(b)); }, budget);
        emit("gemm_256", n, threads, double(n) * n * n / spc);
    }
    ExecContext::setGlobalThreads(before);

    out << "\n  ],\n  \"metrics\": "
        << obs::Registry::global().snapshotJson("  ") << "\n}\n";
    std::cout << "wrote " << path << "\n";
    return 0;
}

// ---------------------------------------------------------------------
// --quant-json mode: rank path vs predict, throughput + rank agreement
// ---------------------------------------------------------------------

/** Min over output columns of the rank-vs-predict Kendall tau. */
double
minColumnTau(const Matrix &predict, const Matrix &rank)
{
    double mn = 1.0;
    std::vector<double> x(predict.rows()), y(predict.rows());
    for (std::size_t c = 0; c < predict.cols(); ++c) {
        for (std::size_t r = 0; r < predict.rows(); ++r) {
            x[r] = predict(r, c);
            y[r] = rank(r, c);
        }
        mn = std::min(mn, kendallTau(x, y));
    }
    return mn;
}

int
emitQuantJson(const std::string &path, bool quick)
{
    obs::setMetricsEnabled(true);
    const std::size_t before = ExecContext::global().threads();
    // The 2x acceptance gate is a single-thread comparison: both
    // paths parallelize the same way, so threads would only add noise.
    ExecContext::setGlobalThreads(1);
    const double budget = quick ? 0.05 : 0.2;
    const std::size_t tau_n = quick ? 120 : 256;
    const std::size_t batch = 256;

    // Unlike --batch-json --quick, the families are always fitted:
    // the tau gates are the point of this mode.
    static nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
    Rng data_rng(88);
    const auto data = nasbench::SampledDataset::sample(
        {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle, 300,
        200, 50, data_rng);
    auto families = fitFamilies(data);
    std::vector<nasbench::Architecture> pool;
    for (const auto *rec : data.select(data.testIdx))
        pool.push_back(rec->arch);

    // Per-space rank-fidelity pools (seeded, disjoint from training
    // by construction only in expectation — fidelity, not accuracy,
    // is being measured, so overlap is harmless).
    Rng pool_rng(99);
    std::vector<nasbench::Architecture> nb201_pool, fbnet_pool;
    for (std::size_t i = 0; i < tau_n; ++i) {
        nb201_pool.push_back(nasbench::nasBench201().sample(pool_rng));
        fbnet_pool.push_back(nasbench::fbnet().sample(pool_rng));
    }

    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write " << path << "\n";
        return 1;
    }
    out << "{\n  \"bench\": \"bench_micro_kernels --quant-json\",\n"
        << "  \"meta\": " << obs::runMetaJson("  ") << ",\n"
        << "  \"note\": \"rank ops/s measured warm: encodings are "
           "memoized after the first rankBatch pass, which is the "
           "steady-state regime of a search loop re-scoring stable "
           "populations\",\n"
        << "  \"cases\": [";

    bool first = true;
    for (auto &fam : families) {
        const std::string family =
            fam.kernel.substr(0, fam.kernel.find("_predict_batch"));
        // "mlp_backed" marks families whose declared MLP heads run
        // over cached encodings on the rank path (the 2x CI gate).
        // The LUT has no MLP at all, and the dominance head is not
        // declared: its chunk body runs it over the differences to
        // its anchors.
        const bool mlp_backed =
            family != "lut" && family != "dominance";

        // Rank agreement per space: the passes run through separate
        // plans so both outputs stay live for the comparison.
        core::BatchPlan predict_plan, rank_plan;
        const auto tau_for =
            [&](const std::vector<nasbench::Architecture> &archs) {
                const Matrix &f =
                    fam.model->predictBatch(archs, predict_plan);
                const Matrix &q = fam.model->rankBatch(archs, rank_plan);
                return minColumnTau(f, q);
            };
        const double tau_nb201 = tau_for(nb201_pool);
        const double tau_fbnet = tau_for(fbnet_pool);

        std::vector<nasbench::Architecture> archs;
        archs.reserve(batch);
        for (std::size_t i = 0; i < batch; ++i)
            archs.push_back(pool[i % pool.size()]);
        const double fp64_spc = secondsPerCall(
            [&] {
                benchmark::DoNotOptimize(
                    fam.model->predictBatch(archs, predict_plan).data());
            },
            budget);
        const double rank_spc = secondsPerCall(
            [&] {
                benchmark::DoNotOptimize(
                    fam.model->rankBatch(archs, rank_plan).data());
            },
            budget);
        const double fp64_ops = double(batch) / fp64_spc;
        const double rank_ops = double(batch) / rank_spc;

        out << (first ? "" : ",") << "\n    {\"family\": \"" << family
            << "\", \"batch\": " << batch << ", \"threads\": 1"
            << ", \"fp64_ops_per_sec\": " << fp64_ops
            << ", \"rank_ops_per_sec\": " << rank_ops
            << ", \"speedup\": " << rank_ops / fp64_ops
            << ", \"tau_nb201\": " << tau_nb201
            << ", \"tau_fbnet\": " << tau_fbnet << ", \"mlp_backed\": "
            << (mlp_backed ? "true" : "false") << "}";
        first = false;
        std::cout << family << ": fp64 " << fp64_ops << " ops/s, rank "
                  << rank_ops << " ops/s (" << rank_ops / fp64_ops
                  << "x), tau nb201=" << tau_nb201
                  << " fbnet=" << tau_fbnet << "\n";
    }
    ExecContext::setGlobalThreads(before);

    out << "\n  ],\n  \"metrics\": "
        << obs::Registry::global().snapshotJson("  ") << "\n}\n";
    std::cout << "wrote " << path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Consume observability flags before google-benchmark sees the
    // argument list (it rejects unknown flags).
    int kept = 1;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--trace=", 0) == 0) {
            obs::enableTracing(arg.substr(arg.find('=') + 1));
        } else if (arg.rfind("--metrics=", 0) == 0) {
            obs::enableMetrics(arg.substr(arg.find('=') + 1));
        } else if (arg == "--quick") {
            quick = true;
        } else {
            argv[kept++] = argv[i];
        }
    }
    argc = kept;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--batch-json", 0) == 0) {
            const auto eq = arg.find('=');
            return emitBatchJson(eq == std::string::npos
                                     ? "BENCH_batch.json"
                                     : arg.substr(eq + 1),
                                 quick);
        }
        if (arg.rfind("--quant-json", 0) == 0) {
            const auto eq = arg.find('=');
            return emitQuantJson(eq == std::string::npos
                                     ? "BENCH_quant.json"
                                     : arg.substr(eq + 1),
                                 quick);
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
