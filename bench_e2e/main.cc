/**
 * @file
 * bench_e2e — the repository's end-to-end benchmark.
 *
 *   bench_e2e --workload pipeline|search|screen|serve --seed N
 *             --seconds S --trace 0|1 --out DIR [--json FILE]
 *   bench_e2e --smoke --out DIR        all four workloads, tiny sizes
 *   bench_e2e --calibrate --out DIR    closed-loop rate C of serve
 *
 * A run sets up several times, repeats the workload's operation for
 * S seconds, checks every output and prints each metric by name with
 * its unit. The last stdout line is one JSON object: {"correct",
 * "attempted", "failed", "metrics"} with the end-to-end metrics
 * (--trace 0) or the per-layer metrics (--trace 1). A traced run
 * records bench-side spans around every layer call, arms the library's
 * metrics registry, and writes DIR/trace.json (Chrome trace events).
 * Exit status is non-zero when any operation or check failed.
 *
 * bench_e2e/run.py builds this binary and is the command named in
 * BENCHMARK.json; see bench_e2e/README.md.
 */

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.h"
#include "common/obs.h"
#include "common/threadpool.h"
#include "serve/proto.h"
#include "workloads.h"

using namespace hwpr;
using namespace hwpr::e2e;

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, emitted by every workload (BENCHMARK.json). */
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_ms_p50", "ms"},
    {"heap_mb", "MB"},
};

/** Per-layer metrics of a traced run (BENCHMARK.json, README.md). A
 *  layer the workload does not exercise reads 0. */
const MetricDef kPerLayer[] = {
    {"setup.nasbench.label_s", "s"},
    {"setup.core.fit_s", "s"},
    {"setup.core.checkpoint_ms", "ms"},
    {"setup.pareto.front_ms", "ms"},
    {"nasbench.label_s", "s"},
    {"core.fit_s", "s"},
    {"core.fit.epoch_ms_mean", "ms"},
    {"common.gemm.gflops", "GFLOP/s"},
    {"common.threadpool.busy_ratio", "ratio"},
    {"core.eval_s.hwprnas", "s"},
    {"core.eval_s.brpnas", "s"},
    {"core.eval_s.dominance", "s"},
    {"core.dominance_counts_s", "s"},
    {"search.select_s.hwprnas", "s"},
    {"search.select_s.brpnas", "s"},
    {"search.select_s.dominance", "s"},
    {"core.rank_cache.hit_ratio", "ratio"},
    {"search.rescore_ms", "ms"},
    {"nasbench.measure_front_ms", "ms"},
    {"pareto.hypervolume_ms", "ms"},
    {"core.predict_us_per_arch.hwprnas", "us"},
    {"core.predict_us_per_arch.scalable", "us"},
    {"core.predict_us_per_arch.brpnas", "us"},
    {"core.predict_us_per_arch.gates", "us"},
    {"core.predict_us_per_arch.lut", "us"},
    {"core.predict_us_per_arch.dominance", "us"},
    {"core.rank_us_per_arch.hwprnas", "us"},
    {"core.rank_us_per_arch.scalable", "us"},
    {"core.rank_us_per_arch.brpnas", "us"},
    {"core.rank_us_per_arch.gates", "us"},
    {"core.rank_us_per_arch.lut", "us"},
    {"core.rank_us_per_arch.dominance", "us"},
    {"core.checkpoint_load_ms", "ms"},
    {"serve.batch_rows_mean", "rows"},
    {"serve.server_us_p50.rank", "us"},
    {"serve.server_us_p50.predict", "us"},
    {"serve.wire_us_p50", "us"},
    {"serve.job_gen_ms_p50", "ms"},
    {"serve.gen_lag_ms_p99", "ms"},
    {"trace.unattributed_pct", "%"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "bench_e2e: " << why
              << "\nusage: bench_e2e --workload pipeline|search|screen|"
                 "serve --seed N --seconds S --trace 0|1 --out DIR "
                 "[--json FILE]\n"
                 "       bench_e2e --smoke --out DIR\n"
                 "       bench_e2e --calibrate --out DIR [--seconds S]\n";
    std::exit(2);
}

/** Span self times and registry readings -> per-layer metric values. */
std::map<std::string, double>
perLayer(const RunResult &r, std::size_t threads)
{
    std::map<std::string, double> out = r.layer;
    const auto spans = Tracer::instance().spans();
    const LayerTimes lt = layerTimes(spans);
    const auto get = [](const std::map<std::string, double> &m,
                        const std::string &name) {
        const auto it = m.find(name);
        return it == m.end() ? 0.0 : it->second;
    };
    const auto self = [&](const std::string &name) {
        return get(lt.perOp, name);
    };
    out["setup.nasbench.label_s"] = get(lt.perSetup, "nasbench.label");
    out["setup.core.fit_s"] = get(lt.perSetup, "core.fit");
    out["setup.core.checkpoint_ms"] =
        (get(lt.perSetup, "core.checkpoint_save") +
         get(lt.perSetup, "core.checkpoint_load")) *
        1e3;
    out["setup.pareto.front_ms"] = get(lt.perSetup, "pareto.front") * 1e3;
    out["nasbench.label_s"] = self("nasbench.label");
    out["core.fit_s"] = self("core.fit");
    for (const std::string f : {"hwprnas", "brpnas", "dominance"}) {
        out["core.eval_s." + f] = self("core.eval." + f);
        out["search.select_s." + f] = self("search.moea." + f);
    }
    out["core.dominance_counts_s"] = self("core.dominance_counts");
    out["search.rescore_ms"] = self("search.rescore") * 1e3;
    out["nasbench.measure_front_ms"] = self("nasbench.measure_front") * 1e3;
    out["pareto.hypervolume_ms"] = self("pareto.hypervolume") * 1e3;
    out["core.checkpoint_load_ms"] = self("core.checkpoint_load") * 1e3;
    out["trace.unattributed_pct"] = lt.unattributedShare * 100.0;
    const double traced = quantiles(r.tracedOpSec).p50;
    const double untraced = quantiles(r.untracedOpSec).p50;
    out["trace.overhead_pct"] =
        untraced > 0.0 ? (traced / untraced - 1.0) * 100.0 : 0.0;

    auto &reg = obs::Registry::global();
    // The mean, not a percentile: the histogram's buckets would round
    // a percentile to the same value on every run.
    if (const obs::Histogram *h = reg.findHistogram("hwprnas.fit.epoch_us"))
        out["core.fit.epoch_ms_mean"] = h->mean() * 1e-3;
    double flops = 0.0, gemmUs = 0.0;
    for (const char *v : {"ab", "atb", "abt"}) {
        flops += double(reg.counterValue(std::string("gemm.") + v +
                                         ".flops"));
        if (const obs::Histogram *h =
                reg.findHistogram(std::string("gemm.") + v + ".us"))
            gemmUs += h->sum();
    }
    out["common.gemm.gflops"] = gemmUs > 0.0 ? flops / gemmUs * 1e-3 : 0.0;
    // Busy lane-time over armed wall-time: the registry is armed
    // exactly while root spans are open.
    double busyUs = double(reg.counterValue("threadpool.caller.busy_us"));
    for (std::size_t w = 1; w < threads; ++w)
        busyUs += double(reg.counterValue(
            "threadpool.worker." + std::to_string(w) + ".busy_us"));
    double armedUs = 0.0;
    for (const SpanRec &s : spans)
        if (s.parent < 0)
            armedUs += (s.t1 - s.t0) * 1e6;
    out["common.threadpool.busy_ratio"] =
        armedUs > 0.0 ? busyUs / (armedUs * double(threads)) : 0.0;
    const double hits = double(reg.counterValue("predict.rank_cache.hits"));
    const double misses =
        double(reg.counterValue("predict.rank_cache.misses"));
    out["core.rank_cache.hit_ratio"] =
        hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    return out;
}

std::string
metricsJson(const std::vector<std::pair<const MetricDef *, double>> &ms)
{
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        out += i ? ", \"" : "\"";
        out += ms[i].first->name;
        out += "\": {\"value\": " + serve::jsonNumber(ms[i].second) +
               ", \"unit\": \"" + ms[i].first->unit + "\"}";
    }
    return out + "}";
}

std::string
namedJson(const std::map<std::string, Metric> &ms)
{
    std::string out = "{";
    for (const auto &[name, m] : ms) {
        out += out.size() > 1 ? ", " : "";
        out += serve::jsonQuote(name) + ": {\"value\": " +
               serve::jsonNumber(m.value) + ", \"unit\": " +
               serve::jsonQuote(m.unit) + "}";
    }
    return out + "}";
}

RunResult
runWorkload(const std::string &workload, const RunConfig &cfg)
{
    if (workload == "pipeline")
        return runPipeline(cfg);
    if (workload == "search")
        return runSearch(cfg);
    if (workload == "screen")
        return runScreen(cfg);
    return runServe(cfg);
}

/** Pool lanes (plus, for serve, the server loop and this generator
 *  thread) stay within min(4, nproc). */
std::size_t
poolSize(const std::string &workload)
{
    const std::size_t hw =
        std::max(1u, std::thread::hardware_concurrency());
    return std::min<std::size_t>(workload == "serve" ? 2 : 4, hw);
}

/** Run one workload, print its report; returns the process status. */
int
report(const std::string &workload, RunConfig cfg,
       const std::string &json_path, bool result_line)
{
    cfg.threads = poolSize(workload);
    ExecContext::setGlobalThreads(cfg.threads);
    obs::Registry::global().reset();
    std::printf("bench_e2e %s: seed %llu, %.0f s, trace %d, pool %zu%s\n",
                workload.c_str(), static_cast<unsigned long long>(cfg.seed),
                cfg.seconds, cfg.trace ? 1 : 0, cfg.threads,
                cfg.smoke ? ", smoke sizes" : "");
    std::fflush(stdout);

    RunResult r;
    try {
        r = runWorkload(workload, cfg);
    } catch (const std::exception &e) {
        r.attempted = std::max<std::size_t>(r.attempted, 1);
        r.fail(std::string("exception: ") + e.what());
    }

    const Quantiles setup = quantiles(r.setupSec);
    const Quantiles op = quantiles(r.opSec);
    r.workload["peak_rss_mb"] = {obs::resourceUsage().peakRssKb / 1024.0,
                                 "MB"};
    const double e2e[] = {setup.p50, op.p50 * 1e3,
                          quantiles(r.opHeapMb).p50};

    std::printf("workload metrics:\n");
    for (const auto &[name, m] : r.workload)
        std::printf("  %-28s %14.6g %s\n", name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("end-to-end metrics (op: %s; set-up: %s):\n",
                describe(op, 1e3, "ms").c_str(),
                describe(setup, 1.0, "s").c_str());
    std::vector<std::pair<const MetricDef *, double>> shown;
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
        std::printf("  %-28s %14.6g %s\n", kEndToEnd[i].name, e2e[i],
                    kEndToEnd[i].unit);
        if (!cfg.trace)
            shown.push_back({&kEndToEnd[i], e2e[i]});
    }
    if (cfg.trace) {
        const auto layer = perLayer(r, cfg.threads);
        std::printf("per-layer metrics (traced operations):\n");
        for (const MetricDef &m : kPerLayer) {
            const auto it = layer.find(m.name);
            const double v = it == layer.end() ? 0.0 : it->second;
            std::printf("  %-36s %14.6g %s\n", m.name, v, m.unit);
            shown.push_back({&m, v});
        }
        const std::string tracePath = cfg.outDir + "/trace.json";
        if (!Tracer::instance().writeChromeTrace(tracePath))
            r.fail("cannot write " + tracePath);
    }
    for (const auto &f : r.failures)
        std::printf("FAILED: %s\n", f.c_str());
    const bool correct = r.failed == 0 && r.attempted > 0;
    const std::string metrics = metricsJson(shown);

    if (!json_path.empty()) {
        std::ostringstream js;
        js << "{\n  \"bench\": \"bench_e2e\",\n  \"workload\": \""
           << workload << "\",\n  \"seed\": " << cfg.seed
           << ",\n  \"seconds\": " << cfg.seconds
           << ",\n  \"trace\": " << (cfg.trace ? 1 : 0)
           << ",\n  \"threads\": " << cfg.threads
           << ",\n  \"meta\": " << obs::runMetaJson("  ")
           << ",\n  \"correct\": " << (correct ? "true" : "false")
           << ",\n  \"attempted\": " << r.attempted
           << ",\n  \"failed\": " << r.failed
           << ",\n  \"metrics\": " << metrics
           << ",\n  \"workload_metrics\": " << namedJson(r.workload)
           << ",\n  \"fingerprints\": {";
        bool first = true;
        for (const auto &[k, v] : r.fingerprints) {
            js << (first ? "" : ", ") << serve::jsonQuote(k) << ": "
               << serve::jsonQuote(v);
            first = false;
        }
        js << "},\n  \"setup_samples_s\": [";
        for (std::size_t i = 0; i < r.setupSec.size(); ++i)
            js << (i ? ", " : "") << serve::jsonNumber(r.setupSec[i]);
        js << "],\n  \"op_samples_ms\": [";
        for (std::size_t i = 0; i < r.opSec.size(); ++i)
            js << (i ? ", " : "") << serve::jsonNumber(r.opSec[i] * 1e3);
        js << "],\n  \"op\": {\"n\": " << op.n << ", \"p50_ms\": "
           << serve::jsonNumber(op.p50 * 1e3) << ", \"tail_ms\": "
           << serve::jsonNumber(op.tail * 1e3) << ", \"tail_level\": "
           << serve::jsonNumber(op.tailLevel) << "}\n}\n";
        std::ofstream out(json_path, std::ios::trunc);
        out << js.str();
        if (!out.flush())
            std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                         json_path.c_str());
    }
    if (result_line)
        std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": "
                    "%zu, \"metrics\": %s}\n",
                    correct ? "true" : "false", r.attempted, r.failed,
                    metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // glibc adapts its mmap and trim thresholds to the first large
    // blocks freed, so how often one run page-faults depended on which
    // thread freed first: 0.4 to 2.5 million faults, and 1.7 to 2.5 s
    // per pipeline, for one seed. Fixing both at the highest values
    // that adaptation reaches makes runs repeat (README "Allocator").
    ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
    ::mallopt(M_TRIM_THRESHOLD, 64 << 20);

    std::string workload, outDir, jsonPath;
    RunConfig cfg;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    bool smoke = false, calibrate = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                workload = value();
            } else if (arg == "--seed") {
                cfg.seed = std::stoull(value());
                haveSeed = true;
            } else if (arg == "--seconds") {
                cfg.seconds = std::stod(value());
                haveSeconds = cfg.seconds > 0.0;
            } else if (arg == "--trace") {
                const std::string t = value();
                if (t != "0" && t != "1")
                    usage("--trace takes 0 or 1");
                cfg.trace = t == "1";
                haveTrace = true;
            } else if (arg == "--out") {
                outDir = value();
            } else if (arg == "--json") {
                jsonPath = value();
            } else if (arg == "--smoke") {
                smoke = true;
            } else if (arg == "--calibrate") {
                calibrate = true;
            } else {
                usage("unknown argument '" + arg + "'");
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + arg);
        }
    }
    if (outDir.empty())
        usage("--out is required");
    std::filesystem::create_directories(outDir);
    cfg.outDir = outDir;
    baselines::registerBaselineLoaders();

    if (calibrate) {
        cfg.seconds = haveSeconds ? cfg.seconds : 10.0;
        cfg.threads = poolSize("serve");
        ExecContext::setGlobalThreads(cfg.threads);
        std::printf("closed-loop rate C of the serve mix: %.1f "
                    "requests/s\n",
                    calibrateServe(cfg));
        return 0;
    }
    if (smoke) {
        cfg.smoke = true;
        cfg.seconds = 1.0;
        int status = 0;
        for (const char *w : {"pipeline", "search", "screen", "serve"})
            status |= report(w, cfg, "", false);
        // The traced path too, on the cheapest workload.
        cfg.trace = true;
        status |= report("pipeline", cfg, "", false);
        std::printf("smoke: %s\n", status == 0 ? "ok" : "FAILED");
        return status;
    }
    if (workload != "pipeline" && workload != "search" &&
        workload != "screen" && workload != "serve")
        usage("--workload must be pipeline, search, screen or serve");
    if (!haveSeed || !haveSeconds || !haveTrace)
        usage("--seed, --seconds and --trace are required");
    return report(workload, cfg, jsonPath, true);
}
