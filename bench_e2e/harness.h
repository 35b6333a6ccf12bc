/**
 * @file
 * Shared pieces of the end-to-end benchmark: the percentile helper,
 * the bench-side span recorder, the per-run result record and the
 * seeded generators every workload draws its inputs from.
 *
 * Spans are recorded only around the benchmark's own calls into the
 * library's public functions; the library itself is measured from
 * outside. Every span carries a name, start, end, parent and request
 * id, stays in memory, and is written as Chrome trace-event JSON at
 * exit (`hwpr-obs trace --in FILE` folds it into self times).
 */

#ifndef HWPR_BENCH_E2E_HARNESS_H
#define HWPR_BENCH_E2E_HARNESS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "nasbench/arch.h"
#include "search/domain.h"

namespace hwpr::e2e
{

/** Steady-clock seconds. */
double nowSec();

/**
 * Median plus the highest percentile that has at least ten samples
 * beyond it (capped at p99), and the sample count. With fewer than 20
 * samples no percentile qualifies and the tail is the maximum
 * (tailLevel 1).
 */
struct Quantiles
{
    std::size_t n = 0;
    double p50 = 0.0;
    double tailLevel = 0.0;
    double tail = 0.0;
};
Quantiles quantiles(std::vector<double> v);

/** "p50 X, p99 Y (n=N)" with values scaled by @p scale. */
std::string describe(const Quantiles &q, double scale,
                     const std::string &unit);

// ---------------------------------------------------------------------
// Bench-side tracing
// ---------------------------------------------------------------------

/** One recorded span; times in steady-clock seconds. */
struct SpanRec
{
    const char *name;
    double t0;
    double t1;
    std::int64_t parent; ///< index into the span list, -1 for a root
    std::uint64_t req;
    std::uint32_t tid;
};

/**
 * Process-wide span recorder. Disabled, a span costs one relaxed load.
 * Names must be string literals (the recorder keeps the pointers).
 */
class Tracer
{
  public:
    static Tracer &instance();

    /** Arm or disarm span recording and the library's metrics
     *  registry together. */
    void setEnabled(bool on);
    bool enabled() const { return on_.load(std::memory_order_relaxed); }

    /** Open a span on the calling thread; returns its index. */
    std::int64_t open(const char *name, std::uint64_t req);
    void close(std::int64_t idx);

    std::vector<SpanRec> spans() const;

    /** Chrome trace-event JSON ("ph":"X"; parent and req in args). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::atomic<bool> on_{false};
    mutable std::mutex mu_;
    std::vector<SpanRec> spans_;
};

/** RAII span; a no-op while the tracer is disabled. */
class Span
{
  public:
    explicit Span(const char *name, std::uint64_t req = 0)
        : idx_(Tracer::instance().enabled()
                   ? Tracer::instance().open(name, req)
                   : -1)
    {}
    ~Span()
    {
        if (idx_ >= 0)
            Tracer::instance().close(idx_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    std::int64_t idx_;
};

/**
 * Per-name self time (span duration minus the part its children
 * cover), kept apart by the kind of root span it ran under: roots
 * named "op.*" are operations, roots named "setup.*" are set-ups. Each
 * map holds a name's total self time under roots of that kind divided
 * by the number of such roots, so values read "seconds per operation"
 * and "seconds per set-up".
 */
struct LayerTimes
{
    std::map<std::string, double> perOp;
    std::map<std::string, double> perSetup;
    /** Self time of root spans over their total: the share of traced
     *  wall-clock no layer span accounts for. */
    double unattributedShare = 0.0;
};
LayerTimes layerTimes(const std::vector<SpanRec> &spans);

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

/** A named value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Everything one workload run hands back to the reporter. */
struct RunResult
{
    /** Wall-clock of each complete set-up. */
    std::vector<double> setupSec;
    /** Wall-clock of each timed operation (see the README per
     *  workload: pipeline, search round, screen batch, request). */
    std::vector<double> opSec;
    /** In a traced run: op times (serve: window medians) with tracing
     *  on and off, for the overhead estimate. */
    std::vector<double> tracedOpSec, untracedOpSec;
    /** Per timed operation, the most heap live while it ran (MB).
     *  Serve requests overlap, so there it holds one value: the heap
     *  live at the end of the run, what its requests left in the
     *  server's plan and rank cache. */
    std::vector<double> opHeapMb;

    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;

    /** Workload-specific figures (README "workload metrics"):
     *  pipeline_s, rank_tau, search_s.*, serve_p99_us... */
    std::map<std::string, Metric> workload;
    /** Per-layer values only the workload can compute. */
    std::map<std::string, double> layer;
    /** Determinism fingerprints (identical for equal seeds). */
    std::map<std::string, std::string> fingerprints;

    /** Record a failed check (counts as a failed operation). */
    void fail(const std::string &why);
};

/** Live C++ heap now, and its highest value since the last
 *  resetPeakHeap(), in MB (heap.cc). */
double liveHeapMb();
double peakHeapMb();
/** Restart the peak from the heap live now. */
void resetPeakHeap();

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/**
 * Seeded stream of architectures from the NB201 + FBNet union that
 * never repeats within one stream.
 */
class FreshArchs
{
  public:
    explicit FreshArchs(std::uint64_t seed)
        : rng_(seed),
          domain_(search::SearchDomain::unionBenchmarks())
    {}

    nasbench::Architecture next();
    std::vector<nasbench::Architecture> take(std::size_t n);
    /** Never hand out any of @p archs. */
    void exclude(const std::vector<nasbench::Architecture> &archs);

  private:
    Rng rng_;
    search::SearchDomain domain_;
    std::unordered_set<nasbench::Architecture, nasbench::ArchHash>
        seen_;
};

/** Stable hex fingerprint of a population (order-sensitive). */
std::string fingerprint(const std::vector<nasbench::Architecture> &pop);

/** Mix a run seed with a stream tag into an independent seed. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t tag);

} // namespace hwpr::e2e

#endif // HWPR_BENCH_E2E_HARNESS_H
