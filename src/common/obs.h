/**
 * @file
 * Process-wide runtime observability: RAII trace spans and a metrics
 * registry, both designed around one hard constraint — when disabled,
 * an instrumentation site costs one relaxed atomic load and a branch.
 *
 * Tracing. `HWPR_SPAN("hwprnas.fit.epoch", {{"epoch", e}})` opens a
 * span that closes at scope exit. Spans are recorded into per-thread
 * buffers (each thread appends to its own buffer, no locks on the
 * record path; buffers are owned by a global registry so they survive
 * thread exit) and export as Chrome trace-event JSON ("ph":"X"
 * complete events) loadable in chrome://tracing or Perfetto. Nesting
 * falls out of the format: same-thread spans whose [ts, ts+dur)
 * intervals contain each other render as a stack in the thread's
 * lane. Span names and attribute keys must be string literals (the
 * recorder stores the pointers).
 *
 * Metrics. A registry of named counters (monotonic, relaxed atomic),
 * gauges (last-written double) and fixed-bucket histograms
 * (upper-bound buckets + count + sum, all atomics), exported as one
 * JSON snapshot. Instrumentation sites cache the `Counter&` /
 * `Histogram&` in a function-local static so the name lookup is paid
 * once per site, not per event.
 *
 * Enabling. `HWPR_TRACE=<path>` / `HWPR_METRICS=<path>` environment
 * variables arm collection at process start and write the files at
 * exit; `tools/hwpr --trace/--metrics` and the bench binaries'
 * `--trace=`/`--metrics=` flags do the same programmatically. Tests
 * and benches can also toggle collection without any file via
 * setTracingEnabled()/setMetricsEnabled() and render in-memory with
 * traceJson()/Registry::snapshotJson().
 *
 * Profiling. `HWPR_PROFILE=1` (or `=<interval_us>`) arms a
 * self-sampling wall-clock profiler: every armed span additionally
 * pushes its name onto a per-thread shadow stack, and a background
 * sampler thread wakes on a fixed interval, reads every thread's
 * innermost active span stack, and attributes the sample — self time
 * to the leaf span, total time to every span on the stack, and one
 * count to the full "a;b;c" path (folded-stack format). The resulting
 * flat + top-down profile is embedded in the metrics snapshot
 * ("profile" key) and in the bench JSONs. Cost when disarmed: nothing
 * beyond the usual one-load span guard; when armed: two relaxed
 * stores per span plus a 1 kHz reader thread.
 *
 * Determinism. Recording only reads the steady clock — it never
 * touches an Rng or changes chunk layouts — and the profiler's
 * sampler only *reads* the shadow stacks, so every bit-identical
 * invariant (same-seed fits, thread-count-invariant searches) holds
 * with observability and profiling on and off.
 *
 * Quiescence. Exporting or clearing the trace walks every thread's
 * buffer; call writeTrace()/traceJson()/clearTrace() only while no
 * other thread is recording (after pool work has drained — the
 * parallelFor barrier guarantees that between top-level calls).
 */

#ifndef HWPR_COMMON_OBS_H
#define HWPR_COMMON_OBS_H

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace hwpr::obs
{

namespace detail
{

/** Collection master switches; read on every instrumentation site. */
extern std::atomic<bool> g_tracing;
extern std::atomic<bool> g_metrics;
extern std::atomic<bool> g_profiling;
/** tracing || profiling — the single load a Span constructor pays. */
extern std::atomic<bool> g_span_armed;

/**
 * Emit "<prefix><message>\n" to stderr as one write(2) so concurrent
 * emitters never interleave mid-line, and (when metrics are enabled
 * and @p counter_name is non-null) bump that registry counter.
 * Backing for the logging.h emitters.
 */
void emitLogLine(const char *prefix, const std::string &message,
                 const char *counter_name);

} // namespace detail

/** True when span recording is armed (one relaxed load). */
inline bool
tracingEnabled()
{
    return detail::g_tracing.load(std::memory_order_relaxed);
}

/** True when metric recording is armed (one relaxed load). */
inline bool
metricsEnabled()
{
    return detail::g_metrics.load(std::memory_order_relaxed);
}

/** True when the sampling profiler is armed (one relaxed load). */
inline bool
profilingEnabled()
{
    return detail::g_profiling.load(std::memory_order_relaxed);
}

/** Microseconds since an arbitrary process-stable epoch. */
double nowMicros();

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/** Monotonic event counter. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    /** Back to zero (tests / Registry::reset only). */
    void
    reset()
    {
        v_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/** Last-written value (e.g. the current epoch's validation loss). */
class Gauge
{
  public:
    void set(double v);
    double value() const;

  private:
    std::atomic<std::uint64_t> bits_{0};
};

/**
 * Fixed-bucket histogram: @p bounds are ascending inclusive upper
 * bounds; one implicit overflow bucket catches everything above the
 * last bound. record() is lock-free (relaxed bucket/count increments,
 * CAS loop for the double sum).
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> bounds);

    void record(double v);

    std::uint64_t count() const;
    double sum() const;
    /** Mean of recorded values (0 when empty). */
    double mean() const;
    /**
     * Estimated @p q-quantile (q in [0, 1]) by linear interpolation
     * inside the bucket holding the target observation; values in the
     * overflow bucket clamp to the last finite bound. 0 when empty.
     * The snapshot embeds p50/p90/p99 computed this way.
     */
    double percentile(double q) const;
    /** Observations in bucket @p i (bounds().size() + 1 buckets). */
    std::uint64_t bucketCount(std::size_t i) const;
    const std::vector<double> &bounds() const { return bounds_; }

    /** Zero all buckets/count/sum (tests / Registry::reset only). */
    void reset();

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sumBits_{0};
};

/**
 * Scoped wall-time recorder: at destruction adds the elapsed
 * microseconds to a histogram, but only when metrics are enabled at
 * construction time (disabled cost: one load + branch).
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram &hist)
        : hist_(metricsEnabled() ? &hist : nullptr),
          start_(hist_ ? nowMicros() : 0.0)
    {}

    ~ScopedTimer()
    {
        if (hist_)
            hist_->record(nowMicros() - start_);
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Histogram *hist_;
    double start_;
};

/**
 * Global name -> metric registry. Lookups take a mutex; cache the
 * returned reference (function-local static) at hot sites. Metrics
 * are never unregistered, so references stay valid for the process
 * lifetime.
 */
class Registry
{
  public:
    /** The process-wide registry (never destroyed). */
    static Registry &global();

    /** Find-or-create a counter. */
    Counter &counter(const std::string &name);
    /** Find-or-create a gauge. */
    Gauge &gauge(const std::string &name);
    /** Find-or-create a histogram with the default wall-time-us
     *  bounds (1us ... 60s, roughly 1-2-5 per decade). */
    Histogram &histogram(const std::string &name);
    /** Find-or-create a histogram with explicit bucket bounds. The
     *  bounds of an existing histogram are not changed. */
    Histogram &histogram(const std::string &name,
                         std::vector<double> bounds);

    /** Current counter value; 0 when the name was never registered. */
    std::uint64_t counterValue(const std::string &name) const;
    /** Current gauge value; 0 when never registered. */
    double gaugeValue(const std::string &name) const;
    /** Histogram lookup without creation; nullptr when absent. */
    const Histogram *findHistogram(const std::string &name) const;

    /**
     * One JSON object {"counters": {...}, "gauges": {...},
     * "histograms": {name: {count, sum, mean, buckets: [[bound,
     * count], ...]}}} with names sorted for stable output.
     * @p indent prefixes every line (for embedding in bench JSON).
     */
    std::string snapshotJson(const std::string &indent = "") const;

    /** Write snapshotJson() to @p path; false on I/O failure. */
    bool writeSnapshot(const std::string &path) const;

    /** Zero every value, keeping registrations (tests only). */
    void reset();

    Registry();

  private:
    struct Impl;
    Impl *impl_; // leaked with the registry
};

// ---------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------

/** One numeric span attribute; the key must be a string literal. */
struct TraceArg
{
    const char *key;
    double value;
};

/**
 * RAII trace span; prefer the HWPR_SPAN macro. At most four
 * attributes are kept (excess is dropped — attributes are a debugging
 * aid, not a data channel).
 */
class Span
{
  public:
    explicit Span(const char *name)
    {
        if (detail::g_span_armed.load(std::memory_order_relaxed))
            open(name, nullptr, 0);
    }

    Span(const char *name, std::initializer_list<TraceArg> args)
    {
        if (detail::g_span_armed.load(std::memory_order_relaxed))
            open(name, args.begin(), args.size());
    }

    ~Span()
    {
        if (name_)
            close();
    }

    /**
     * Attach (or overwrite) a numeric attribute before the span
     * closes — for values only known at the end of the scope, like a
     * generation's evaluation count. @p key must be a string literal;
     * no-op when the span is disabled or attributes are full.
     */
    void
    arg(const char *key, double value)
    {
        if (!name_)
            return;
        for (std::uint32_t i = 0; i < nargs_; ++i) {
            if (args_[i].key == key) {
                args_[i].value = value;
                return;
            }
        }
        if (nargs_ < kMaxArgs)
            args_[nargs_++] = {key, value};
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    static constexpr std::size_t kMaxArgs = 4;

  private:
    void open(const char *name, const TraceArg *args, std::size_t n);
    void close();

    const char *name_ = nullptr;
    double start_ = 0.0;
    std::uint32_t nargs_ = 0;
    /** Tracing was armed at open: record a TraceEvent at close. */
    bool traced_ = false;
    /** A profile frame was pushed at open: pop it at close. */
    bool profiled_ = false;
    TraceArg args_[kMaxArgs];
};

/** Arm/disarm span collection (no file; pair with traceJson()). */
void setTracingEnabled(bool on);
/** Arm/disarm metric collection (no file). */
void setMetricsEnabled(bool on);

/**
 * Arm tracing and schedule a Chrome-trace JSON dump to @p path at
 * process exit (also what HWPR_TRACE=<path> does).
 */
void enableTracing(const std::string &path);

/**
 * Arm metrics and schedule a registry snapshot to @p path at process
 * exit (also what HWPR_METRICS=<path> does).
 */
void enableMetrics(const std::string &path);

/**
 * Label the calling thread's lane in the exported trace (emitted as a
 * "thread_name" metadata event). Safe to call with tracing disabled.
 */
void setThreadName(const std::string &name);

/** Render all recorded spans as Chrome trace-event JSON. */
std::string traceJson();

/** Write traceJson() to @p path; false on I/O failure. */
bool writeTrace(const std::string &path);

/** Spans recorded so far across all threads. */
std::size_t traceEventCount();

/** Drop all recorded spans (tests only; see quiescence note). */
void clearTrace();

// ---------------------------------------------------------------------
// Self-sampling wall-clock profiler
// ---------------------------------------------------------------------

/**
 * Arm or disarm the sampling profiler (also what HWPR_PROFILE does).
 * Arming starts the background sampler thread; disarming stops and
 * joins it, so aggregates are stable once this returns. Aggregates
 * accumulate across arm/disarm cycles until clearProfile().
 */
void setProfilingEnabled(bool on);

/**
 * Sampling interval in microseconds (default 1000). Takes effect the
 * next time the profiler is armed; HWPR_PROFILE=<n> for n >= 2 sets
 * it from the environment.
 */
void setProfileIntervalUs(std::uint64_t us);
std::uint64_t profileIntervalUs();

/** Drop all accumulated profile samples (tests / between runs). */
void clearProfile();

/**
 * Samples attributed so far: one per (sampler tick, thread with at
 * least one active span). Threads with empty span stacks contribute
 * nothing.
 */
std::uint64_t profileSampleCount();

/** Self samples attributed to span @p name (leaf-of-stack hits). */
std::uint64_t profileSelfSamples(const std::string &name);

/**
 * The profile as JSON: {"armed", "interval_us", "samples", "flat":
 * {name: {"self", "total", "self_us_est"}}, "top_down": {"a;b;c":
 * samples}} with sorted keys. Registry::snapshotJson embeds this as
 * the "profile" key whenever the profiler has ever been armed.
 */
std::string profileJson(const std::string &indent = "");

// ---------------------------------------------------------------------
// Run metadata (ledger + bench provenance)
// ---------------------------------------------------------------------

/** Process resource usage via getrusage(RUSAGE_SELF). */
struct ResourceUsage
{
    double peakRssKb = 0.0;        ///< high-water resident set (kB)
    std::uint64_t minorFaults = 0; ///< page reclaims (no I/O)
    std::uint64_t majorFaults = 0; ///< page faults requiring I/O
    double userSec = 0.0;          ///< user CPU time
    double sysSec = 0.0;           ///< system CPU time
};
ResourceUsage resourceUsage();

/** Git revision the binary was configured from ("unknown" outside a
 *  checkout; injected by CMake as HWPR_GIT_SHA). */
const char *gitSha();

/** Build type + compiler flags string (injected by CMake). */
const char *buildFlags();

/**
 * One JSON object with run provenance and vitals: build flags, the
 * GEMM tile set that ran (gemm_tiles: avx512, avx2 or portable), git
 * sha, hardware_threads, peak RSS and page-fault counts. Embedded in
 * every bench JSON ("meta" key) and every ledger record.
 */
std::string runMetaJson(const std::string &indent = "");

} // namespace hwpr::obs

#define HWPR_OBS_CONCAT2(a, b) a##b
#define HWPR_OBS_CONCAT(a, b) HWPR_OBS_CONCAT2(a, b)

/**
 * Open a scope-bound trace span:
 *   HWPR_SPAN("moea.generation", {{"gen", double(g)}});
 * The name (and attribute keys) must be string literals.
 */
#define HWPR_SPAN(...)                                                   \
    ::hwpr::obs::Span HWPR_OBS_CONCAT(hwpr_obs_span_,                    \
                                      __COUNTER__)(__VA_ARGS__)

#endif // HWPR_COMMON_OBS_H
