#include "common/obs.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/matrix.h"

#ifndef HWPR_GIT_SHA
#define HWPR_GIT_SHA "unknown"
#endif
#ifndef HWPR_BUILD_FLAGS
#define HWPR_BUILD_FLAGS "unknown"
#endif

namespace hwpr::obs
{

namespace detail
{

std::atomic<bool> g_tracing{false};
std::atomic<bool> g_metrics{false};
std::atomic<bool> g_profiling{false};
std::atomic<bool> g_span_armed{false};

} // namespace detail

namespace
{

/** Keep the one-load span guard equal to tracing || profiling. */
void
recomputeSpanArmed()
{
    detail::g_span_armed.store(
        detail::g_tracing.load(std::memory_order_relaxed) ||
            detail::g_profiling.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
}

/** True once the profiler has ever been armed this process (the
 *  snapshot then always carries a "profile" key). */
bool profileEverArmed();

} // namespace

double
nowMicros()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point t0 = clock::now();
    return std::chrono::duration<double, std::micro>(clock::now() - t0)
        .count();
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

namespace
{

double
bitsToDouble(std::uint64_t bits)
{
    double d;
    static_assert(sizeof(d) == sizeof(bits));
    __builtin_memcpy(&d, &bits, sizeof(d));
    return d;
}

std::uint64_t
doubleToBits(double d)
{
    std::uint64_t bits;
    __builtin_memcpy(&bits, &d, sizeof(bits));
    return bits;
}

/** Default wall-time bounds in microseconds: ~1-2-5 per decade from
 *  1us to 60s. */
std::vector<double>
defaultTimeBoundsUs()
{
    return {1,    2,    5,    10,   20,   50,   100,  200,
            500,  1e3,  2e3,  5e3,  1e4,  2e4,  5e4,  1e5,
            2e5,  5e5,  1e6,  2e6,  5e6,  1e7,  3e7,  6e7};
}

} // namespace

void
Gauge::set(double v)
{
    bits_.store(doubleToBits(v), std::memory_order_relaxed);
}

double
Gauge::value() const
{
    return bitsToDouble(bits_.load(std::memory_order_relaxed));
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1)
{
}

void
Histogram::record(double v)
{
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), v);
    buckets_[std::size_t(it - bounds_.begin())].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t cur = sumBits_.load(std::memory_order_relaxed);
    for (;;) {
        const std::uint64_t next =
            doubleToBits(bitsToDouble(cur) + v);
        if (sumBits_.compare_exchange_weak(cur, next,
                                           std::memory_order_relaxed))
            break;
    }
}

std::uint64_t
Histogram::count() const
{
    return count_.load(std::memory_order_relaxed);
}

double
Histogram::sum() const
{
    return bitsToDouble(sumBits_.load(std::memory_order_relaxed));
}

double
Histogram::mean() const
{
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / double(n);
}

std::uint64_t
Histogram::bucketCount(std::size_t i) const
{
    return buckets_[i].load(std::memory_order_relaxed);
}

double
Histogram::percentile(double q) const
{
    const std::uint64_t n = count();
    if (n == 0)
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    // Target observation index (1-based); walk cumulative counts.
    const double target = q * double(n);
    double cum = 0.0;
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
        const double bn = double(bucketCount(i));
        if (bn == 0.0)
            continue;
        if (cum + bn >= target || i == bounds_.size()) {
            if (i == bounds_.size())
                // Overflow bucket has no finite upper edge: clamp to
                // the last bound (documented under-estimate).
                return bounds_.empty() ? 0.0 : bounds_.back();
            const double hi = bounds_[i];
            const double lo =
                i == 0 ? std::min(0.0, hi) : bounds_[i - 1];
            const double frac =
                std::min(1.0, std::max(0.0, (target - cum) / bn));
            return lo + frac * (hi - lo);
        }
        cum += bn;
    }
    return bounds_.empty() ? 0.0 : bounds_.back();
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sumBits_.store(0, std::memory_order_relaxed);
}

struct Registry::Impl
{
    mutable std::mutex mu;
    // std::map keeps snapshot output name-sorted for free.
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry::Registry() : impl_(new Impl)
{
}

Registry &
Registry::global()
{
    // Leaked: instrumentation sites hold references into the registry
    // and the exit-time exporters read it, so it must never be
    // destroyed before the last static destructor.
    static Registry *g = new Registry;
    return *g;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto &slot = impl_->counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto &slot = impl_->gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name)
{
    return histogram(name, defaultTimeBoundsUs());
}

Histogram &
Registry::histogram(const std::string &name,
                    std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto &slot = impl_->histograms[name];
    if (!slot)
        slot = std::make_unique<Histogram>(std::move(bounds));
    return *slot;
}

std::uint64_t
Registry::counterValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    const auto it = impl_->counters.find(name);
    return it == impl_->counters.end() ? 0 : it->second->value();
}

double
Registry::gaugeValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    const auto it = impl_->gauges.find(name);
    return it == impl_->gauges.end() ? 0.0 : it->second->value();
}

const Histogram *
Registry::findHistogram(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    const auto it = impl_->histograms.find(name);
    return it == impl_->histograms.end() ? nullptr
                                         : it->second.get();
}

namespace
{

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::string
Registry::snapshotJson(const std::string &indent) const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    std::ostringstream out;
    const std::string in1 = indent + "  ";
    const std::string in2 = indent + "    ";
    out << "{\n" << in1 << "\"counters\": {";
    bool first = true;
    for (const auto &[name, c] : impl_->counters) {
        out << (first ? "" : ",") << "\n"
            << in2 << "\"" << name << "\": " << c->value();
        first = false;
    }
    out << (first ? "" : "\n" + in1) << "},\n"
        << in1 << "\"gauges\": {";
    first = true;
    for (const auto &[name, g] : impl_->gauges) {
        out << (first ? "" : ",") << "\n"
            << in2 << "\"" << name
            << "\": " << jsonNumber(g->value());
        first = false;
    }
    out << (first ? "" : "\n" + in1) << "},\n"
        << in1 << "\"histograms\": {";
    first = true;
    for (const auto &[name, h] : impl_->histograms) {
        out << (first ? "" : ",") << "\n"
            << in2 << "\"" << name << "\": {\"count\": " << h->count()
            << ", \"sum\": " << jsonNumber(h->sum())
            << ", \"mean\": " << jsonNumber(h->mean())
            << ", \"p50\": " << jsonNumber(h->percentile(0.50))
            << ", \"p90\": " << jsonNumber(h->percentile(0.90))
            << ", \"p99\": " << jsonNumber(h->percentile(0.99))
            << ", \"buckets\": [";
        // Only non-empty buckets: [upper_bound_or_inf, count].
        bool bfirst = true;
        for (std::size_t i = 0; i <= h->bounds().size(); ++i) {
            const std::uint64_t n = h->bucketCount(i);
            if (n == 0)
                continue;
            // Overflow bucket's upper bound rendered as null.
            out << (bfirst ? "" : ", ") << "["
                << (i < h->bounds().size()
                        ? jsonNumber(h->bounds()[i])
                        : std::string("null"))
                << ", " << n << "]";
            bfirst = false;
        }
        out << "]}";
        first = false;
    }
    out << (first ? "" : "\n" + in1) << "}";
    if (profileEverArmed())
        out << ",\n" << in1 << "\"profile\": " << profileJson(in1);
    out << "\n" << indent << "}";
    return out.str();
}

bool
Registry::writeSnapshot(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << snapshotJson() << "\n";
    return bool(out);
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (auto &[name, c] : impl_->counters)
        c->reset();
    for (auto &[name, g] : impl_->gauges)
        g->set(0.0);
    for (auto &[name, h] : impl_->histograms)
        h->reset();
}

// ---------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------

namespace
{

/** One closed span. Name/key pointers are required to be literals. */
struct TraceEvent
{
    const char *name;
    double ts;
    double dur;
    std::uint32_t nargs;
    TraceArg args[Span::kMaxArgs];
};

/**
 * Per-thread event buffer. Owned by the global TraceState (not the
 * thread), so events survive thread exit; only the owning thread
 * appends, so recording needs no lock.
 *
 * The profiler's shadow stack lives here too: the owning thread
 * pushes/pops span-name literals (relaxed stores) and publishes the
 * depth with a release store; the sampler thread reads the depth with
 * an acquire load and then the frames below it. A sample racing a
 * push/pop can at worst see the neighbouring stack state — both are
 * valid attributions for that instant, and every frame it can read is
 * a string literal, so the read is always safe.
 */
struct ThreadBuffer
{
    std::uint32_t tid = 0;
    std::string threadName;
    std::vector<TraceEvent> events;
    std::uint64_t dropped = 0;

    static constexpr std::size_t kMaxProfileDepth = 64;
    std::atomic<const char *> frames[kMaxProfileDepth] = {};
    std::atomic<std::uint32_t> depth{0};

    void
    pushFrame(const char *name)
    {
        const std::uint32_t d =
            depth.load(std::memory_order_relaxed);
        if (d < kMaxProfileDepth)
            frames[d].store(name, std::memory_order_relaxed);
        depth.store(d + 1, std::memory_order_release);
    }

    void
    popFrame()
    {
        depth.store(depth.load(std::memory_order_relaxed) - 1,
                    std::memory_order_release);
    }
};

/** Buffer cap per thread; drops are counted, never silent. */
constexpr std::size_t kMaxEventsPerThread = std::size_t(1) << 21;

struct TraceState
{
    std::mutex mu;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;

    ThreadBuffer *
    registerThread()
    {
        std::lock_guard<std::mutex> lock(mu);
        auto buf = std::make_unique<ThreadBuffer>();
        buf->tid = std::uint32_t(buffers.size());
        buffers.push_back(std::move(buf));
        return buffers.back().get();
    }
};

TraceState &
traceState()
{
    static TraceState *g = new TraceState; // leaked, see Registry
    return *g;
}

ThreadBuffer &
threadBuffer()
{
    thread_local ThreadBuffer *buf = traceState().registerThread();
    return *buf;
}

// ---------------------------------------------------------------------
// Profiler state
// ---------------------------------------------------------------------

/** Flat-profile cell: leaf hits and on-stack hits for one span. */
struct FlatEntry
{
    std::uint64_t self = 0;
    std::uint64_t total = 0;
};

struct ProfilerState
{
    /** Guards aggregation and sampler thread management. */
    std::mutex mu;
    std::thread sampler;
    std::atomic<bool> running{false};
    std::uint64_t intervalUs = 1000;
    bool everArmed = false;

    /** Aggregates (under mu). std::map keeps exports name-sorted. */
    std::uint64_t samples = 0;
    std::map<std::string, FlatEntry> flat;
    std::map<std::string, std::uint64_t> paths;
};

ProfilerState &
profilerState()
{
    static ProfilerState *g = new ProfilerState; // leaked, see Registry
    return *g;
}

/**
 * One sampler tick: snapshot every thread's shadow stack, then
 * attribute. Stack copies are taken under the trace registry mutex
 * (the buffers vector may grow concurrently); aggregation happens
 * under the profiler mutex.
 */
void
profileSampleOnce(ProfilerState &prof)
{
    constexpr std::size_t kMax = ThreadBuffer::kMaxProfileDepth;
    std::vector<std::array<const char *, kMax>> stacks;
    std::vector<std::uint32_t> depths;
    {
        TraceState &state = traceState();
        std::lock_guard<std::mutex> lock(state.mu);
        for (const auto &buf : state.buffers) {
            const std::uint32_t d = std::min<std::uint32_t>(
                buf->depth.load(std::memory_order_acquire),
                std::uint32_t(kMax));
            if (d == 0)
                continue;
            stacks.emplace_back();
            for (std::uint32_t i = 0; i < d; ++i)
                stacks.back()[i] =
                    buf->frames[i].load(std::memory_order_relaxed);
            depths.push_back(d);
        }
    }
    if (stacks.empty())
        return;
    std::lock_guard<std::mutex> lock(prof.mu);
    std::string path;
    for (std::size_t s = 0; s < stacks.size(); ++s) {
        const std::uint32_t d = depths[s];
        ++prof.samples;
        path.clear();
        for (std::uint32_t i = 0; i < d; ++i) {
            const char *name = stacks[s][i];
            if (name == nullptr) // racing push; attribute what we have
                continue;
            // Total time: once per distinct name per sample.
            bool seen = false;
            for (std::uint32_t j = 0; j < i; ++j)
                seen = seen || stacks[s][j] == name;
            if (!seen)
                ++prof.flat[name].total;
            if (!path.empty())
                path += ';';
            path += name;
        }
        if (const char *leaf = stacks[s][d - 1])
            ++prof.flat[leaf].self;
        if (!path.empty())
            ++prof.paths[path];
    }
}

void
profileSamplerLoop()
{
    ProfilerState &prof = profilerState();
    while (prof.running.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(prof.intervalUs));
        if (!prof.running.load(std::memory_order_relaxed))
            break;
        profileSampleOnce(prof);
    }
}

bool
profileEverArmed()
{
    ProfilerState &prof = profilerState();
    std::lock_guard<std::mutex> lock(prof.mu);
    return prof.everArmed;
}

std::string g_trace_path;   // set under traceState().mu
std::string g_metrics_path; // set under traceState().mu

void
flushAtExit()
{
    std::string trace_path, metrics_path;
    {
        std::lock_guard<std::mutex> lock(traceState().mu);
        trace_path = g_trace_path;
        metrics_path = g_metrics_path;
    }
    if (!trace_path.empty() && !writeTrace(trace_path))
        std::fprintf(stderr, "warn: cannot write trace to %s\n",
                     trace_path.c_str());
    if (!metrics_path.empty() &&
        !Registry::global().writeSnapshot(metrics_path))
        std::fprintf(stderr, "warn: cannot write metrics to %s\n",
                     metrics_path.c_str());
}

std::once_flag g_atexit_once;

void
registerFlushAtExit()
{
    std::call_once(g_atexit_once, [] { std::atexit(flushAtExit); });
}

/** Arms collection from HWPR_TRACE / HWPR_METRICS / HWPR_PROFILE
 *  before main(). */
const bool g_env_init = [] {
    if (const char *path = std::getenv("HWPR_TRACE"))
        if (*path)
            enableTracing(path);
    if (const char *path = std::getenv("HWPR_METRICS"))
        if (*path)
            enableMetrics(path);
    if (const char *val = std::getenv("HWPR_PROFILE")) {
        // "1" arms at the default interval; any value >= 2 is the
        // sampling interval in microseconds. "0"/"" leave it off.
        char *end = nullptr;
        const unsigned long long n = std::strtoull(val, &end, 10);
        if (*val && end && *end == '\0' && n > 0) {
            if (n >= 2)
                setProfileIntervalUs(n);
            setProfilingEnabled(true);
        }
    }
    return true;
}();

} // namespace

void
Span::open(const char *name, const TraceArg *args, std::size_t n)
{
    name_ = name;
    nargs_ = std::uint32_t(std::min(n, kMaxArgs));
    for (std::size_t i = 0; i < nargs_; ++i)
        args_[i] = args[i];
    if (profilingEnabled()) {
        threadBuffer().pushFrame(name);
        profiled_ = true;
    }
    traced_ = tracingEnabled();
    if (traced_)
        start_ = nowMicros();
}

void
Span::close()
{
    // The end timestamp is taken first so buffer bookkeeping cost is
    // not charged to the span's duration.
    const double end = traced_ ? nowMicros() : 0.0;
    if (profiled_)
        threadBuffer().popFrame();
    if (!traced_)
        return;
    ThreadBuffer &buf = threadBuffer();
    if (buf.events.size() >= kMaxEventsPerThread) {
        ++buf.dropped;
        return;
    }
    TraceEvent ev;
    ev.name = name_;
    ev.ts = start_;
    ev.dur = end - start_;
    ev.nargs = nargs_;
    for (std::uint32_t i = 0; i < nargs_; ++i)
        ev.args[i] = args_[i];
    buf.events.push_back(ev);
}

void
setTracingEnabled(bool on)
{
    detail::g_tracing.store(on, std::memory_order_relaxed);
    recomputeSpanArmed();
}

void
setMetricsEnabled(bool on)
{
    detail::g_metrics.store(on, std::memory_order_relaxed);
}

void
enableTracing(const std::string &path)
{
    {
        std::lock_guard<std::mutex> lock(traceState().mu);
        g_trace_path = path;
    }
    registerFlushAtExit();
    // The enabling thread is the program's driver thread in every
    // caller (env init before main, CLI flag handling); label its
    // lane so the exported trace reads top-down.
    setThreadName("main");
    setTracingEnabled(true);
}

void
enableMetrics(const std::string &path)
{
    {
        std::lock_guard<std::mutex> lock(traceState().mu);
        g_metrics_path = path;
    }
    registerFlushAtExit();
    setMetricsEnabled(true);
}

void
setThreadName(const std::string &name)
{
    threadBuffer().threadName = name;
}

std::string
traceJson()
{
    TraceState &state = traceState();
    std::lock_guard<std::mutex> lock(state.mu);
    std::ostringstream out;
    out << "{\"traceEvents\": [";
    bool first = true;
    std::uint64_t dropped = 0;
    for (const auto &buf : state.buffers) {
        dropped += buf->dropped;
        if (!buf->threadName.empty()) {
            out << (first ? "" : ",")
                << "\n  {\"ph\": \"M\", \"pid\": 1, \"tid\": "
                << buf->tid
                << ", \"name\": \"thread_name\", \"args\": "
                << "{\"name\": \"" << buf->threadName << "\"}}";
            first = false;
        }
        for (const TraceEvent &ev : buf->events) {
            out << (first ? "" : ",")
                << "\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": "
                << buf->tid << ", \"name\": \"" << ev.name
                << "\", \"cat\": \"hwpr\", \"ts\": "
                << jsonNumber(ev.ts)
                << ", \"dur\": " << jsonNumber(ev.dur);
            if (ev.nargs > 0) {
                out << ", \"args\": {";
                for (std::uint32_t i = 0; i < ev.nargs; ++i)
                    out << (i ? ", " : "") << "\"" << ev.args[i].key
                        << "\": " << jsonNumber(ev.args[i].value);
                out << "}";
            }
            out << "}";
            first = false;
        }
    }
    out << "\n], \"displayTimeUnit\": \"ms\", "
        << "\"otherData\": {\"dropped_events\": " << dropped << "}}";
    return out.str();
}

bool
writeTrace(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << traceJson() << "\n";
    return bool(out);
}

std::size_t
traceEventCount()
{
    TraceState &state = traceState();
    std::lock_guard<std::mutex> lock(state.mu);
    std::size_t n = 0;
    for (const auto &buf : state.buffers)
        n += buf->events.size();
    return n;
}

void
clearTrace()
{
    TraceState &state = traceState();
    std::lock_guard<std::mutex> lock(state.mu);
    for (auto &buf : state.buffers) {
        buf->events.clear();
        buf->dropped = 0;
    }
}

// ---------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------

void
setProfilingEnabled(bool on)
{
    ProfilerState &prof = profilerState();
    if (on) {
        {
            std::lock_guard<std::mutex> lock(prof.mu);
            prof.everArmed = true;
        }
        if (prof.running.exchange(true))
            return; // already sampling
        detail::g_profiling.store(true, std::memory_order_relaxed);
        recomputeSpanArmed();
        prof.sampler = std::thread(profileSamplerLoop);
        return;
    }
    detail::g_profiling.store(false, std::memory_order_relaxed);
    recomputeSpanArmed();
    if (!prof.running.exchange(false))
        return;
    // Join so aggregates are stable the moment this returns; the
    // accumulated profile persists until clearProfile().
    if (prof.sampler.joinable())
        prof.sampler.join();
}

void
setProfileIntervalUs(std::uint64_t us)
{
    ProfilerState &prof = profilerState();
    std::lock_guard<std::mutex> lock(prof.mu);
    prof.intervalUs = std::max<std::uint64_t>(1, us);
}

std::uint64_t
profileIntervalUs()
{
    ProfilerState &prof = profilerState();
    std::lock_guard<std::mutex> lock(prof.mu);
    return prof.intervalUs;
}

void
clearProfile()
{
    ProfilerState &prof = profilerState();
    std::lock_guard<std::mutex> lock(prof.mu);
    prof.samples = 0;
    prof.flat.clear();
    prof.paths.clear();
}

std::uint64_t
profileSampleCount()
{
    ProfilerState &prof = profilerState();
    std::lock_guard<std::mutex> lock(prof.mu);
    return prof.samples;
}

std::uint64_t
profileSelfSamples(const std::string &name)
{
    ProfilerState &prof = profilerState();
    std::lock_guard<std::mutex> lock(prof.mu);
    const auto it = prof.flat.find(name);
    return it == prof.flat.end() ? 0 : it->second.self;
}

std::string
profileJson(const std::string &indent)
{
    ProfilerState &prof = profilerState();
    std::lock_guard<std::mutex> lock(prof.mu);
    const std::string in1 = indent + "  ";
    const std::string in2 = indent + "    ";
    std::ostringstream out;
    out << "{\n"
        << in1 << "\"armed\": "
        << (detail::g_profiling.load(std::memory_order_relaxed)
                ? "true"
                : "false")
        << ",\n"
        << in1 << "\"interval_us\": " << prof.intervalUs << ",\n"
        << in1 << "\"samples\": " << prof.samples << ",\n"
        << in1 << "\"flat\": {";
    bool first = true;
    for (const auto &[name, e] : prof.flat) {
        out << (first ? "" : ",") << "\n"
            << in2 << "\"" << name << "\": {\"self\": " << e.self
            << ", \"total\": " << e.total << ", \"self_us_est\": "
            << jsonNumber(double(e.self) * double(prof.intervalUs))
            << "}";
        first = false;
    }
    out << (first ? "" : "\n" + in1) << "},\n"
        << in1 << "\"top_down\": {";
    first = true;
    for (const auto &[path, n] : prof.paths) {
        out << (first ? "" : ",") << "\n"
            << in2 << "\"" << path << "\": " << n;
        first = false;
    }
    out << (first ? "" : "\n" + in1) << "}\n" << indent << "}";
    return out.str();
}

// ---------------------------------------------------------------------
// Run metadata
// ---------------------------------------------------------------------

ResourceUsage
resourceUsage()
{
    ResourceUsage u;
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    if (::getrusage(RUSAGE_SELF, &ru) != 0)
        return u;
    // Linux reports ru_maxrss in kilobytes.
    u.peakRssKb = double(ru.ru_maxrss);
    u.minorFaults = std::uint64_t(ru.ru_minflt);
    u.majorFaults = std::uint64_t(ru.ru_majflt);
    u.userSec = double(ru.ru_utime.tv_sec) +
                double(ru.ru_utime.tv_usec) * 1e-6;
    u.sysSec = double(ru.ru_stime.tv_sec) +
               double(ru.ru_stime.tv_usec) * 1e-6;
    return u;
}

const char *
gitSha()
{
    return HWPR_GIT_SHA;
}

const char *
buildFlags()
{
    return HWPR_BUILD_FLAGS;
}

std::string
runMetaJson(const std::string &indent)
{
    const ResourceUsage u = resourceUsage();
    const std::string in1 = indent + "  ";
    std::ostringstream out;
    out << "{\n"
        << in1 << "\"build\": \"" << buildFlags() << "\",\n"
        << in1 << "\"gemm_tiles\": \"" << gemmTilesName(gemmTiles())
        << "\",\n"
        << in1 << "\"git_sha\": \"" << gitSha() << "\",\n"
        << in1 << "\"hardware_threads\": "
        << std::thread::hardware_concurrency() << ",\n"
        << in1 << "\"page_faults_major\": " << u.majorFaults << ",\n"
        << in1 << "\"page_faults_minor\": " << u.minorFaults << ",\n"
        << in1 << "\"peak_rss_kb\": " << jsonNumber(u.peakRssKb)
        << ",\n"
        << in1 << "\"sys_sec\": " << jsonNumber(u.sysSec) << ",\n"
        << in1 << "\"user_sec\": " << jsonNumber(u.userSec) << "\n"
        << indent << "}";
    return out.str();
}

namespace detail
{

void
emitLogLine(const char *prefix, const std::string &message,
            const char *counter_name)
{
    // One write(2) per message: concurrent emitters (pool workers
    // warning mid-parallelFor) cannot interleave within each other's
    // lines the way back-to-back stream inserters can.
    std::string line;
    line.reserve(std::char_traits<char>::length(prefix) +
                 message.size() + 1);
    line += prefix;
    line += message;
    line += '\n';
    ssize_t rest = ssize_t(line.size());
    const char *p = line.data();
    while (rest > 0) {
        const ssize_t n = ::write(2, p, std::size_t(rest));
        if (n <= 0)
            break;
        p += n;
        rest -= n;
    }
    if (counter_name && metricsEnabled()) {
        // fatal()/panic() pass no counter: they never return, so a
        // registry mutation on that path is wasted work.
        Registry::global().counter(counter_name).add();
    }
}

} // namespace detail

} // namespace hwpr::obs
