#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/obs.h"

namespace hwpr::e2e
{

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Quantiles
quantiles(std::vector<double> v)
{
    Quantiles q;
    q.n = v.size();
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    q.p50 = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    if (n < 20) {
        q.tailLevel = 1.0;
        q.tail = v.back();
        return q;
    }
    // Nearest rank with ten samples strictly above it, capped at p99.
    q.tailLevel = std::min(0.99, double(n - 10) / double(n));
    const auto rank =
        std::size_t(std::ceil(q.tailLevel * double(n) - 1e-9));
    q.tail = v[rank - 1];
    return q;
}

std::string
describe(const Quantiles &q, double scale, const std::string &unit)
{
    char level[16], buf[160];
    if (q.tailLevel >= 1.0)
        std::snprintf(level, sizeof(level), "max");
    else
        std::snprintf(level, sizeof(level), "p%.4g", q.tailLevel * 100.0);
    std::snprintf(buf, sizeof(buf), "p50 %.4g %s, %s %.4g %s (n=%zu)",
                  q.p50 * scale, unit.c_str(), level, q.tail * scale,
                  unit.c_str(), q.n);
    return buf;
}

// ---------------------------------------------------------------------

namespace
{

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<std::int64_t> tl_stack;

std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t id = next.fetch_add(1);
    return id;
}

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer t;
    return t;
}

void
Tracer::setEnabled(bool on)
{
    on_.store(on, std::memory_order_relaxed);
    obs::setMetricsEnabled(on);
}

std::int64_t
Tracer::open(const char *name, std::uint64_t req)
{
    const std::int64_t parent = tl_stack.empty() ? -1 : tl_stack.back();
    const std::uint32_t tid = threadIndex();
    std::int64_t idx;
    {
        std::lock_guard lock(mu_);
        idx = std::int64_t(spans_.size());
        spans_.push_back({name, nowSec(), 0.0, parent, req, tid});
    }
    tl_stack.push_back(idx);
    return idx;
}

void
Tracer::close(std::int64_t idx)
{
    const double t1 = nowSec();
    {
        std::lock_guard lock(mu_);
        spans_[std::size_t(idx)].t1 = t1;
    }
    if (!tl_stack.empty() && tl_stack.back() == idx)
        tl_stack.pop_back();
}

std::vector<SpanRec>
Tracer::spans() const
{
    std::lock_guard lock(mu_);
    return spans_;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    const std::vector<SpanRec> all = spans();
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    const double base = all.empty() ? 0.0 : all.front().t0;
    out << "{\"traceEvents\": [";
    char buf[320];
    for (std::size_t i = 0; i < all.size(); ++i) {
        const SpanRec &s = all[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"span\": %zu, \"parent\": %lld, "
                      "\"req\": %llu}}",
                      i == 0 ? "" : ",", s.name, s.tid,
                      (s.t0 - base) * 1e6, (s.t1 - s.t0) * 1e6, i,
                      static_cast<long long>(s.parent),
                      static_cast<unsigned long long>(s.req));
        out << buf;
    }
    out << "\n]}\n";
    return bool(out.flush());
}

LayerTimes
layerTimes(const std::vector<SpanRec> &spans)
{
    const std::size_t n = spans.size();
    std::vector<double> self(n);
    std::vector<std::size_t> root(n);
    for (std::size_t i = 0; i < n; ++i) {
        self[i] = spans[i].t1 - spans[i].t0;
        // Parents are opened before their children, so the parent's
        // root is already known.
        root[i] = spans[i].parent < 0 ? i
                                      : root[std::size_t(spans[i].parent)];
    }
    for (std::size_t i = 0; i < n; ++i)
        if (spans[i].parent >= 0)
            self[std::size_t(spans[i].parent)] -=
                spans[i].t1 - spans[i].t0;

    const auto startsWith = [](const char *name, const char *prefix) {
        return std::strncmp(name, prefix, std::strlen(prefix)) == 0;
    };
    LayerTimes out;
    double ops = 0.0, setups = 0.0, rootSelf = 0.0, rootTotal = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (spans[i].parent >= 0)
            continue;
        ops += startsWith(spans[i].name, "op.") ? 1.0 : 0.0;
        setups += startsWith(spans[i].name, "setup.") ? 1.0 : 0.0;
        rootSelf += self[i];
        rootTotal += spans[i].t1 - spans[i].t0;
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (spans[i].parent < 0)
            continue;
        const char *kind = spans[root[i]].name;
        if (startsWith(kind, "op."))
            out.perOp[spans[i].name] += self[i] / ops;
        else if (startsWith(kind, "setup."))
            out.perSetup[spans[i].name] += self[i] / setups;
    }
    out.unattributedShare = rootTotal > 0.0 ? rootSelf / rootTotal : 0.0;
    return out;
}

void
RunResult::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 20)
        failures.push_back(why);
}

nasbench::Architecture
FreshArchs::next()
{
    while (true) {
        nasbench::Architecture a = domain_.sample(rng_);
        if (seen_.insert(a).second)
            return a;
    }
}

std::vector<nasbench::Architecture>
FreshArchs::take(std::size_t n)
{
    std::vector<nasbench::Architecture> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(next());
    return out;
}

void
FreshArchs::exclude(const std::vector<nasbench::Architecture> &archs)
{
    seen_.insert(archs.begin(), archs.end());
}

std::string
fingerprint(const std::vector<nasbench::Architecture> &pop)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const auto &a : pop) {
        h ^= a.hash(0x5eedf00dull);
        h *= 1099511628211ull;
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t tag)
{
    // splitmix64 finaliser over (seed, tag).
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + tag + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace hwpr::e2e
