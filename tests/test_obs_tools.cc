/**
 * @file
 * Observability tooling tests: the minimal JSON reader, flattened
 * snapshot diffing with tolerance bands (the engine behind
 * `hwpr-obs diff`), Chrome-trace self/total aggregation, the run
 * ledger, and the snapshot-diff round trip — a live registry
 * snapshot diffed against itself is clean, and a synthetic 2x
 * slowdown is flagged as a regression.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/isa.h"
#include "common/json.h"
#include "common/ledger.h"
#include "common/matrix.h"
#include "common/obs.h"
#include "common/obsdiff.h"

using namespace hwpr;

namespace
{

/** Temp file that cleans up after itself. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace

TEST(JsonParser, ParsesTheFullValueModel)
{
    const json::Value v = json::parse(
        "{\"a\": 1.5, \"b\": [1, 2, 3], \"c\": {\"d\": true, "
        "\"e\": null}, \"f\": \"x\\n\\\"y\\\"\", \"g\": -2e3}");
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.find("a")->asNumber(), 1.5);
    ASSERT_TRUE(v.find("b")->isArray());
    EXPECT_EQ(v.find("b")->asArray().size(), 3u);
    EXPECT_DOUBLE_EQ(v.find("b")->asArray()[1].asNumber(), 2.0);
    EXPECT_TRUE(v.find("c")->find("d")->asBool());
    EXPECT_TRUE(v.find("c")->find("e")->isNull());
    EXPECT_EQ(v.find("f")->asString(), "x\n\"y\"");
    EXPECT_DOUBLE_EQ(v.find("g")->asNumber(), -2000.0);
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_DOUBLE_EQ(v.numberOr("a", 0.0), 1.5);
    EXPECT_DOUBLE_EQ(v.numberOr("missing", 7.0), 7.0);

    // Object member order is preserved (snapshots are sorted on the
    // writer side; the reader must not reshuffle them).
    const auto &members = v.asObject();
    EXPECT_EQ(members[0].first, "a");
    EXPECT_EQ(members[4].first, "g");

    // 64 levels, the deepest nesting the reader accepts: arrays and
    // objects alternating, a number at the bottom.
    std::string deep;
    for (int level = 0; level < 64; ++level)
        deep += level % 2 == 0 ? "[" : "{\"k\": ";
    deep += "7";
    for (int level = 63; level >= 0; --level)
        deep += level % 2 == 0 ? "]" : "}";
    const json::Value parsed = json::parse(deep);
    const json::Value *leaf = &parsed;
    for (int level = 0; level < 64; ++level) {
        ASSERT_EQ(leaf->isArray(), level % 2 == 0) << "level " << level;
        leaf = level % 2 == 0 ? &leaf->asArray().at(0) : leaf->find("k");
        ASSERT_NE(leaf, nullptr);
    }
    EXPECT_DOUBLE_EQ(leaf->asNumber(), 7.0);
}

TEST(JsonParser, RejectsMalformedInput)
{
    EXPECT_THROW(json::parse("{\"a\": }"), std::runtime_error);
    EXPECT_THROW(json::parse("[1, 2"), std::runtime_error);
    EXPECT_THROW(json::parse("{} trailing"), std::runtime_error);
    EXPECT_THROW(json::parse("\"unterminated"), std::runtime_error);
    EXPECT_THROW(json::parse("nulll"), std::runtime_error);
    EXPECT_THROW(json::parseFile("/nonexistent/nope.json"),
                 std::runtime_error);

    // 65 levels is one past the nesting cap: a clear error at the
    // offending bracket (byte 64), not a stack overflow.
    const std::string deep =
        std::string(64, '[') + "{\"k\": 1}" + std::string(64, ']');
    try {
        json::parse(deep);
        FAIL() << "65-level document accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("nesting deeper than 64"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("at byte 64"),
                  std::string::npos)
            << e.what();
    }
}

TEST(JsonParser, RejectsOutOfRangeNumbersWithByteOffset)
{
    // strtod saturates 1e400 to inf without setting an error; the
    // reader must refuse it rather than let inf flow downstream.
    EXPECT_THROW(json::parse("1e400"), std::runtime_error);
    EXPECT_THROW(json::parse("-1e400"), std::runtime_error);
    EXPECT_THROW(json::parse("[1, 2, 1e999]"), std::runtime_error);
    try {
        json::parse("{\"lat\": 1e400}");
        FAIL() << "overflowing literal accepted";
    } catch (const std::runtime_error &e) {
        // The error names the offending token and its byte offset
        // (the literal starts at byte 8 of the document).
        EXPECT_NE(std::string(e.what()).find("out of range"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("at byte 8"),
                  std::string::npos)
            << e.what();
    }

    // Boundary behavior: the largest finite double still parses;
    // underflow to zero stays legal (finite, only precision lost).
    EXPECT_DOUBLE_EQ(json::parse("1.7976931348623157e308").asNumber(),
                     1.7976931348623157e308);
    EXPECT_DOUBLE_EQ(json::parse("1e-999").asNumber(), 0.0);
}

TEST(JsonParser, RoundTripsARegistrySnapshot)
{
    auto &reg = obs::Registry::global();
    reg.counter("test.tools.counter").reset();
    reg.counter("test.tools.counter").add(42);
    reg.gauge("test.tools.gauge").set(3.25);
    obs::Histogram &h =
        reg.histogram("test.tools.hist", {10.0, 100.0});
    h.reset();
    h.record(5.0);
    h.record(50.0);

    const json::Value v = json::parse(reg.snapshotJson());
    EXPECT_DOUBLE_EQ(v.find("counters")->numberOr(
                         "test.tools.counter", 0.0),
                     42.0);
    EXPECT_DOUBLE_EQ(
        v.find("gauges")->numberOr("test.tools.gauge", 0.0), 3.25);
    const json::Value *hist =
        v.find("histograms")->find("test.tools.hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_DOUBLE_EQ(hist->numberOr("count", 0.0), 2.0);
    EXPECT_NE(hist->find("p50"), nullptr);
    EXPECT_NE(hist->find("p99"), nullptr);
}

TEST(ObsDiff, KeyClassification)
{
    using obsdiff::KeyClass;
    EXPECT_EQ(obsdiff::classifyKey("histograms.fit.epoch_us.p99"),
              KeyClass::TimeLike);
    EXPECT_EQ(obsdiff::classifyKey("cases.hwprnas.t4.fit_seconds"),
              KeyClass::TimeLike);
    EXPECT_EQ(obsdiff::classifyKey("meta.peak_rss_kb"),
              KeyClass::TimeLike);
    EXPECT_EQ(obsdiff::classifyKey("gauges.predict.ops_per_s.lut"),
              KeyClass::RateLike);
    EXPECT_EQ(obsdiff::classifyKey("cases.lut.b64.t4.speedup"),
              KeyClass::RateLike);
    EXPECT_EQ(obsdiff::classifyKey("cases.x.steps_per_sec"),
              KeyClass::RateLike);
    EXPECT_EQ(obsdiff::classifyKey("counters.moea.evaluations"),
              KeyClass::CountLike);
    EXPECT_TRUE(obsdiff::isMicrosecondKey("h.predict_batch.us.p50"));
    EXPECT_FALSE(obsdiff::isMicrosecondKey("cases.a.fit_seconds"));
}

TEST(ObsDiff, FlattensBenchCasesByIdentity)
{
    const json::Value v = json::parse(
        "{\"cases\": [{\"model\": \"HW-PR-NAS\", \"threads\": 4, "
        "\"fit_seconds\": 2.5}, {\"kernel\": \"lut\", \"batch\": 64, "
        "\"threads\": 2, \"ops_per_sec\": 1e6}], "
        "\"histograms\": {\"h\": {\"p50\": 10, \"buckets\": "
        "[[1, 5]]}}}");
    std::map<std::string, double> flat;
    obsdiff::flatten(v, "", flat);
    EXPECT_DOUBLE_EQ(flat.at("cases.HW-PR-NAS.t4.fit_seconds"), 2.5);
    EXPECT_DOUBLE_EQ(flat.at("cases.lut.b64.t2.ops_per_sec"), 1e6);
    EXPECT_DOUBLE_EQ(flat.at("histograms.h.p50"), 10.0);
    // Bucket arrays are skipped: the percentiles carry the signal.
    for (const auto &[k, val] : flat)
        EXPECT_EQ(k.find("buckets"), std::string::npos) << k;
}

TEST(ObsDiff, CleanOnIdenticalAndFlagsTwoXSlowdown)
{
    auto &reg = obs::Registry::global();
    obs::Histogram &h = reg.histogram("test.tools.diff_us",
                                      {1e4, 1e5, 1e6});
    h.reset();
    for (int i = 0; i < 50; ++i)
        h.record(5e4);

    // Round trip: snapshot -> parse -> diff against itself is clean.
    const json::Value snap = json::parse(reg.snapshotJson());
    obsdiff::DiffOptions opt; // defaults: tol 1.6, floor 1000us
    const obsdiff::DiffResult same = obsdiff::diff(snap, snap, opt);
    EXPECT_EQ(same.regressions, 0u);
    EXPECT_EQ(same.improvements, 0u);
    EXPECT_GT(same.compared, 0u);

    // Synthetic 2x slowdown on the histogram: must be flagged.
    h.reset();
    for (int i = 0; i < 50; ++i)
        h.record(1e5);
    const json::Value slow = json::parse(reg.snapshotJson());
    const obsdiff::DiffResult worse = obsdiff::diff(snap, slow, opt);
    EXPECT_GT(worse.regressions, 0u);
    bool found = false;
    for (const auto &e : worse.entries)
        if (e.regression &&
            e.key.find("test.tools.diff_us") != std::string::npos)
            found = true;
    EXPECT_TRUE(found);

    // ...and the reverse direction reads as an improvement.
    const obsdiff::DiffResult better = obsdiff::diff(slow, snap, opt);
    EXPECT_EQ(better.regressions, 0u);
    EXPECT_GT(better.improvements, 0u);

    // Markdown report carries the verdict and the offending key.
    const std::string md =
        obsdiff::markdownReport(worse, "base", "cand", opt);
    EXPECT_NE(md.find("Regressions"), std::string::npos);
    EXPECT_NE(md.find("test.tools.diff_us"), std::string::npos);
    h.reset();
}

TEST(ObsDiff, AbsoluteFloorSuppressesMicrosecondNoise)
{
    // 30us vs 90us is a 3x "regression" — and pure scheduling noise.
    const json::Value a =
        json::parse("{\"histograms\": {\"tiny.us\": {\"p50\": 30}}}");
    const json::Value b =
        json::parse("{\"histograms\": {\"tiny.us\": {\"p50\": 90}}}");
    obsdiff::DiffOptions opt;
    EXPECT_EQ(obsdiff::diff(a, b, opt).regressions, 0u);
    // Second-denominated keys have no floor: they are never tiny.
    const json::Value c =
        json::parse("{\"cases\": [{\"model\": \"m\", "
                    "\"fit_seconds\": 2.0}]}");
    const json::Value d =
        json::parse("{\"cases\": [{\"model\": \"m\", "
                    "\"fit_seconds\": 4.1}]}");
    EXPECT_EQ(obsdiff::diff(c, d, opt).regressions, 1u);
}

TEST(ObsDiff, RateLikeKeysGateInTheOppositeDirection)
{
    const json::Value fast = json::parse(
        "{\"gauges\": {\"predict.ops_per_s.mlp\": 200000}}");
    const json::Value slow = json::parse(
        "{\"gauges\": {\"predict.ops_per_s.mlp\": 90000}}");
    obsdiff::DiffOptions opt;
    EXPECT_EQ(obsdiff::diff(fast, slow, opt).regressions, 1u);
    EXPECT_EQ(obsdiff::diff(slow, fast, opt).regressions, 0u);
    EXPECT_EQ(obsdiff::diff(slow, fast, opt).improvements, 1u);
}

TEST(ObsDiff, IgnoresSchedulingNoiseKeysByDefault)
{
    const json::Value a = json::parse(
        "{\"counters\": {\"threadpool.worker.0.busy_us\": 100, "
        "\"profile.samples\": 10, \"trace.dropped\": 0}}");
    const json::Value b = json::parse(
        "{\"counters\": {\"threadpool.worker.0.busy_us\": 100000, "
        "\"profile.samples\": 99, \"trace.dropped\": 5}}");
    obsdiff::DiffOptions opt;
    const obsdiff::DiffResult r = obsdiff::diff(a, b, opt);
    EXPECT_EQ(r.compared, 0u);
    EXPECT_EQ(r.regressions, 0u);
}

TEST(ObsDiff, ZeroBaselineReportsNewNotInfiniteRatio)
{
    // A counter that is 0 in the base run (e.g. a feature that never
    // fired) and live in the candidate used to yield a 0/garbage
    // ratio; it must read as "new" and never gate.
    const json::Value a = json::parse(
        "{\"counters\": {\"serve.requests\": 0, "
        "\"serve.batches\": 12, \"serve.errors\": 3}}");
    const json::Value b = json::parse(
        "{\"counters\": {\"serve.requests\": 100, "
        "\"serve.batches\": 12, \"serve.errors\": 0}}");
    obsdiff::DiffOptions opt;
    const obsdiff::DiffResult r = obsdiff::diff(a, b, opt);
    EXPECT_EQ(r.regressions, 0u);
    bool saw_new = false, saw_removed = false;
    for (const auto &e : r.entries) {
        EXPECT_TRUE(std::isfinite(e.ratio)) << e.key;
        if (e.key.find("serve.requests") != std::string::npos) {
            EXPECT_EQ(e.status, obsdiff::DiffStatus::New);
            EXPECT_DOUBLE_EQ(e.ratio, 0.0);
            saw_new = true;
        }
        if (e.key.find("serve.errors") != std::string::npos) {
            EXPECT_EQ(e.status, obsdiff::DiffStatus::Removed);
            EXPECT_DOUBLE_EQ(e.ratio, 0.0);
            saw_removed = true;
        }
    }
    EXPECT_TRUE(saw_new);
    EXPECT_TRUE(saw_removed);

    // The markdown report labels them instead of printing a ratio.
    const std::string md = obsdiff::markdownReport(r, "a", "b", opt);
    EXPECT_NE(md.find("New / removed metrics"), std::string::npos);
    EXPECT_NE(md.find("| new |"), std::string::npos);
    EXPECT_NE(md.find("| removed |"), std::string::npos);
}

TEST(ObsDiff, NegativeBaselineNeverFlipsTheGate)
{
    // Negative values (losses, deltas) must not gate: vb/va with
    // va < 0 flips the comparison's sign. Same-sign negatives keep a
    // meaningful ratio; sign flips carry none.
    const json::Value a = json::parse(
        "{\"gauges\": {\"train.loss_delta_per_s\": -4.0, "
        "\"train.score_wall\": -2.0}}");
    const json::Value b = json::parse(
        "{\"gauges\": {\"train.loss_delta_per_s\": -2.0, "
        "\"train.score_wall\": 2.0}}");
    obsdiff::DiffOptions opt;
    const obsdiff::DiffResult r = obsdiff::diff(a, b, opt);
    EXPECT_EQ(r.regressions, 0u);
    EXPECT_EQ(r.improvements, 0u);
    for (const auto &e : r.entries) {
        EXPECT_TRUE(std::isfinite(e.ratio)) << e.key;
        if (e.key.find("loss_delta") != std::string::npos)
            EXPECT_DOUBLE_EQ(e.ratio, 0.5); // same sign: meaningful
        if (e.key.find("score_wall") != std::string::npos)
            EXPECT_DOUBLE_EQ(e.ratio, 0.0); // sign flip: no ratio
    }
}

TEST(ObsLedger, ConcurrentAppendsNeverTearLines)
{
    // The daemon and the CLI share one ledger; records larger than
    // any stdio buffer must still land as whole lines. Hammer the
    // file from threads with ~32KB records (a full metrics snapshot
    // is this size) and require every line to parse intact.
    TempFile tmp("hwpr_test_ledger_hammer.jsonl");
    const std::string big_payload(32 * 1024, 'x');
    constexpr int kThreads = 8;
    constexpr int kPerThread = 25;
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t)
        writers.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                ledger::Record rec("hammer");
                rec.add("writer", double(t))
                    .add("iter", double(i))
                    .add("payload", big_payload);
                ASSERT_TRUE(ledger::appendTo(tmp.path(), rec));
            }
        });
    for (auto &w : writers)
        w.join();

    std::ifstream in(tmp.path());
    std::size_t lines = 0;
    for (std::string line; std::getline(in, line);) {
        ++lines;
        const json::Value v = json::parse(line); // throws on a tear
        EXPECT_EQ(v.stringOr("command", ""), "hammer");
        EXPECT_EQ(v.stringOr("payload", "").size(),
                  big_payload.size());
    }
    EXPECT_EQ(lines, std::size_t(kThreads) * kPerThread);
}

TEST(ObsDiff, AggregatesTraceSelfAndTotalTime)
{
    // outer [0, 100] wraps inner [10, 40]; sibling lane tid 2.
    const json::Value trace = json::parse(
        "{\"traceEvents\": ["
        "{\"ph\": \"X\", \"tid\": 1, \"name\": \"outer\", "
        "\"ts\": 0, \"dur\": 100},"
        "{\"ph\": \"X\", \"tid\": 1, \"name\": \"inner\", "
        "\"ts\": 10, \"dur\": 30},"
        "{\"ph\": \"X\", \"tid\": 2, \"name\": \"inner\", "
        "\"ts\": 0, \"dur\": 50},"
        "{\"ph\": \"M\", \"tid\": 1, \"name\": \"thread_name\"}"
        "]}");
    const auto stats = obsdiff::aggregateTrace(trace);
    ASSERT_EQ(stats.size(), 2u);
    // Sorted by self time: inner 30+50=80 self, outer 100-30=70.
    EXPECT_EQ(stats[0].name, "inner");
    EXPECT_EQ(stats[0].count, 2u);
    EXPECT_DOUBLE_EQ(stats[0].totalUs, 80.0);
    EXPECT_DOUBLE_EQ(stats[0].selfUs, 80.0);
    EXPECT_EQ(stats[1].name, "outer");
    EXPECT_DOUBLE_EQ(stats[1].totalUs, 100.0);
    EXPECT_DOUBLE_EQ(stats[1].selfUs, 70.0);

    const std::string table = obsdiff::traceTable(stats, 1);
    EXPECT_NE(table.find("inner"), std::string::npos);
    EXPECT_EQ(table.find("outer"), std::string::npos); // limit 1
}

TEST(ObsLedger, AppendsOneParseableLinePerRecord)
{
    TempFile tmp("hwpr_test_ledger.jsonl");
    ledger::Record rec("search");
    rec.add("seed", 7.0)
        .add("platform", "edge-gpu")
        .add("front_hypervolume", 1.25)
        .addRaw("metrics", "{\n  \"counters\": {}\n}");
    ASSERT_TRUE(ledger::appendTo(tmp.path(), rec));
    ASSERT_TRUE(ledger::appendTo(tmp.path(), rec));

    std::ifstream in(tmp.path());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        const json::Value v = json::parse(line);
        EXPECT_EQ(v.stringOr("command", ""), "search");
        EXPECT_NE(v.stringOr("git_sha", ""), "");
        EXPECT_DOUBLE_EQ(v.numberOr("seed", 0.0), 7.0);
        EXPECT_DOUBLE_EQ(v.numberOr("front_hypervolume", 0.0), 1.25);
        // getrusage vitals are stamped on every record.
        EXPECT_GT(v.numberOr("peak_rss_kb", 0.0), 0.0);
        ASSERT_NE(v.find("metrics"), nullptr);
        EXPECT_TRUE(v.find("metrics")->isObject());
        // One record per line: the embedded snapshot was collapsed.
        EXPECT_EQ(line.find('\n'), std::string::npos);
    }
    EXPECT_EQ(lines, 2u);
}

TEST(ObsLedger, PathResolution)
{
    // HWPR_LEDGER wins; empty value disables.
    ::setenv("HWPR_LEDGER", "/tmp/custom_ledger.jsonl", 1);
    EXPECT_EQ(ledger::ledgerPath(), "/tmp/custom_ledger.jsonl");
    ::setenv("HWPR_LEDGER", "", 1);
    EXPECT_EQ(ledger::ledgerPath(), "");
    ::unsetenv("HWPR_LEDGER");
    // Without the env var the default requires bench/out to exist —
    // absent here (tests run from the build tree), recording is off.
    EXPECT_EQ(ledger::ledgerPath(), "");
}

TEST(ObsMeta, RunMetadataCarriesVitals)
{
    const json::Value meta = json::parse(obs::runMetaJson());
    EXPECT_NE(meta.stringOr("git_sha", ""), "");
    EXPECT_NE(meta.stringOr("build", ""), "");
    // Which GEMM tiles produced the run's numbers.
    EXPECT_EQ(meta.stringOr("gemm_tiles", ""), gemmTilesName(gemmTiles()));
    EXPECT_EQ(meta.stringOr("gemm_tiles", ""),
              cpuHasAvx512f()   ? "avx512"
              : cpuHasAvx2Fma() ? "avx2"
                                : "portable");
    EXPECT_GT(meta.numberOr("hardware_threads", 0.0), 0.0);
    EXPECT_GT(meta.numberOr("peak_rss_kb", 0.0), 0.0);
    EXPECT_GE(meta.numberOr("user_sec", -1.0), 0.0);

    const obs::ResourceUsage u = obs::resourceUsage();
    EXPECT_GT(u.peakRssKb, 0.0);
}
