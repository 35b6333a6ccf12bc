/**
 * @file
 * Crash-safety tests for the checkpoint layer: atomic save semantics,
 * CRC-verified loads, save/load round trips for the surrogate
 * families through core::loadSurrogate, generation-level MOEA
 * checkpoint/resume bit-identity, and fault injection (truncation,
 * bit flips, wrong kinds) proving corrupted artifacts are rejected
 * cleanly instead of crashing or silently mis-loading.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "baselines/brpnas.h"
#include "baselines/gates.h"
#include "baselines/lut.h"
#include "baselines/registry.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/threadpool.h"
#include "core/dominance.h"
#include "core/hwprnas.h"
#include "core/predictor.h"
#include "core/scalable.h"
#include "core/surrogate.h"
#include "pareto/pareto.h"
#include "search/domain.h"
#include "search/moea.h"

using namespace hwpr;

namespace
{

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return bytes;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size()));
}

// -------------------------------------------------------------------
// Shared tiny training setup (mirrors test_surrogate_iface).
// -------------------------------------------------------------------

const nasbench::SampledDataset &
tinyData()
{
    static const nasbench::SampledDataset data = [] {
        static nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
        Rng rng(88);
        return nasbench::SampledDataset::sample(
            {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle,
            260, 180, 40, rng);
    }();
    return data;
}

core::SurrogateDataset
tinySurrogateData()
{
    const auto &data = tinyData();
    core::SurrogateDataset d;
    d.train = data.select(data.trainIdx);
    d.val = data.select(data.valIdx);
    d.platform = hw::PlatformId::EdgeGpu;
    return d;
}

std::vector<nasbench::Architecture>
testArchs()
{
    const auto &data = tinyData();
    std::vector<nasbench::Architecture> out;
    for (const auto *r : data.select(data.testIdx))
        out.push_back(r->arch);
    return out;
}

core::EncoderConfig
tinyEncoder()
{
    core::EncoderConfig cfg;
    cfg.gcnHidden = 12;
    cfg.lstmHidden = 12;
    cfg.embedDim = 8;
    return cfg;
}

core::PredictorTrainConfig
quickPredictorFit()
{
    core::PredictorTrainConfig cfg;
    cfg.epochs = 3;
    cfg.patience = 3;
    return cfg;
}

/**
 * Loaded-model predictions must match the original bit for bit: a
 * checkpoint stores exact doubles, so any drift means the format
 * dropped or transformed state.
 */
void
expectObjectivesIdentical(const core::Surrogate &a,
                          const core::Surrogate &b,
                          const std::vector<nasbench::Architecture> &
                              archs)
{
    const Matrix oa = a.predict(archs);
    const Matrix ob = b.predict(archs);
    ASSERT_EQ(oa.rows(), ob.rows());
    ASSERT_EQ(oa.cols(), ob.cols());
    EXPECT_EQ(oa.raw(), ob.raw());
}

// -------------------------------------------------------------------
// Deterministic, instant evaluator for the search tests.
// -------------------------------------------------------------------

class HashEvaluator : public search::Evaluator
{
  public:
    explicit HashEvaluator(double cost_per_eval = 0.0)
        : cost_(cost_per_eval)
    {}

    search::EvalKind kind() const override
    {
        return search::EvalKind::ObjectiveVector;
    }
    std::string name() const override { return "hash-eval"; }
    std::size_t numObjectives() const override { return 2; }

    std::vector<pareto::Point>
    evaluate(const std::vector<nasbench::Architecture> &archs) override
    {
        std::vector<pareto::Point> out;
        out.reserve(archs.size());
        for (const auto &a : archs) {
            const std::uint64_t h = a.hash(17);
            out.push_back({double(h % 997) * 0.1,
                           double((h >> 13) % 991) * 0.1});
        }
        return out;
    }

    double simulatedCostSeconds(std::size_t batch) const override
    {
        return cost_ * double(batch);
    }

  private:
    double cost_;
};

search::MoeaConfig
smallMoea(std::size_t generations)
{
    search::MoeaConfig cfg;
    cfg.populationSize = 16;
    cfg.maxGenerations = generations;
    cfg.simulatedBudgetSeconds = 0.0;
    return cfg;
}

} // namespace

// -------------------------------------------------------------------
// Rng engine state
// -------------------------------------------------------------------

TEST(RngState, SaveRestoreReproducesSequence)
{
    Rng rng(123);
    for (int i = 0; i < 37; ++i)
        rng.uniform();
    const std::string state = rng.saveState();
    std::vector<double> expected;
    for (int i = 0; i < 20; ++i)
        expected.push_back(rng.uniform());

    Rng other(999);
    ASSERT_TRUE(other.restoreState(state));
    for (int i = 0; i < 20; ++i)
        EXPECT_DOUBLE_EQ(other.uniform(), expected[std::size_t(i)]);
}

TEST(RngState, RestoreRejectsGarbageAndKeepsEngine)
{
    Rng rng(7);
    const double next = Rng(7).uniform();
    EXPECT_FALSE(rng.restoreState("not an engine state"));
    EXPECT_FALSE(rng.restoreState(""));
    // A failed restore must leave the engine untouched.
    EXPECT_DOUBLE_EQ(rng.uniform(), next);
}

// -------------------------------------------------------------------
// atomicSave / readVerified
// -------------------------------------------------------------------

TEST(AtomicSave, RoundTripAndNoTempLeftBehind)
{
    const std::string path = tempPath("hwpr_atomic_roundtrip.bin");
    ASSERT_TRUE(atomicSave(path, [](BinaryWriter &w) {
        writeHeader(w, "unit-test", 1);
        w.writeU64(42);
        w.writeDouble(2.5);
    }));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    std::string body;
    ASSERT_TRUE(readVerified(path, body));
    std::istringstream in(body, std::ios::binary);
    BinaryReader r(in);
    EXPECT_EQ(readHeader(r, "unit-test"), 1u);
    EXPECT_EQ(r.readU64(), 42u);
    EXPECT_DOUBLE_EQ(r.readDouble(), 2.5);
    EXPECT_EQ(checkpointKind(path), "unit-test");
    std::remove(path.c_str());
}

TEST(AtomicSave, OverwriteReplacesPreviousCheckpoint)
{
    const std::string path = tempPath("hwpr_atomic_overwrite.bin");
    ASSERT_TRUE(atomicSave(path, [](BinaryWriter &w) {
        writeHeader(w, "first", 1);
    }));
    ASSERT_TRUE(atomicSave(path, [](BinaryWriter &w) {
        writeHeader(w, "second", 1);
    }));
    EXPECT_EQ(checkpointKind(path), "second");
    std::remove(path.c_str());
}

TEST(ReadVerified, MissingFileRejected)
{
    std::string body;
    EXPECT_FALSE(
        readVerified(tempPath("hwpr_does_not_exist.bin"), body));
    EXPECT_TRUE(body.empty());
}

TEST(ReadVerified, TruncationRejectedAtEveryLength)
{
    const std::string path = tempPath("hwpr_truncation.bin");
    ASSERT_TRUE(atomicSave(path, [](BinaryWriter &w) {
        writeHeader(w, "trunc-test", 1);
        for (std::uint64_t i = 0; i < 16; ++i)
            w.writeU64(i);
    }));
    const std::string full = readFile(path);
    ASSERT_GT(full.size(), 24u);

    for (std::size_t len = 0; len < full.size(); ++len) {
        writeFile(path, full.substr(0, len));
        std::string body;
        EXPECT_FALSE(readVerified(path, body))
            << "accepted a file truncated to " << len << " bytes";
    }
    std::remove(path.c_str());
}

TEST(ReadVerified, BitFlipsRejectedEverywhere)
{
    const std::string path = tempPath("hwpr_bitflip.bin");
    ASSERT_TRUE(atomicSave(path, [](BinaryWriter &w) {
        writeHeader(w, "flip-test", 2);
        for (std::uint64_t i = 0; i < 32; ++i)
            w.writeDouble(double(i) * 0.25);
    }));
    const std::string full = readFile(path);

    // Flip one bit at a spread of offsets covering header, body and
    // the footer (length, CRC and magic words).
    for (std::size_t pos = 0; pos < full.size();
         pos += full.size() / 37 + 1) {
        for (int bit : {0, 3, 7}) {
            std::string corrupt = full;
            corrupt[pos] = char(corrupt[pos] ^ (1 << bit));
            writeFile(path, corrupt);
            std::string body;
            EXPECT_FALSE(readVerified(path, body))
                << "accepted a bit flip at byte " << pos;
        }
    }
    std::remove(path.c_str());
}

TEST(ReadVerified, LegacyFileWithoutFooterRejected)
{
    // A pre-footer checkpoint (bare header + payload) must fail
    // verification rather than parse as garbage.
    const std::string path = tempPath("hwpr_legacy.bin");
    {
        std::ofstream out(path, std::ios::binary);
        BinaryWriter w(out);
        writeHeader(w, "hwprnas", 2);
        w.writeU64(99);
    }
    std::string body;
    EXPECT_FALSE(readVerified(path, body));
    EXPECT_EQ(checkpointKind(path), "");
    std::remove(path.c_str());
}

// -------------------------------------------------------------------
// Five-surrogate save/load round trips through core::loadSurrogate
// -------------------------------------------------------------------

TEST(SurrogateCheckpoint, HwPrNasRoundTrip)
{
    core::HwPrNasConfig mc;
    mc.encoder = tinyEncoder();
    core::HwPrNas model(mc, nasbench::DatasetId::Cifar10, 1);
    core::TrainConfig tc;
    tc.epochs = 3;
    tc.combinerEpochs = 1;
    model.setFitConfig(tc);
    ExecContext ctx = ExecContext::global().withSeed(7);
    model.fit(tinySurrogateData(), ctx);

    const std::string path = tempPath("hwpr_ckpt_hwprnas.bin");
    ASSERT_TRUE(model.save(path));
    EXPECT_EQ(checkpointKind(path), "hwprnas");
    const auto loaded = core::loadSurrogate(path);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->name(), "HW-PR-NAS");
    const auto archs = testArchs();
    expectObjectivesIdentical(model, *loaded, archs);
    // The branch outputs survive too, not only the combined score.
    const auto *restored = dynamic_cast<const core::HwPrNas *>(&*loaded);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(model.predictAccuracy(archs),
              restored->predictAccuracy(archs));
    EXPECT_EQ(model.predictLatency(archs),
              restored->predictLatency(archs));
    std::remove(path.c_str());
}

TEST(SurrogateCheckpoint, ScalableRoundTrip)
{
    core::ScalableConfig sc;
    sc.encoder = tinyEncoder();
    core::ScalableHwPrNas model(sc, nasbench::DatasetId::Cifar10, 1);
    core::TrainConfig tc;
    tc.epochs = 3;
    model.setFitConfig(tc);
    ExecContext ctx = ExecContext::global().withSeed(9);
    model.fit(tinySurrogateData(), ctx);

    const std::string path = tempPath("hwpr_ckpt_scalable.bin");
    ASSERT_TRUE(model.save(path));
    EXPECT_EQ(checkpointKind(path), "hwpr-scalable");
    const auto loaded = core::loadSurrogate(path);
    ASSERT_NE(loaded, nullptr);
    expectObjectivesIdentical(model, *loaded, testArchs());
    std::remove(path.c_str());
}

TEST(SurrogateCheckpoint, BrpNasRoundTrip)
{
    baselines::registerBaselineLoaders();
    baselines::BrpNas model(tinyEncoder(),
                            nasbench::DatasetId::Cifar10, 3);
    const auto data = tinySurrogateData();
    model.train(data.train, data.val, data.platform,
                quickPredictorFit());

    const std::string path = tempPath("hwpr_ckpt_brpnas.bin");
    ASSERT_TRUE(model.save(path));
    EXPECT_EQ(checkpointKind(path), "brpnas");
    const auto loaded = core::loadSurrogate(path);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->name(), "BRP-NAS");
    expectObjectivesIdentical(model, *loaded, testArchs());
    std::remove(path.c_str());
}

TEST(SurrogateCheckpoint, GatesRoundTrip)
{
    baselines::registerBaselineLoaders();
    baselines::Gates model(tinyEncoder(),
                           nasbench::DatasetId::Cifar10, 4);
    const auto data = tinySurrogateData();
    model.train(data.train, data.val, data.platform,
                quickPredictorFit());

    const std::string path = tempPath("hwpr_ckpt_gates.bin");
    ASSERT_TRUE(model.save(path));
    EXPECT_EQ(checkpointKind(path), "gates");
    const auto loaded = core::loadSurrogate(path);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->name(), "GATES");
    expectObjectivesIdentical(model, *loaded, testArchs());
    std::remove(path.c_str());
}

TEST(SurrogateCheckpoint, LutRoundTrip)
{
    baselines::registerBaselineLoaders();
    baselines::LatencyLut model(nasbench::DatasetId::Cifar10,
                                hw::PlatformId::EdgeGpu);
    ExecContext ctx = ExecContext::global().withSeed(11);
    model.fit(tinySurrogateData(), ctx);
    ASSERT_GT(model.numEntries(), 0u);

    const std::string path = tempPath("hwpr_ckpt_lut.bin");
    ASSERT_TRUE(model.save(path));
    EXPECT_EQ(checkpointKind(path), "lut");
    const auto loaded = core::loadSurrogate(path);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->name(), "LUT");
    expectObjectivesIdentical(model, *loaded, testArchs());
    std::remove(path.c_str());
}

TEST(SurrogateCheckpoint, CorruptedModelRejectedNotCrashed)
{
    baselines::registerBaselineLoaders();
    baselines::LatencyLut model(nasbench::DatasetId::Cifar10,
                                hw::PlatformId::EdgeGpu);
    ExecContext ctx = ExecContext::global().withSeed(12);
    model.fit(tinySurrogateData(), ctx);
    const std::string path = tempPath("hwpr_ckpt_corrupt.bin");
    ASSERT_TRUE(model.save(path));

    const std::string full = readFile(path);
    for (std::size_t pos = 0; pos < full.size();
         pos += full.size() / 23 + 1) {
        std::string corrupt = full;
        corrupt[pos] = char(corrupt[pos] ^ 0x40);
        writeFile(path, corrupt);
        EXPECT_EQ(core::loadSurrogate(path), nullptr)
            << "accepted a corrupted checkpoint (flip at byte " << pos
            << ")";
    }
    std::remove(path.c_str());
}

TEST(SurrogateCheckpoint, UnknownKindRejected)
{
    const std::string path = tempPath("hwpr_ckpt_unknown.bin");
    ASSERT_TRUE(atomicSave(path, [](BinaryWriter &w) {
        writeHeader(w, "mystery-model", 1);
        w.writeU64(5);
    }));
    EXPECT_EQ(core::loadSurrogate(path), nullptr);
    std::remove(path.c_str());
}

namespace
{

constexpr std::uint64_t kHuge = std::uint64_t(1) << 40;

/**
 * Encoder sizes in checkpoint field order (gcnHidden, gcnLayers,
 * lstmHidden, lstmLayers, embedDim), field @p huge set to 2^40. Layer
 * counts are never inflated: an unbounded loader would build layers
 * one by one until memory runs out instead of failing its first
 * allocation.
 */
void
writeDims(BinaryWriter &w, int huge, bool global_node_field)
{
    const std::uint64_t dims[5] = {12, 2, 12, 2, 8};
    for (int i = 0; i < 5; ++i)
        w.writeU64(i == huge ? kHuge : dims[i]);
    if (global_node_field)
        w.writeU64(1);
}

void
writeUnitScaler(BinaryWriter &w)
{
    w.writeDoubles({});
    w.writeDoubles({});
}

} // namespace

TEST(SurrogateCheckpoint, OversizedShapesRejectedBeforeAllocation)
{
    // CRC-valid files whose encoder or MLP sizes would make the model
    // skeleton allocate terabytes. Every field a loader reads before
    // building the skeleton is present, so only the bounds can stop
    // them.
    enum Field { GcnHidden = 0, LstmHidden = 2, EmbedDim = 4, Width };
    const std::string path = tempPath("hwpr_ckpt_oversized.bin");
    auto expectRejected = [&](const char *what, auto &&body) {
        SCOPED_TRACE(what);
        ASSERT_TRUE(atomicSave(path, body));
        EXPECT_EQ(core::loadSurrogate(path), nullptr);
    };
    for (const Field f : {GcnHidden, LstmHidden, EmbedDim, Width}) {
        SCOPED_TRACE(int(f));
        const int dim = f == Width ? -1 : int(f);
        const std::uint64_t width = f == Width ? kHuge : 16;
        expectRejected("hwprnas", [&](BinaryWriter &w) {
            writeHeader(w, "hwprnas", 2);
            writeDims(w, dim, false);
            w.writeU64(1); // headHidden
            w.writeU64(width);
            w.writeU64(1); // combinerHidden
            w.writeU64(8);
            w.writeU64(1);     // AF flag
            w.writeDouble(1.0); // rmseWeight
            w.writeU64(0);     // shared-head flag
            w.writeU64(0);     // dataset
            w.writeU64(0);     // platform
            for (std::size_t i = 0; i < 1 + hw::kNumPlatforms; ++i) {
                w.writeDouble(0.0);
                w.writeDouble(1.0);
            }
            writeUnitScaler(w);
            writeUnitScaler(w);
            w.writeU64(0); // parameters
        });
        expectRejected("hwpr-scalable", [&](BinaryWriter &w) {
            writeHeader(w, "hwpr-scalable", 1);
            writeDims(w, dim, true);
            w.writeU64(1); // mlpHidden
            w.writeU64(width);
            w.writeU64(0); // dataset
            w.writeU64(0); // platform
            w.writeU64(0); // energyAware
            writeUnitScaler(w);
            w.writeU64(0); // parameters
        });
        expectRejected("dominance", [&](BinaryWriter &w) {
            writeHeader(w, "dominance", 1);
            writeDims(w, dim, true);
            w.writeU64(1); // headHidden
            w.writeU64(width);
            w.writeU64(16); // referenceSize
            w.writeU64(0);  // dataset
            w.writeU64(0);  // platform
            writeUnitScaler(w);
            w.writeU64(0); // anchors
        });
    }
    std::remove(path.c_str());
}

namespace
{

/**
 * Re-save the checkpoint at @p path with its first AF feature scaler
 * replaced by (@p mean, @p std). @p skip reads the fields between the
 * header and that scaler; every field after the header is one or more
 * 8-byte words, so the rest is copied word by word.
 */
bool
replaceScaler(const std::string &path, const char *kind,
              std::uint32_t version,
              const std::function<void(BinaryReader &)> &skip,
              const std::vector<double> &mean,
              const std::vector<double> &std)
{
    std::string body;
    if (!readVerified(path, body))
        return false;
    std::istringstream in(body, std::ios::binary);
    BinaryReader r(in);
    if (readHeader(r, kind) != version)
        return false;
    const std::size_t start = std::size_t(in.tellg());
    skip(r);
    const std::size_t at = std::size_t(in.tellg());
    core::readFeatureScaler(r);
    const std::size_t end = std::size_t(in.tellg());
    if (!r.ok())
        return false;
    auto copyWords = [&body](BinaryWriter &w, std::size_t from,
                             std::size_t to) {
        for (std::size_t pos = from; pos + 8 <= to; pos += 8) {
            std::uint64_t v;
            std::memcpy(&v, body.data() + pos, 8);
            w.writeU64(v);
        }
    };
    return atomicSave(path, [&](BinaryWriter &w) {
        writeHeader(w, kind, version);
        copyWords(w, start, at);
        w.writeDoubles(mean);
        w.writeDoubles(std);
        copyWords(w, end, body.size());
    });
}

} // namespace

TEST(SurrogateCheckpoint, WrongLengthFeatureScalerRejected)
{
    // An AF scaler holds one mean and one std per architecture
    // feature. A file with 11 means used to load and then stop the
    // process on its first predict ("scaler dimension mismatch"); one
    // with 12 means and a single std read past the std vector. The
    // loaders now reject both. The same file with 12 of each is the
    // control.
    const std::size_t n = nasbench::kNumArchFeatures;
    const std::vector<double> zeros(n, 0.0), ones(n, 1.0);
    const auto data = tinySurrogateData();
    ExecContext ctx = ExecContext::global().withSeed(13);
    core::TrainConfig tc;
    tc.epochs = 1;
    tc.combinerEpochs = 0;

    struct Kind
    {
        const char *kind;
        std::uint32_t version;
        std::unique_ptr<core::Surrogate> model;
        std::function<void(BinaryReader &)> skip;
    };
    core::HwPrNasConfig mc;
    mc.encoder = tinyEncoder();
    auto hwpr = std::make_unique<core::HwPrNas>(
        mc, nasbench::DatasetId::Cifar10, 1);
    hwpr->setFitConfig(tc);
    core::ScalableConfig sc;
    sc.encoder = tinyEncoder();
    auto scalable = std::make_unique<core::ScalableHwPrNas>(
        sc, nasbench::DatasetId::Cifar10, 2);
    scalable->setFitConfig(tc);
    core::DominanceConfig dc;
    dc.encoder = tinyEncoder();
    dc.referenceSize = 8;
    dc.maxPairsPerEpoch = 500;
    auto dominance = std::make_unique<core::DominanceSurrogate>(
        dc, nasbench::DatasetId::Cifar10, 3);
    dominance->setFitConfig(tc);

    core::EncoderConfig enc;
    std::vector<std::size_t> widths;
    Kind kinds[] = {
        {"hwprnas", 2, std::move(hwpr),
         [&](BinaryReader &r) {
             core::readEncoderConfig(r, enc, false);
             core::readWidths(r, widths); // headHidden
             core::readWidths(r, widths); // combinerHidden
             // AF flag, rmseWeight, shared head, dataset, platform,
             // then the accuracy and per-platform target scalers.
             for (std::size_t i = 0; i < 5 + 2 * (1 + hw::kNumPlatforms);
                  ++i)
                 r.readU64();
         }},
        {"hwpr-scalable", 1, std::move(scalable),
         [&](BinaryReader &r) {
             core::readEncoderConfig(r, enc);
             core::readWidths(r, widths);
             for (int i = 0; i < 3; ++i) // dataset, platform, energy
                 r.readU64();
         }},
        {"dominance", 1, std::move(dominance),
         [&](BinaryReader &r) {
             core::readEncoderConfig(r, enc);
             core::readWidths(r, widths);
             for (int i = 0; i < 3; ++i) // referenceSize, dataset, platform
                 r.readU64();
         }},
    };
    const std::string path = tempPath("hwpr_ckpt_scaler.bin");
    for (Kind &k : kinds) {
        SCOPED_TRACE(k.kind);
        k.model->fit(data, ctx);
        ASSERT_TRUE(k.model->save(path));
        ASSERT_TRUE(
            replaceScaler(path, k.kind, k.version, k.skip, zeros, ones));
        EXPECT_NE(core::loadSurrogate(path), nullptr);
        ASSERT_TRUE(replaceScaler(
            path, k.kind, k.version, k.skip,
            std::vector<double>(n - 1, 0.0),
            std::vector<double>(n - 1, 1.0)));
        EXPECT_EQ(core::loadSurrogate(path), nullptr);
        ASSERT_TRUE(replaceScaler(path, k.kind, k.version, k.skip,
                                  zeros, {1.0}));
        EXPECT_EQ(core::loadSurrogate(path), nullptr);
    }
    std::remove(path.c_str());
}

TEST(SurrogateCheckpoint, TwoPredictorBaselineRejectsTreePredictors)
{
    // train() only builds MLP predictors, so a BRP-NAS or GATES file
    // holding a tree ensemble was crafted; it must not load. The same
    // layout around MLP predictors is the control.
    baselines::registerBaselineLoaders();
    const auto data = tinySurrogateData();
    const auto target = [](const nasbench::ArchRecord &rec) {
        return rec.accuracy;
    };
    core::MetricPredictor mlp(core::EncodingKind::GCN, tinyEncoder(),
                              core::RegressorKind::Mlp,
                              nasbench::DatasetId::Cifar10, 5);
    mlp.train(data.train, data.val, target, quickPredictorFit());
    core::MetricPredictor trees(core::EncodingKind::GCN, tinyEncoder(),
                                core::RegressorKind::XGBoost,
                                nasbench::DatasetId::Cifar10, 6);
    trees.train(data.train, data.val, target, quickPredictorFit());

    const std::string path = tempPath("hwpr_ckpt_trees.bin");
    for (const char *kind : {"brpnas", "gates"}) {
        SCOPED_TRACE(kind);
        auto write = [&](const core::MetricPredictor &acc,
                         const core::MetricPredictor &lat) {
            return atomicSave(path, [&](BinaryWriter &w) {
                writeHeader(w, kind, 1);
                core::writeEncoderConfig(w, tinyEncoder());
                w.writeU64(0); // dataset
                w.writeU64(3); // seed
                w.writeU64(0); // platform
                acc.saveTo(w);
                lat.saveTo(w);
            });
        };
        ASSERT_TRUE(write(mlp, mlp));
        EXPECT_NE(core::loadSurrogate(path), nullptr);
        ASSERT_TRUE(write(trees, mlp));
        EXPECT_EQ(core::loadSurrogate(path), nullptr);
        ASSERT_TRUE(write(mlp, trees));
        EXPECT_EQ(core::loadSurrogate(path), nullptr);
    }
    std::remove(path.c_str());
}

TEST(SurrogateCheckpoint, HwPrNasFlippedFlagWordsRejected)
{
    // HW-PR-NAS always concatenates AF with both encodings (flag word
    // 1) and keeps one latency head per platform (shared-head word 0).
    // A file with either word flipped is rejected; the same body
    // re-saved unflipped is the control.
    core::HwPrNasConfig mc;
    mc.encoder = tinyEncoder();
    core::HwPrNas model(mc, nasbench::DatasetId::Cifar10, 1);
    core::TrainConfig tc;
    tc.epochs = 1;
    tc.combinerEpochs = 0;
    model.setFitConfig(tc);
    ExecContext ctx = ExecContext::global().withSeed(14);
    model.fit(tinySurrogateData(), ctx);
    const std::string path = tempPath("hwpr_ckpt_flags.bin");
    ASSERT_TRUE(model.save(path));
    const std::string saved = readFile(path);

    std::string body;
    ASSERT_TRUE(readVerified(path, body));
    std::istringstream in(body, std::ios::binary);
    BinaryReader r(in);
    ASSERT_EQ(readHeader(r, "hwprnas"), 2u);
    const std::size_t start = std::size_t(in.tellg());
    core::EncoderConfig enc;
    std::vector<std::size_t> widths;
    core::readEncoderConfig(r, enc, false);
    core::readWidths(r, widths); // headHidden
    core::readWidths(r, widths); // combinerHidden
    ASSERT_TRUE(r.ok());
    // The AF word, rmseWeight, then the shared-head word.
    const std::size_t af = std::size_t(in.tellg());
    const std::size_t shared = af + 16;
    auto wordAt = [&body](std::size_t pos) {
        std::uint64_t v;
        std::memcpy(&v, body.data() + pos, 8);
        return v;
    };
    ASSERT_EQ(wordAt(af), 1u);
    ASSERT_EQ(wordAt(shared), 0u);

    // Every field after the header is 8-byte words: re-save them with
    // the word at @p at replaced by @p value.
    auto resave = [&](std::size_t at, std::uint64_t value) {
        return atomicSave(path, [&](BinaryWriter &w) {
            writeHeader(w, "hwprnas", 2);
            for (std::size_t pos = start; pos + 8 <= body.size();
                 pos += 8)
                w.writeU64(pos == at ? value : wordAt(pos));
        });
    };
    ASSERT_TRUE(resave(af, 1));
    EXPECT_EQ(readFile(path), saved);
    EXPECT_NE(core::HwPrNas::load(path), nullptr);
    ASSERT_TRUE(resave(af, 0));
    EXPECT_EQ(core::HwPrNas::load(path), nullptr);
    ASSERT_TRUE(resave(shared, 1));
    EXPECT_EQ(core::HwPrNas::load(path), nullptr);
    std::remove(path.c_str());
}

// -------------------------------------------------------------------
// MOEA checkpoint/resume
// -------------------------------------------------------------------

TEST(MoeaCheckpointTest, SaveLoadRoundTrip)
{
    search::MoeaCheckpoint ck;
    ck.populationSize = 4;
    ck.stats.wallSeconds = 1.5;
    ck.stats.simulatedSeconds = 9.0;
    ck.stats.evaluations = 80;
    ck.stats.generations = 5;
    Rng rng(3);
    const search::SearchDomain domain =
        search::SearchDomain::unionBenchmarks();
    for (int i = 0; i < 4; ++i) {
        ck.population.push_back(domain.sample(rng));
        ck.fitness.push_back({double(i), double(10 - i)});
    }
    ck.rngState = rng.saveState();

    const std::string path = tempPath("hwpr_moea_roundtrip.ckpt");
    ASSERT_TRUE(search::saveMoeaCheckpoint(path, ck));
    EXPECT_EQ(checkpointKind(path), "moea-checkpoint");

    search::MoeaCheckpoint back;
    ASSERT_TRUE(search::loadMoeaCheckpoint(path, back));
    EXPECT_EQ(back.populationSize, ck.populationSize);
    EXPECT_DOUBLE_EQ(back.stats.wallSeconds, ck.stats.wallSeconds);
    EXPECT_DOUBLE_EQ(back.stats.simulatedSeconds,
                     ck.stats.simulatedSeconds);
    EXPECT_EQ(back.stats.evaluations, ck.stats.evaluations);
    EXPECT_EQ(back.stats.generations, ck.stats.generations);
    EXPECT_EQ(back.rngState, ck.rngState);
    ASSERT_EQ(back.population.size(), ck.population.size());
    for (std::size_t i = 0; i < back.population.size(); ++i)
        EXPECT_TRUE(back.population[i] == ck.population[i]);
    ASSERT_EQ(back.fitness.size(), ck.fitness.size());
    for (std::size_t i = 0; i < back.fitness.size(); ++i)
        EXPECT_EQ(back.fitness[i], ck.fitness[i]);
    std::remove(path.c_str());
}

TEST(MoeaCheckpointTest, CorruptionRejected)
{
    search::MoeaCheckpoint ck;
    ck.populationSize = 2;
    Rng rng(4);
    const search::SearchDomain domain =
        search::SearchDomain::unionBenchmarks();
    ck.population = {domain.sample(rng), domain.sample(rng)};
    ck.fitness = {{1, 2}, {2, 1}};
    ck.rngState = rng.saveState();
    const std::string path = tempPath("hwpr_moea_corrupt.ckpt");
    ASSERT_TRUE(search::saveMoeaCheckpoint(path, ck));

    const std::string full = readFile(path);
    for (std::size_t pos = 0; pos < full.size();
         pos += full.size() / 19 + 1) {
        std::string corrupt = full;
        corrupt[pos] = char(corrupt[pos] ^ 0x10);
        writeFile(path, corrupt);
        search::MoeaCheckpoint out;
        EXPECT_FALSE(search::loadMoeaCheckpoint(path, out))
            << "accepted corruption at byte " << pos;
    }

    // Wrong kind.
    ASSERT_TRUE(atomicSave(path, [](BinaryWriter &w) {
        writeHeader(w, "hwprnas", 2);
    }));
    search::MoeaCheckpoint out;
    EXPECT_FALSE(search::loadMoeaCheckpoint(path, out));
    std::remove(path.c_str());
}

TEST(MoeaCheckpointTest, OutOfRangeGenomeRejected)
{
    // Hand-craft a checkpoint whose genome gene is out of range for
    // the declared space; the CRC is valid, so only semantic
    // validation can catch it.
    const std::string path = tempPath("hwpr_moea_badgene.ckpt");
    Rng rng(5);
    const std::string state = rng.saveState();
    const auto &space = nasbench::nasBench201();
    ASSERT_TRUE(atomicSave(path, [&](BinaryWriter &w) {
        writeHeader(w, "moea-checkpoint", 1);
        w.writeU64(1); // populationSize
        w.writeDouble(0.0);
        w.writeDouble(0.0);
        w.writeU64(0);
        w.writeU64(0);
        w.writeU64(0);
        w.writeString(state);
        w.writeU64(1); // population count
        w.writeU64(std::uint64_t(nasbench::SpaceId::NasBench201));
        w.writeU64(space.genomeLength());
        for (std::size_t i = 0; i < space.genomeLength(); ++i)
            w.writeI64(9999); // far out of range
        w.writeU64(1); // fitness count
        w.writeDoubles({1.0, 2.0});
    }));
    search::MoeaCheckpoint out;
    EXPECT_FALSE(search::loadMoeaCheckpoint(path, out));
    std::remove(path.c_str());
}

TEST(MoeaResume, BitIdenticalToUninterruptedRun)
{
    const search::SearchDomain domain =
        search::SearchDomain::unionBenchmarks();
    const std::size_t total_gens = 12;

    // Reference: one uninterrupted run.
    HashEvaluator ref_eval;
    Rng ref_rng(42);
    const auto reference = search::Moea(smallMoea(total_gens))
                               .run(domain, ref_eval, ref_rng);

    for (std::size_t stop_at : {std::size_t(1), std::size_t(5),
                                std::size_t(11)}) {
        const std::string dir =
            tempPath("hwpr_moea_resume_" + std::to_string(stop_at));
        std::filesystem::create_directories(dir);

        // "Killed" run: stops after stop_at generations, leaving its
        // checkpoint behind.
        {
            HashEvaluator eval;
            Rng rng(42);
            search::CheckpointOptions ckpt;
            ckpt.dir = dir;
            search::Moea(smallMoea(stop_at))
                .run(domain, eval, rng, ckpt);
        }

        // Resumed run: picks the checkpoint up and finishes.
        search::MoeaCheckpoint resume;
        ASSERT_TRUE(
            search::loadMoeaCheckpoint(dir + "/moea.ckpt", resume));
        EXPECT_EQ(resume.stats.generations, stop_at);
        HashEvaluator eval;
        Rng rng(7777); // seed irrelevant: state comes from the file
        search::CheckpointOptions ckpt;
        ckpt.resume = &resume;
        const auto resumed = search::Moea(smallMoea(total_gens))
                                 .run(domain, eval, rng, ckpt);

        // Population, fitness and accounting all match bit for bit.
        EXPECT_EQ(resumed.stats.generations,
                  reference.stats.generations);
        EXPECT_EQ(resumed.stats.evaluations,
                  reference.stats.evaluations);
        ASSERT_EQ(resumed.population.size(),
                  reference.population.size());
        for (std::size_t i = 0; i < resumed.population.size(); ++i)
            EXPECT_TRUE(resumed.population[i] ==
                        reference.population[i])
                << "population diverged at index " << i
                << " (resumed from generation " << stop_at << ")";
        ASSERT_EQ(resumed.fitness.size(), reference.fitness.size());
        for (std::size_t i = 0; i < resumed.fitness.size(); ++i)
            EXPECT_EQ(resumed.fitness[i], reference.fitness[i]);

        const pareto::Point ref_pt =
            pareto::nadirReference(reference.fitness, 0.1);
        EXPECT_DOUBLE_EQ(
            pareto::hypervolume(resumed.fitness, ref_pt),
            pareto::hypervolume(reference.fitness, ref_pt));
        std::filesystem::remove_all(dir);
    }
}

TEST(MoeaResume, CompletedRunResumesToSameResult)
{
    // Resuming a checkpoint that already reached maxGenerations must
    // return the stored state unchanged (the CI kill-and-resume smoke
    // relies on this when the kill lands after the run finished).
    const search::SearchDomain domain =
        search::SearchDomain::unionBenchmarks();
    const std::string dir = tempPath("hwpr_moea_resume_done");
    std::filesystem::create_directories(dir);

    HashEvaluator eval;
    Rng rng(21);
    search::CheckpointOptions ckpt;
    ckpt.dir = dir;
    const auto full =
        search::Moea(smallMoea(6)).run(domain, eval, rng, ckpt);

    search::MoeaCheckpoint resume;
    ASSERT_TRUE(
        search::loadMoeaCheckpoint(dir + "/moea.ckpt", resume));
    HashEvaluator eval2;
    Rng rng2(1);
    search::CheckpointOptions resume_opts;
    resume_opts.resume = &resume;
    const auto again =
        search::Moea(smallMoea(6)).run(domain, eval2, rng2,
                                       resume_opts);
    ASSERT_EQ(again.population.size(), full.population.size());
    for (std::size_t i = 0; i < again.population.size(); ++i)
        EXPECT_TRUE(again.population[i] == full.population[i]);
    std::filesystem::remove_all(dir);
}

// -------------------------------------------------------------------
// RandomSearch budget handling
// -------------------------------------------------------------------

TEST(RandomSearchBudget, ZeroAffordableEvaluationsReturnsEmpty)
{
    // Each evaluation costs more than the whole budget: the search
    // must report an empty, budget-stopped result instead of
    // aborting the process.
    search::RandomSearchConfig cfg;
    cfg.budget = 50;
    cfg.keep = 10;
    cfg.simulatedBudgetSeconds = 1.0;
    HashEvaluator eval(100.0); // 100 s per evaluation
    Rng rng(2);
    const auto result = search::RandomSearch(cfg).run(
        search::SearchDomain::unionBenchmarks(), eval, rng);
    EXPECT_TRUE(result.population.empty());
    EXPECT_TRUE(result.fitness.empty());
    EXPECT_EQ(result.stats.evaluations, 0u);
    EXPECT_TRUE(result.stats.stoppedByBudget);
}

TEST(RandomSearchBudget, PartialBudgetStillReturnsSurvivors)
{
    search::RandomSearchConfig cfg;
    cfg.budget = 50;
    cfg.keep = 10;
    cfg.simulatedBudgetSeconds = 5.0;
    HashEvaluator eval(1.0); // budget affords 5 of the 50
    Rng rng(3);
    const auto result = search::RandomSearch(cfg).run(
        search::SearchDomain::unionBenchmarks(), eval, rng);
    EXPECT_EQ(result.stats.evaluations, 5u);
    EXPECT_TRUE(result.stats.stoppedByBudget);
    EXPECT_FALSE(result.population.empty());
}
