/**
 * @file
 * Property tests for the rank path and the flattened GBDT descent
 * (see DESIGN.md "Rank path"):
 *
 *  - rankBatch() is bit-reproducible across thread counts 1/2/4/8 and
 *    across cold/warm encoding caches for every surrogate family;
 *  - rankBatch() equals predictBatch() byte for byte for every
 *    family on NB-201 and FBNet pools, cold and warm, at 1 and 4
 *    threads;
 *  - Gbdt::predictBatch() (flattened SoA, branch-free descent) is
 *    bitwise identical to the per-row node-walking oracle
 *    predictRow().
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/brpnas.h"
#include "baselines/gates.h"
#include "baselines/lut.h"
#include "baselines/registry.h"
#include "common/prop.h"
#include "common/threadpool.h"
#include "core/batch_plan.h"
#include "core/dominance.h"
#include "core/hwprnas.h"
#include "core/scalable.h"
#include "core/surrogate.h"
#include "gbdt/gbdt.h"
#include "nasbench/dataset.h"
#include "prop_gens.h"

using namespace hwpr;

namespace
{

/** One fitted surrogate family under test. */
struct Family
{
    std::string name;
    std::unique_ptr<core::Surrogate> model;
};

const nasbench::SampledDataset &
propData()
{
    static const nasbench::SampledDataset data = [] {
        static nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
        Rng rng(97);
        return nasbench::SampledDataset::sample(
            {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle,
            260, 180, 40, rng);
    }();
    return data;
}

/** All six families, fitted once (same protocol as test_prop_predict). */
const std::vector<Family> &
families()
{
    static const std::vector<Family> fams = [] {
        core::EncoderConfig enc;
        enc.gcnHidden = 16;
        enc.lstmHidden = 16;
        enc.embedDim = 8;

        core::TrainConfig quick;
        quick.epochs = 4;
        quick.combinerEpochs = 2;
        quick.learningRate = 2e-3;

        const auto &data = propData();
        core::SurrogateDataset sd;
        sd.train = data.select(data.trainIdx);
        sd.val = data.select(data.valIdx);
        sd.platform = hw::PlatformId::EdgeGpu;
        ExecContext ctx = ExecContext::global().withSeed(5);

        core::PredictorTrainConfig pquick;
        pquick.epochs = 4;
        pquick.lr = 2e-3;

        std::vector<Family> out;

        core::HwPrNasConfig mc;
        mc.encoder = enc;
        auto hwpr = std::make_unique<core::HwPrNas>(
            mc, nasbench::DatasetId::Cifar10, 11);
        hwpr->setFitConfig(quick);
        hwpr->fit(sd, ctx);
        out.push_back({"hwprnas", std::move(hwpr)});

        core::ScalableConfig sc;
        sc.encoder = enc;
        auto scalable = std::make_unique<core::ScalableHwPrNas>(
            sc, nasbench::DatasetId::Cifar10, 12);
        scalable->setFitConfig(quick);
        scalable->fit(sd, ctx);
        out.push_back({"scalable", std::move(scalable)});

        auto brp = std::make_unique<baselines::BrpNas>(
            enc, nasbench::DatasetId::Cifar10, 13);
        brp->train(sd.train, sd.val, sd.platform, pquick);
        out.push_back({"brpnas", std::move(brp)});

        auto gates = std::make_unique<baselines::Gates>(
            enc, nasbench::DatasetId::Cifar10, 14);
        gates->train(sd.train, sd.val, sd.platform, pquick);
        out.push_back({"gates", std::move(gates)});

        auto lut = std::make_unique<baselines::LatencyLut>(
            nasbench::DatasetId::Cifar10, hw::PlatformId::EdgeGpu);
        lut->fit(sd, ctx);
        out.push_back({"lut", std::move(lut)});

        core::DominanceConfig dc;
        dc.encoder = enc;
        dc.referenceSize = 16;
        dc.maxPairsPerEpoch = 2000;
        auto dominance = std::make_unique<core::DominanceSurrogate>(
            dc, nasbench::DatasetId::Cifar10, 15);
        dominance->setFitConfig(quick);
        dominance->fit(sd, ctx);
        out.push_back({"dominance", std::move(dominance)});
        return out;
    }();
    return fams;
}

/** Batch generator shared with test_prop_predict (spans chunk grain). */
prop::Gen<std::vector<nasbench::Architecture>>
batchGen()
{
    prop::Gen<std::vector<nasbench::Architecture>> g;
    const prop::Gen<nasbench::Architecture> arch = proptest::archGen();
    g.sample = [arch](Rng &rng) {
        const std::size_t n = std::size_t(rng.intIn(1, 40));
        std::vector<nasbench::Architecture> out;
        out.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(arch.sample(rng));
        return out;
    };
    g.shrink = [](const std::vector<nasbench::Architecture> &batch) {
        std::vector<std::vector<nasbench::Architecture>> out;
        if (batch.size() <= 1)
            return out;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            std::vector<nasbench::Architecture> cand;
            cand.reserve(batch.size() - 1);
            for (std::size_t j = 0; j < batch.size(); ++j)
                if (j != i)
                    cand.push_back(batch[j]);
            out.push_back(std::move(cand));
        }
        return out;
    };
    return g;
}

std::string
showBatch(const std::vector<nasbench::Architecture> &batch)
{
    std::ostringstream out;
    out << batch.size() << " archs: ";
    for (std::size_t i = 0; i < batch.size(); ++i)
        out << (i ? " " : "") << proptest::showArch(batch[i]);
    return out.str();
}

/** Bitwise comparison; returns a message on the first mismatch. */
std::optional<std::string>
expectSameBits(const std::string &family, const Matrix &a,
               const Matrix &b, const char *what)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return family + ": " + what + ": shape mismatch";
    for (std::size_t i = 0; i < a.raw().size(); ++i)
        if (a.raw()[i] != b.raw()[i]) {
            std::ostringstream msg;
            msg.precision(17);
            msg << family << ": " << what << ": element " << i
                << " differs: " << a.raw()[i] << " vs " << b.raw()[i];
            return msg.str();
        }
    return std::nullopt;
}

/** Seed generator for properties that build their own inputs. */
prop::Gen<int>
seedGen()
{
    prop::Gen<int> g;
    g.sample = [](Rng &rng) { return int(rng.intIn(0, 1 << 30)); };
    return g;
}

} // namespace

TEST(PropQuant, RankBatchDeterministicAcrossThreadsAndCaches)
{
    const std::size_t before = ExecContext::global().threads();
    const auto r = prop::forAll<std::vector<nasbench::Architecture>>(
        prop::Config::fromEnv(0xF05ED005, 12), batchGen(), showBatch,
        [](const std::vector<nasbench::Architecture> &batch)
            -> std::optional<std::string> {
            for (const Family &fam : families()) {
                ExecContext::setGlobalThreads(1);
                core::BatchPlan plan;
                // First pass may freeze rank state and fill encoding
                // caches cold; the second runs fully warm. Cached rows
                // are bitwise-equal to fresh encodes, so the two must
                // agree exactly.
                const Matrix cold = fam.model->rankBatch(batch, plan);
                const Matrix &warm = fam.model->rankBatch(batch, plan);
                if (auto err = expectSameBits(
                        fam.name, cold, warm, "cold vs warm rank cache"))
                    return err;
                for (std::size_t threads : {2u, 4u, 8u}) {
                    ExecContext::setGlobalThreads(threads);
                    core::BatchPlan tplan;
                    const Matrix &parallel =
                        fam.model->rankBatch(batch, tplan);
                    if (auto err = expectSameBits(
                            fam.name, cold, parallel,
                            "rank-path thread-count variance"))
                        return err;
                }
            }
            return std::nullopt;
        });
    ExecContext::setGlobalThreads(before);
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropQuant, RankBatchEqualsPredictBatchBitForBit)
{
    // The rank pass runs the predict pass's fp64 heads over cached
    // encodings, so its bytes must equal predictBatch's: cold (a
    // model fresh from its checkpoint, no row cached) and warm (every
    // row cached), at 1 and 4 threads, per space (NB-201 rows go
    // through the GCN trunks, FBNet rows through the LSTM trunks).
    constexpr std::size_t kPool = 120;
    Rng rng(0xF05ED006);
    std::vector<nasbench::Architecture> nb201, fbnet;
    for (std::size_t i = 0; i < kPool; ++i) {
        nb201.push_back(nasbench::nasBench201().sample(rng));
        fbnet.push_back(nasbench::fbnet().sample(rng));
    }
    baselines::registerBaselineLoaders();
    const std::size_t before = ExecContext::global().threads();
    for (const Family &fam : families()) {
        const std::string path =
            testing::TempDir() + "prop_quant_" + fam.name + ".ckpt";
        ASSERT_TRUE(fam.model->save(path)) << fam.name;
        for (std::size_t threads : {1u, 4u}) {
            ExecContext::setGlobalThreads(threads);
            const auto fresh = core::loadSurrogate(path);
            ASSERT_NE(fresh, nullptr) << fam.name;
            for (const auto *pool : {&nb201, &fbnet}) {
                SCOPED_TRACE(fam.name + " at " + std::to_string(threads) +
                             " threads on " +
                             (pool == &nb201 ? "nb201" : "fbnet"));
                core::BatchPlan predict_plan, rank_plan;
                const Matrix cold = fresh->rankBatch(*pool, rank_plan);
                const Matrix &want =
                    fresh->predictBatch(*pool, predict_plan);
                const Matrix &warm = fresh->rankBatch(*pool, rank_plan);
                for (const Matrix *got : {&cold, &warm}) {
                    ASSERT_EQ(got->rows(), want.rows());
                    ASSERT_EQ(got->cols(), want.cols());
                    EXPECT_EQ(std::memcmp(got->data(), want.data(),
                                          want.raw().size() *
                                              sizeof(double)),
                              0)
                        << (got == &cold ? "cold" : "warm");
                }
            }
        }
        std::remove(path.c_str());
    }
    ExecContext::setGlobalThreads(before);
}

TEST(PropQuant, GbdtFlatBatchMatchesRowOracle)
{
    const auto r = prop::forAll<int>(
        prop::Config::fromEnv(0xF05ED007, 20), seedGen(),
        [](int seed) -> std::optional<std::string> {
            Rng rng(std::uint64_t(seed) + 1);
            const std::size_t n = std::size_t(rng.intIn(8, 120));
            const std::size_t d = std::size_t(rng.intIn(2, 12));
            Matrix x(n, d);
            for (double &v : x.raw())
                v = rng.normal();
            std::vector<double> y(n);
            for (std::size_t i = 0; i < n; ++i)
                y[i] = x(i, 0) * 2.0 - x(i, d - 1) + rng.normal();

            gbdt::GbdtConfig cfg = rng.bernoulli(0.5)
                                       ? gbdt::xgboostConfig()
                                       : gbdt::lgboostConfig();
            cfg.rounds = std::size_t(rng.intIn(1, 25));
            gbdt::Gbdt model(cfg);
            model.fit(x, y, rng);

            const Matrix batched = model.predictBatch(x);
            for (std::size_t i = 0; i < n; ++i) {
                const double oracle = model.predictRow(x, i);
                if (batched(i, 0) != oracle) {
                    std::ostringstream msg;
                    msg.precision(17);
                    msg << "row " << i << ": flat " << batched(i, 0)
                        << " vs node-walk " << oracle;
                    return msg.str();
                }
            }
            return std::nullopt;
        });
    EXPECT_TRUE(r.ok) << r.message;
}
