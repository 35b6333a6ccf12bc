/**
 * @file
 * Property tests for the fused, plan-backed inference pipeline: for
 * every surrogate family (HW-PR-NAS, scalable, BRP-NAS, GATES, LUT),
 * predictBatch() over a generated batch must be *bitwise* identical
 * to querying the same architectures one at a time, invariant to the
 * global thread count (1/2/4/8 lanes), and stable under plan reuse
 * (a warm plan recycled across differently sized batches changes
 * nothing). The plan-reuse property also covers the dominance
 * family and alternates predict and rank passes on one plan, because
 * plan scratch is recycled by acquisition order across shapes and
 * pass types.
 *
 * Bitwise identity holds because chunk boundaries depend only on the
 * batch size, every output element owns one ascending-k accumulation
 * chain, and the test encoder dims are multiples of the activation
 * kernel's 4-lane width (see DESIGN.md "Inference hot path").
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/brpnas.h"
#include "baselines/gates.h"
#include "baselines/lut.h"
#include "common/prop.h"
#include "common/threadpool.h"
#include "core/batch_plan.h"
#include "core/dominance.h"
#include "core/hwprnas.h"
#include "core/scalable.h"
#include "core/surrogate.h"
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

/**
 * All five families, fitted once on the tiny dataset. Encoder dims
 * are multiples of 4 on purpose: the elementwise activation kernel
 * runs 4 doubles per lane, so rows of a (n x cols) panel only share
 * the single-row lane phase when cols % 4 == 0 — which is what makes
 * batched-vs-scalar identity exact rather than approximate.
 */
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
        return out;
    }();
    return fams;
}

/**
 * The dominance classifier, fitted once. Only the plan-reuse property
 * runs it here; test_prop_dominance.cc pins its other paths.
 */
const core::Surrogate &
dominanceModel()
{
    static const std::unique_ptr<core::DominanceSurrogate> model = [] {
        core::DominanceConfig cfg;
        cfg.encoder.gcnHidden = 16;
        cfg.encoder.lstmHidden = 16;
        cfg.encoder.embedDim = 8;
        cfg.headHidden = {16, 8};
        cfg.referenceSize = 24;
        cfg.maxPairsPerEpoch = 3000;
        cfg.maxValPairs = 500;
        auto m = std::make_unique<core::DominanceSurrogate>(
            cfg, nasbench::DatasetId::Cifar10, 15);
        core::TrainConfig quick;
        quick.epochs = 3;
        quick.patience = 3;
        quick.batchSize = 64;
        const auto &data = propData();
        m->train(data.select(data.trainIdx), data.select(data.valIdx),
                 hw::PlatformId::EdgeGpu, quick);
        return m;
    }();
    return *model;
}

/**
 * A batch of architectures from either space. Sizes reach past the
 * 16-row chunk grain so multi-chunk plans are exercised; shrinking
 * drops one element at a time.
 */
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

} // namespace

TEST(PropPredict, BatchedMatchesScalarBitwise)
{
    const auto r = prop::forAll<std::vector<nasbench::Architecture>>(
        prop::Config::fromEnv(0xF05ED001, 25), batchGen(), showBatch,
        [](const std::vector<nasbench::Architecture> &batch)
            -> std::optional<std::string> {
            for (const Family &fam : families()) {
                core::BatchPlan plan;
                const Matrix batched =
                    fam.model->predictBatch(batch, plan);
                Matrix singles(batched.rows(), batched.cols());
                core::BatchPlan one;
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    const Matrix &row = fam.model->predictBatch(
                        std::span<const nasbench::Architecture>(
                            &batch[i], 1),
                        one);
                    for (std::size_t c = 0; c < batched.cols(); ++c)
                        singles(i, c) = row(0, c);
                }
                if (auto err = expectSameBits(
                        fam.name, batched, singles,
                        "batched vs one-at-a-time"))
                    return err;
            }
            return std::nullopt;
        });
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropPredict, PredictionsInvariantToThreadCount)
{
    const std::size_t before = ExecContext::global().threads();
    const auto r = prop::forAll<std::vector<nasbench::Architecture>>(
        prop::Config::fromEnv(0xF05ED002, 15), batchGen(), showBatch,
        [](const std::vector<nasbench::Architecture> &batch)
            -> std::optional<std::string> {
            for (const Family &fam : families()) {
                ExecContext::setGlobalThreads(1);
                core::BatchPlan plan;
                const Matrix serial =
                    fam.model->predictBatch(batch, plan);
                for (std::size_t threads : {2u, 4u, 8u}) {
                    ExecContext::setGlobalThreads(threads);
                    core::BatchPlan tplan;
                    const Matrix &parallel =
                        fam.model->predictBatch(batch, tplan);
                    if (auto err = expectSameBits(
                            fam.name, serial, parallel,
                            "thread-count variance"))
                        return err;
                }
            }
            return std::nullopt;
        });
    ExecContext::setGlobalThreads(before);
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropPredict, WarmPlanReuseIsStable)
{
    std::vector<std::pair<std::string, const core::Surrogate *>> all;
    for (const Family &fam : families())
        all.emplace_back(fam.name, fam.model.get());
    all.emplace_back("dominance", &dominanceModel());

    const auto r = prop::forAll<std::vector<nasbench::Architecture>>(
        prop::Config::fromEnv(0xF05ED003, 15), batchGen(), showBatch,
        [&all](const std::vector<nasbench::Architecture> &batch)
            -> std::optional<std::string> {
            for (const Family &fam : families()) {
                // Cold plan, then the same plan warmed by a pass over
                // a differently sized prefix, then the full batch
                // again: all three full-batch passes must agree.
                core::BatchPlan plan;
                const Matrix cold =
                    fam.model->predictBatch(batch, plan);
                const std::size_t half = (batch.size() + 1) / 2;
                fam.model->predictBatch(
                    std::span<const nasbench::Architecture>(
                        batch.data(), half),
                    plan);
                const Matrix &warm =
                    fam.model->predictBatch(batch, plan);
                if (auto err = expectSameBits(fam.name, cold, warm,
                                              "cold vs warm plan"))
                    return err;
            }

            // One plan alternates rank and predict passes over the
            // batch, a shorter prefix and a longer batch (the batch,
            // then mutants the rank caches have not seen, so rank
            // passes miss): every full-batch pass must equal a cold
            // plan's, whatever buffers the earlier passes left.
            const std::span<const nasbench::Architecture> full(batch);
            const std::span<const nasbench::Architecture> prefix =
                full.first((batch.size() + 1) / 2);
            std::vector<nasbench::Architecture> longer = batch;
            Rng mut(batch.size());
            for (std::size_t k = 0; k < 2; ++k)
                for (const nasbench::Architecture &a : batch)
                    longer.push_back(
                        nasbench::spaceFor(a.space).mutate(a, 0.3, mut));
            const struct
            {
                bool rank;
                std::span<const nasbench::Architecture> archs;
            } steps[] = {{true, longer},  {false, full},
                         {true, prefix},  {true, full},
                         {false, longer}, {true, full},
                         {false, prefix}, {false, full}};
            for (const auto &[name, model] : all) {
                core::BatchPlan cold_predict_plan, cold_rank_plan;
                const Matrix &cold_predict =
                    model->predictBatch(full, cold_predict_plan);
                const Matrix &cold_rank =
                    model->rankBatch(full, cold_rank_plan);
                core::BatchPlan plan;
                for (const auto &step : steps) {
                    const Matrix &got =
                        step.rank ? model->rankBatch(step.archs, plan)
                                  : model->predictBatch(step.archs, plan);
                    if (step.archs.size() != batch.size() ||
                        step.archs.data() != batch.data())
                        continue;
                    if (auto err = expectSameBits(
                            name, step.rank ? cold_rank : cold_predict,
                            got,
                            step.rank ? "cold vs mixed-plan rank"
                                      : "cold vs mixed-plan predict"))
                        return err;
                }
            }
            return std::nullopt;
        });
    EXPECT_TRUE(r.ok) << r.message;
}
