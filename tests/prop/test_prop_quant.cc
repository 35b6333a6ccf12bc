/**
 * @file
 * Property tests for the quantized rank-only fast path and the
 * flattened GBDT descent (see DESIGN.md "Quantized rank path"):
 *
 *  - quantize -> dequantize round-trips within half a quantization
 *    step per weight channel / activation row;
 *  - the int8 layer's dot products equal a scalar int64 reference
 *    exactly, at full scale and past one int32 run;
 *  - rankBatch() is bit-reproducible across thread counts 1/2/4/8 and
 *    across cold/warm encoding caches for every surrogate family;
 *  - int8 rankBatch() agrees with fp64 predictBatch() at Kendall
 *    tau >= 0.98 on seeded batches from each space — rank fidelity is
 *    the whole contract of the quantized path;
 *  - Gbdt::predictBatch() (flattened SoA, branch-free descent) is
 *    bitwise identical to the per-row node-walking oracle
 *    predictRow().
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/brpnas.h"
#include "baselines/gates.h"
#include "baselines/lut.h"
#include "common/prop.h"
#include "common/stats.h"
#include "common/threadpool.h"
#include "core/batch_plan.h"
#include "core/hwprnas.h"
#include "core/scalable.h"
#include "core/surrogate.h"
#include "gbdt/gbdt.h"
#include "nasbench/dataset.h"
#include "nn/layers.h"
#include "nn/quant.h"
#include "nn/scratch.h"
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

/** All five families, fitted once (same protocol as test_prop_predict). */
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

TEST(PropQuant, RoundTripWithinHalfStepPerChannel)
{
    const auto r = prop::forAll<int>(
        prop::Config::fromEnv(0xF05ED004, 60), seedGen(),
        [](int seed) -> std::optional<std::string> {
            Rng rng(std::uint64_t(seed) + 1);
            nn::MlpConfig cfg;
            cfg.inDim = std::size_t(rng.intIn(1, 48));
            cfg.hidden = {std::size_t(rng.intIn(1, 32))};
            if (rng.bernoulli(0.5))
                cfg.hidden.push_back(std::size_t(rng.intIn(1, 16)));
            cfg.outDim = std::size_t(rng.intIn(1, 4));
            const nn::Mlp mlp(cfg, rng);
            const nn::QuantizedMlp qmlp(mlp);

            // Weight channels: |W(k,j) - scale_j * q(j,k)| <= scale_j/2.
            for (std::size_t l = 0; l < qmlp.layers().size(); ++l) {
                const nn::QuantizedLinear &ql = qmlp.layers()[l];
                const Matrix &w = mlp.layers()[l].weight();
                for (std::size_t j = 0; j < ql.outDim(); ++j) {
                    const double scale = double(ql.weightScales()[j]);
                    for (std::size_t k = 0; k < ql.inDim(); ++k) {
                        const double deq =
                            scale *
                            double(ql.weights()[j * ql.inDim() + k]);
                        const double err = std::fabs(w(k, j) - deq);
                        if (err > scale / 2 + 1e-12) {
                            std::ostringstream msg;
                            msg.precision(17);
                            msg << "layer " << l << " channel " << j
                                << " weight " << k
                                << ": round-trip error " << err
                                << " > half step " << scale / 2;
                            return msg.str();
                        }
                    }
                }
            }

            // Activation rows: same bound at int16 resolution.
            std::vector<double> row(cfg.inDim);
            for (double &v : row)
                v = rng.normal() * std::exp(rng.normal());
            std::vector<std::int16_t> q(row.size());
            double scale = 0.0;
            nn::QuantizedLinear::quantizeActRow(row.data(), row.size(),
                                                q.data(), scale);
            for (std::size_t k = 0; k < row.size(); ++k) {
                const double err =
                    std::fabs(row[k] - scale * double(q[k]));
                if (err > scale / 2 + 1e-12) {
                    std::ostringstream msg;
                    msg.precision(17);
                    msg << "activation " << k << ": round-trip error "
                        << err << " > half step " << scale / 2;
                    return msg.str();
                }
            }
            return std::nullopt;
        });
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropQuant, ForwardQuantizedSumsExactlyAtFullScale)
{
    // The int8 layer's dot products against a scalar int64 reference,
    // bit for bit after the fp64 epilogue. Widths run past one 256-k
    // int32 run (the paper's 600-wide inputs included) with every
    // tail 0-15, and one case in four is over 4,000 wide, where eight
    // int32 lanes summed without widening would overflow at full
    // scale. Half the cases are at full scale: every weight +127 and
    // every input of a row +-32767.
    const auto r = prop::forAll<int>(
        prop::Config::fromEnv(0xF05ED005, 80), seedGen(),
        [](int seed) -> std::optional<std::string> {
            Rng rng(std::uint64_t(seed) + 1);
            const std::size_t in = rng.bernoulli(0.25)
                                       ? std::size_t(rng.intIn(4000, 5000))
                                       : std::size_t(rng.intIn(1, 700));
            const std::size_t out = std::size_t(rng.intIn(1, 5));
            const std::size_t n = std::size_t(rng.intIn(1, 4));
            nn::Linear lin(in, out, rng);
            const bool full = rng.bernoulli(0.5);
            if (full)
                lin.params()[0].valueMut().fill(1.0);
            const nn::QuantizedLinear ql(lin);
            std::vector<std::int16_t> xq(n * in);
            std::vector<double> xs(n);
            for (std::size_t row = 0; row < n; ++row) {
                const std::int16_t sign = rng.bernoulli(0.5) ? 1 : -1;
                for (std::size_t k = 0; k < in; ++k)
                    xq[row * in + k] =
                        full ? std::int16_t(sign * 32767)
                             : std::int16_t(rng.intIn(-32767, 32767));
                xs[row] = rng.uniform(1e-6, 1e-2);
            }
            Matrix got(n, out);
            ql.forwardQuantized(xq.data(), xs.data(), n, got);
            for (std::size_t row = 0; row < n; ++row)
                for (std::size_t j = 0; j < out; ++j) {
                    std::int64_t acc = 0;
                    for (std::size_t k = 0; k < in; ++k)
                        acc += std::int64_t(xq[row * in + k]) *
                               std::int64_t(ql.weights()[j * in + k]);
                    const double want =
                        double(acc) * xs[row] *
                            double(ql.weightScales()[j]) +
                        ql.bias()[j];
                    if (std::memcmp(&want, &got(row, j), sizeof want)) {
                        std::ostringstream msg;
                        msg.precision(17);
                        msg << "in=" << in << " row " << row
                            << " channel " << j << ": got " << got(row, j)
                            << ", int64 reference " << want;
                        return msg.str();
                    }
                }
            return std::nullopt;
        });
    EXPECT_TRUE(r.ok) << r.message;
}

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

TEST(PropQuant, Int8RankAgreesWithFp64PerSpace)
{
    // Seeded pools per space: rank fidelity is the contract, so the
    // tau floor is checked on NB201 and FBNet separately (the spaces
    // stress the GCN and LSTM encoders differently).
    constexpr std::size_t kPool = 120;
    constexpr double kTauFloor = 0.98;
    Rng rng(0xF05ED006);
    std::vector<nasbench::Architecture> nb201, fbnet;
    for (std::size_t i = 0; i < kPool; ++i) {
        nb201.push_back(nasbench::nasBench201().sample(rng));
        fbnet.push_back(nasbench::fbnet().sample(rng));
    }

    for (const Family &fam : families()) {
        for (const auto *pool : {&nb201, &fbnet}) {
            core::BatchPlan fp64_plan, int8_plan;
            const Matrix &f = fam.model->predictBatch(*pool, fp64_plan);
            const Matrix &q = fam.model->rankBatch(*pool, int8_plan);
            ASSERT_EQ(f.rows(), q.rows()) << fam.name;
            ASSERT_EQ(f.cols(), q.cols()) << fam.name;
            std::vector<double> x(f.rows()), y(f.rows());
            for (std::size_t c = 0; c < f.cols(); ++c) {
                for (std::size_t r = 0; r < f.rows(); ++r) {
                    x[r] = f(r, c);
                    y[r] = q(r, c);
                }
                EXPECT_GE(kendallTau(x, y), kTauFloor)
                    << fam.name << " column " << c << " on "
                    << (pool == &nb201 ? "nb201" : "fbnet");
            }
        }
    }
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
