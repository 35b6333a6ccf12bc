/**
 * @file
 * Core-library tests: encoders, the single-metric predictor, the
 * HW-PR-NAS model (training improves Pareto-rank correlation and the
 * per-branch predictions), and the scalable variant with the frozen-
 * encoder energy fine-tune. Training sizes are kept small so the test
 * suite stays fast; quality thresholds are correspondingly loose.
 */

#include <gtest/gtest.h>

#include <fstream>

#include "common/stats.h"
#include "core/encoding.h"
#include "core/hwprnas.h"
#include "core/predictor.h"
#include "core/scalable.h"
#include "core/train_util.h"
#include "pareto/pareto.h"
#include "search/evaluator.h"

using namespace hwpr;
using namespace hwpr::core;

namespace
{

/** Shared tiny dataset fixture (sampled once per process). */
const nasbench::SampledDataset &
tinyData()
{
    static const nasbench::SampledDataset data = [] {
        static nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
        Rng rng(1234);
        return nasbench::SampledDataset::sample(
            {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle,
            420, 280, 70, rng);
    }();
    return data;
}

EncoderConfig
tinyEncoder()
{
    EncoderConfig cfg;
    cfg.gcnHidden = 24;
    cfg.lstmHidden = 24;
    cfg.embedDim = 12;
    return cfg;
}

std::vector<nasbench::Architecture>
archsOf(const std::vector<const nasbench::ArchRecord *> &recs)
{
    std::vector<nasbench::Architecture> out;
    for (const auto *r : recs)
        out.push_back(r->arch);
    return out;
}

} // namespace

TEST(TargetScalerTest, RoundTrips)
{
    const std::vector<double> y = {1, 5, 9, 13};
    const auto s = TargetScaler::fit(y);
    for (double v : y)
        EXPECT_NEAR(s.denorm(s.norm(v)), v, 1e-12);
    const auto n = s.normAll(y);
    EXPECT_NEAR(mean(n), 0.0, 1e-12);
}

TEST(TrainUtil, BatchesCoverAllIndices)
{
    Rng rng(2);
    const auto batches = makeBatches(100, 32, rng);
    std::vector<bool> seen(100, false);
    for (const auto &b : batches)
        for (std::size_t i : b)
            seen[i] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(TrainUtil, SnapshotRestore)
{
    nn::Tensor p = nn::Tensor::param(Matrix(2, 2, 1.0), "p");
    const auto snap = snapshotParams({p});
    p.valueMut()(0, 0) = 99.0;
    restoreParams({p}, snap);
    EXPECT_DOUBLE_EQ(p.value()(0, 0), 1.0);
}

class EncoderDimTest : public ::testing::TestWithParam<EncodingKind>
{
};

TEST_P(EncoderDimTest, DimensionsAndDeterminism)
{
    const auto &data = tinyData();
    const auto fit = archsOf(data.select(data.trainIdx));
    Rng rng(3);
    ArchEncoder enc(GetParam(), tinyEncoder(),
                    nasbench::DatasetId::Cifar10, fit, rng);
    EXPECT_GT(enc.dim(), 0u);

    std::vector<nasbench::Architecture> batch(fit.begin(),
                                              fit.begin() + 5);
    const nn::Tensor a = enc.encode(batch);
    const nn::Tensor b = enc.encode(batch);
    EXPECT_EQ(a.rows(), 5u);
    EXPECT_EQ(a.cols(), enc.dim());
    for (std::size_t i = 0; i < a.value().size(); ++i)
        EXPECT_DOUBLE_EQ(a.value().raw()[i], b.value().raw()[i]);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, EncoderDimTest,
    ::testing::Values(EncodingKind::AF, EncodingKind::LSTM,
                      EncodingKind::GCN, EncodingKind::LSTM_AF,
                      EncodingKind::GCN_AF, EncodingKind::ALL));

TEST(EncoderTest, AllConcatenatesAllThree)
{
    const auto &data = tinyData();
    const auto fit = archsOf(data.select(data.trainIdx));
    Rng rng(4);
    const EncoderConfig cfg = tinyEncoder();
    ArchEncoder enc(EncodingKind::ALL, cfg,
                    nasbench::DatasetId::Cifar10, fit, rng);
    EXPECT_EQ(enc.dim(), nasbench::kNumArchFeatures + cfg.lstmHidden +
                             cfg.gcnHidden);
}

TEST(EncoderTest, MixedSpaceBatch)
{
    const auto &data = tinyData();
    const auto fit = archsOf(data.select(data.trainIdx));
    Rng rng(5);
    ArchEncoder enc(EncodingKind::ALL, tinyEncoder(),
                    nasbench::DatasetId::Cifar10, fit, rng);
    // Force one arch of each space into the same batch.
    Rng srng(6);
    std::vector<nasbench::Architecture> batch = {
        nasbench::nasBench201().sample(srng),
        nasbench::fbnet().sample(srng)};
    const nn::Tensor out = enc.encode(batch);
    EXPECT_EQ(out.rows(), 2u);
}

TEST(Predictor, MlpLearnsLatencyRanking)
{
    const auto &data = tinyData();
    MetricPredictor pred(EncodingKind::LSTM_AF, tinyEncoder(),
                         RegressorKind::Mlp,
                         nasbench::DatasetId::Cifar10, 7);
    PredictorTrainConfig cfg;
    // Small dataset -> few optimizer steps per epoch; compensate with
    // a larger learning rate and more epochs than the paper defaults.
    cfg.epochs = 40;
    cfg.lr = 1.5e-3;
    const std::size_t pidx =
        hw::platformIndex(hw::PlatformId::EdgeGpu);
    // Log target: latency spans orders of magnitude and Kendall tau
    // is invariant to the monotone transform.
    const auto target = [pidx](const nasbench::ArchRecord &r) {
        return std::log(r.latencyMs[pidx]);
    };
    pred.train(data.select(data.trainIdx), data.select(data.valIdx),
               target, cfg);
    const auto q =
        evaluatePredictor(pred, data.select(data.testIdx), target);
    EXPECT_GT(q.kendall, 0.5);
}

TEST(Predictor, XgboostLearnsAccuracyRanking)
{
    const auto &data = tinyData();
    MetricPredictor pred(EncodingKind::AF, tinyEncoder(),
                         RegressorKind::XGBoost,
                         nasbench::DatasetId::Cifar10, 8);
    const auto target = [](const nasbench::ArchRecord &r) {
        return r.accuracy;
    };
    pred.train(data.select(data.trainIdx), data.select(data.valIdx),
               target, {});
    const auto q =
        evaluatePredictor(pred, data.select(data.testIdx), target);
    EXPECT_GT(q.kendall, 0.5);
    EXPECT_LT(q.rmse, 20.0);
}

TEST(Predictor, LgboostTrains)
{
    const auto &data = tinyData();
    MetricPredictor pred(EncodingKind::AF, tinyEncoder(),
                         RegressorKind::LGBoost,
                         nasbench::DatasetId::Cifar10, 9);
    const auto target = [](const nasbench::ArchRecord &r) {
        return r.accuracy;
    };
    pred.train(data.select(data.trainIdx), data.select(data.valIdx),
               target, {});
    const auto q =
        evaluatePredictor(pred, data.select(data.testIdx), target);
    EXPECT_GT(q.kendall, 0.4);
}

TEST(HwPrNasTest, TrainingProducesUsefulScores)
{
    const auto &data = tinyData();
    HwPrNasConfig mc;
    mc.encoder = tinyEncoder();
    HwPrNas model(mc, nasbench::DatasetId::Cifar10, 10);
    TrainConfig tc;
    tc.epochs = 35;
    // Tiny dataset -> few optimizer steps; raise the paper's lr.
    tc.learningRate = 2e-3;
    tc.combinerEpochs = 2;
    model.train(data.select(data.trainIdx), data.select(data.valIdx),
                hw::PlatformId::EdgeGpu, tc);
    EXPECT_TRUE(model.trained());

    const auto test = data.select(data.testIdx);
    std::vector<pareto::Point> pts;
    for (const auto *r : test)
        pts.push_back(
            search::trueObjectives(*r, hw::PlatformId::EdgeGpu));
    const auto ranks = pareto::paretoRanks(pts);
    std::vector<double> neg_rank;
    for (int r : ranks)
        neg_rank.push_back(-double(r));
    const double tau =
        kendallTau(model.predict(archsOf(test)).raw(), neg_rank);
    // Tiny dataset/epoch budget: the bar is "clearly informative",
    // not the paper-scale correlation.
    EXPECT_GT(tau, 0.22);

    // Branch predictions are calibrated to physical units.
    const auto acc = model.predictAccuracy(archsOf(test));
    for (double v : acc) {
        EXPECT_GT(v, -50.0);
        EXPECT_LT(v, 150.0);
    }
    const auto lat = model.predictLatency(archsOf(test));
    for (double v : lat)
        EXPECT_GT(v, 0.0); // latencies are positive by construction
}

TEST(HwPrNasTest, ScoresDeterministicAfterTraining)
{
    const auto &data = tinyData();
    HwPrNasConfig mc;
    mc.encoder = tinyEncoder();
    HwPrNas model(mc, nasbench::DatasetId::Cifar10, 11);
    TrainConfig tc;
    tc.epochs = 3;
    tc.combinerEpochs = 0;
    model.train(data.select(data.trainIdx), data.select(data.valIdx),
                hw::PlatformId::Pixel3, tc);
    const auto archs = archsOf(data.select(data.testIdx));
    const auto s1 = model.predict(archs).raw();
    const auto s2 = model.predict(archs).raw();
    EXPECT_EQ(s1, s2);
}

TEST(HwPrNasTest, RmseOnlyAblationTrains)
{
    // Footnote 2 ablation: listwise loss disabled.
    const auto &data = tinyData();
    HwPrNasConfig mc;
    mc.encoder = tinyEncoder();
    HwPrNas model(mc, nasbench::DatasetId::Cifar10, 12);
    TrainConfig tc;
    tc.epochs = 15;
    tc.learningRate = 2e-3;
    tc.listwiseLoss = false;
    model.train(data.select(data.trainIdx), data.select(data.valIdx),
                hw::PlatformId::EdgeGpu, tc);
    EXPECT_TRUE(model.trained());
    const auto test = data.select(data.testIdx);
    std::vector<double> true_acc;
    for (const auto *r : test)
        true_acc.push_back(r->accuracy);
    EXPECT_GT(kendallTau(model.predictAccuracy(archsOf(test)),
                         true_acc),
              0.25);
}

TEST(ScalableTest, TrainAndAddEnergy)
{
    const auto &data = tinyData();
    ScalableConfig sc;
    sc.encoder = tinyEncoder();
    ScalableHwPrNas model(sc, nasbench::DatasetId::Cifar10, 13);
    TrainConfig tc;
    tc.epochs = 8;
    model.train(data.select(data.trainIdx), data.select(data.valIdx),
                hw::PlatformId::EdgeGpu, tc);
    EXPECT_TRUE(model.trained());
    EXPECT_FALSE(model.energyAware());

    const auto archs = archsOf(data.select(data.testIdx));
    const auto before = model.predict(archs).raw();
    model.addEnergyObjective(data.select(data.trainIdx), 3);
    EXPECT_TRUE(model.energyAware());
    const auto after = model.predict(archs).raw();
    // Fine-tuning must actually change the scoring function.
    double diff = 0.0;
    for (std::size_t i = 0; i < before.size(); ++i)
        diff += std::abs(before[i] - after[i]);
    EXPECT_GT(diff, 1e-9);

    // Scores still rank 3-objective dominance better than chance.
    std::vector<pareto::Point> pts;
    for (const auto *r : data.select(data.testIdx))
        pts.push_back(search::trueObjectives(
            *r, hw::PlatformId::EdgeGpu, true));
    const auto ranks = pareto::paretoRanks(pts);
    std::vector<double> neg_rank;
    for (int r : ranks)
        neg_rank.push_back(-double(r));
    EXPECT_GT(kendallTau(after, neg_rank), 0.1);
}

TEST(Checkpoint, SaveLoadRoundTripsScores)
{
    const auto &data = tinyData();
    HwPrNasConfig mc;
    mc.encoder = tinyEncoder();
    HwPrNas model(mc, nasbench::DatasetId::Cifar10, 21);
    TrainConfig tc;
    tc.epochs = 3;
    tc.combinerEpochs = 0;
    model.train(data.select(data.trainIdx), data.select(data.valIdx),
                hw::PlatformId::Eyeriss, tc);

    const std::string path = "/tmp/hwpr_ckpt_test.bin";
    ASSERT_TRUE(model.save(path));

    const auto loaded = HwPrNas::load(path);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->platform(), hw::PlatformId::Eyeriss);
    EXPECT_EQ(loaded->dataset(), nasbench::DatasetId::Cifar10);

    const auto archs = archsOf(data.select(data.testIdx));
    const auto s1 = model.predict(archs).raw();
    const auto s2 = loaded->predict(archs).raw();
    ASSERT_EQ(s1.size(), s2.size());
    for (std::size_t i = 0; i < s1.size(); ++i)
        EXPECT_NEAR(s1[i], s2[i], 1e-12);

    const auto a1 = model.predictAccuracy(archs);
    const auto a2 = loaded->predictAccuracy(archs);
    for (std::size_t i = 0; i < a1.size(); ++i)
        EXPECT_NEAR(a1[i], a2[i], 1e-12);
}

TEST(Checkpoint, LoadRejectsMissingFile)
{
    EXPECT_EQ(HwPrNas::load("/tmp/does_not_exist_hwpr.bin"), nullptr);
}

TEST(Checkpoint, LoadRejectsGarbage)
{
    const std::string path = "/tmp/hwpr_garbage.bin";
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a checkpoint at all";
    }
    EXPECT_EQ(HwPrNas::load(path), nullptr);
}

TEST(Checkpoint, LoadRejectsTruncated)
{
    const auto &data = tinyData();
    HwPrNasConfig mc;
    mc.encoder = tinyEncoder();
    HwPrNas model(mc, nasbench::DatasetId::Cifar10, 22);
    TrainConfig tc;
    tc.epochs = 2;
    tc.combinerEpochs = 0;
    model.train(data.select(data.trainIdx), data.select(data.valIdx),
                hw::PlatformId::Pixel3, tc);
    const std::string path = "/tmp/hwpr_trunc.bin";
    ASSERT_TRUE(model.save(path));
    // Truncate to half.
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              std::streamsize(contents.size() / 2));
    out.close();
    EXPECT_EQ(HwPrNas::load(path), nullptr);
}

TEST(MultiPlatform, JointTrainingServesSeveralHeads)
{
    const auto &data = tinyData();
    HwPrNasConfig mc;
    mc.encoder = tinyEncoder();
    HwPrNas model(mc, nasbench::DatasetId::Cifar10, 31);
    TrainConfig tc;
    tc.epochs = 18;
    tc.learningRate = 2e-3;
    const std::vector<hw::PlatformId> platforms = {
        hw::PlatformId::EdgeGpu, hw::PlatformId::Pixel3};
    model.trainMultiPlatform(data.select(data.trainIdx),
                             data.select(data.valIdx), platforms, tc);
    ASSERT_TRUE(model.trained());

    const auto test = data.select(data.testIdx);
    const auto archs = archsOf(test);
    for (hw::PlatformId p : platforms) {
        std::vector<double> true_lat;
        for (const auto *r : test)
            true_lat.push_back(r->latencyMs[hw::platformIndex(p)]);
        const double tau =
            kendallTau(model.predictLatencyFor(archs, p), true_lat);
        EXPECT_GT(tau, 0.3) << hw::platformName(p);
    }
    // The two heads disagree where the platforms disagree: scores
    // against different heads must not be identical.
    model.setActivePlatform(hw::PlatformId::EdgeGpu);
    const auto s_gpu = model.predict(archs).raw();
    model.setActivePlatform(hw::PlatformId::Pixel3);
    const auto s_pixel = model.predict(archs).raw();
    double diff = 0.0;
    for (std::size_t i = 0; i < s_gpu.size(); ++i)
        diff += std::abs(s_gpu[i] - s_pixel[i]);
    EXPECT_GT(diff, 1e-9);
}

TEST(MultiPlatform, ActivePlatformRetargetsScores)
{
    const auto &data = tinyData();
    HwPrNasConfig mc;
    mc.encoder = tinyEncoder();
    HwPrNas model(mc, nasbench::DatasetId::Cifar10, 32);
    TrainConfig tc;
    tc.epochs = 4;
    model.trainMultiPlatform(
        data.select(data.trainIdx), data.select(data.valIdx),
        {hw::PlatformId::EdgeTpu, hw::PlatformId::Eyeriss}, tc);
    const auto archs = archsOf(data.select(data.testIdx));
    model.setActivePlatform(hw::PlatformId::Eyeriss);
    const auto via_active = model.predict(archs).raw();
    EXPECT_EQ(model.predictLatency(archs),
              model.predictLatencyFor(archs, hw::PlatformId::Eyeriss));
    model.setActivePlatform(hw::PlatformId::EdgeTpu);
    EXPECT_NE(model.predict(archs).raw(), via_active);
    model.setActivePlatform(hw::PlatformId::Eyeriss);
    EXPECT_EQ(model.predict(archs).raw(), via_active);
}

TEST(MultiPlatformDeathTest, RejectsARepeatedPlatform)
{
    // A repeated platform would put one head's tensors in the
    // optimizer twice (two Adam updates per step) and count its loss
    // terms twice.
    const auto &data = tinyData();
    HwPrNasConfig mc;
    mc.encoder = tinyEncoder();
    HwPrNas model(mc, nasbench::DatasetId::Cifar10, 33);
    TrainConfig tc;
    tc.epochs = 1;
    EXPECT_DEATH(model.trainMultiPlatform(
                     data.select(data.trainIdx), data.select(data.valIdx),
                     {hw::PlatformId::EdgeGpu, hw::PlatformId::Pixel3,
                      hw::PlatformId::EdgeGpu},
                     tc),
                 "platform EdgeGPU is listed twice");
}

TEST(Checkpoint, ScalableSaveLoadRoundTrips)
{
    const auto &data = tinyData();
    ScalableConfig sc;
    sc.encoder = tinyEncoder();
    ScalableHwPrNas model(sc, nasbench::DatasetId::Cifar10, 41);
    TrainConfig tc;
    tc.epochs = 4;
    model.train(data.select(data.trainIdx), data.select(data.valIdx),
                hw::PlatformId::EdgeGpu, tc);
    model.addEnergyObjective(data.select(data.trainIdx), 2);

    const std::string path = "/tmp/hwpr_scalable_ckpt.bin";
    ASSERT_TRUE(model.save(path));
    const auto loaded = ScalableHwPrNas::load(path);
    ASSERT_NE(loaded, nullptr);
    EXPECT_TRUE(loaded->energyAware());
    EXPECT_EQ(loaded->platform(), hw::PlatformId::EdgeGpu);

    const auto archs = archsOf(data.select(data.testIdx));
    const auto s1 = model.predict(archs).raw();
    const auto s2 = loaded->predict(archs).raw();
    for (std::size_t i = 0; i < s1.size(); ++i)
        EXPECT_NEAR(s1[i], s2[i], 1e-12);
}

TEST(Checkpoint, ScalableRejectsWrongKind)
{
    // A HwPrNas checkpoint must not load as a scalable model.
    const auto &data = tinyData();
    HwPrNasConfig mc;
    mc.encoder = tinyEncoder();
    HwPrNas model(mc, nasbench::DatasetId::Cifar10, 42);
    TrainConfig tc;
    tc.epochs = 2;
    tc.combinerEpochs = 0;
    model.train(data.select(data.trainIdx), data.select(data.valIdx),
                hw::PlatformId::EdgeGpu, tc);
    const std::string path = "/tmp/hwpr_kind_test.bin";
    ASSERT_TRUE(model.save(path));
    EXPECT_EQ(ScalableHwPrNas::load(path), nullptr);
}
