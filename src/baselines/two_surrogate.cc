#include "baselines/two_surrogate.h"

#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "common/serialize.h"
#include "nasbench/dataset_id.h"

namespace hwpr::baselines
{

const TwoSurrogateMethod kBrpNasMethod = {
    "BRP-NAS", "brpnas", core::LossKind::MseHinge, core::LossKind::Mse,
    0.0, true, 0xaccull, 0x1a7ull};
const TwoSurrogateMethod kGatesMethod = {
    "GATES", "gates", core::LossKind::Hinge, core::LossKind::Hinge,
    0.1, false, 0x6a7e5ull, 0x6a7e51ull};

TwoSurrogateBaseline::TwoSurrogateBaseline(
    const TwoSurrogateMethod &method, const core::EncoderConfig &enc_cfg,
    nasbench::DatasetId dataset, std::uint64_t seed)
    : core::Surrogate(method.kind), method_(method), encCfg_(enc_cfg),
      dataset_(dataset), seed_(seed)
{
}

void
TwoSurrogateBaseline::declarePredictors()
{
    declareModel({&accuracy_->encoder(), &latency_->encoder()},
                 {&accuracy_->head(), &latency_->head()});
}

void
TwoSurrogateBaseline::train(
    const std::vector<const nasbench::ArchRecord *> &train,
    const std::vector<const nasbench::ArchRecord *> &val,
    hw::PlatformId platform, const core::PredictorTrainConfig &base_cfg)
{
    platform_ = platform;
    const std::size_t pidx = hw::platformIndex(platform);
    auto fitOne = [&](std::uint64_t salt, core::LossKind loss,
                      const core::TargetFn &target) {
        auto pred = std::make_unique<core::MetricPredictor>(
            core::EncodingKind::GCN, encCfg_, core::RegressorKind::Mlp,
            dataset_, seed_ ^ salt);
        core::PredictorTrainConfig cfg = base_cfg;
        cfg.loss = loss;
        if (method_.pinnedMargin > 0.0)
            cfg.hingeMargin = method_.pinnedMargin;
        pred->train(train, val, target, cfg);
        return pred;
    };
    accuracy_ = fitOne(
        method_.accSalt, method_.accLoss,
        [](const nasbench::ArchRecord &rec) { return rec.accuracy; });
    // Latencies span orders of magnitude across the union space;
    // value regressors fit log-latency (monotone, so dominance
    // comparisons downstream are unaffected).
    const bool log_lat = method_.physicalUnits;
    latency_ = fitOne(method_.latSalt, method_.latLoss,
                      [pidx, log_lat](const nasbench::ArchRecord &rec) {
                          return log_lat ? std::log(rec.latencyMs[pidx])
                                         : rec.latencyMs[pidx];
                      });
    declarePredictors();
    invalidateRank();
}

void
TwoSurrogateBaseline::fit(const core::SurrogateDataset &data,
                          ExecContext &ctx)
{
    seed_ = ctx.seed;
    train(data.train, data.val, data.platform);
}

std::vector<double>
TwoSurrogateBaseline::predictAccuracy(
    std::span<const nasbench::Architecture> a) const
{
    HWPR_CHECK(trained(), "prediction before train()");
    return accuracy_->predict(a);
}

std::vector<double>
TwoSurrogateBaseline::predictLatency(
    std::span<const nasbench::Architecture> a) const
{
    HWPR_CHECK(trained(), "prediction before train()");
    std::vector<double> out = latency_->predict(a);
    if (method_.physicalUnits)
        for (double &v : out)
            v = std::exp(v); // back to milliseconds
    return out;
}

void
TwoSurrogateBaseline::chunk(const core::ChunkPass &pass, Matrix &out) const
{
    Matrix &acc = pass.buffer(1);
    pass.head(0, pass.encode(0), acc);
    Matrix &lat = pass.buffer(1);
    pass.head(1, pass.encode(1), lat);
    const core::TargetScaler &acc_scaler = accuracy_->targetScaler();
    const core::TargetScaler &lat_scaler = latency_->targetScaler();
    const bool units = method_.physicalUnits;
    for (std::size_t r = 0; r < pass.archs.size(); ++r) {
        const double a = acc_scaler.denorm(acc(r, 0));
        const double l = lat_scaler.denorm(lat(r, 0));
        out(pass.row0 + r, 0) = units ? 100.0 - a : -a;
        out(pass.row0 + r, 1) = units ? std::exp(l) : l;
    }
}

bool
TwoSurrogateBaseline::save(const std::string &path) const
{
    HWPR_CHECK(trained(), "save() before train()");
    return atomicSave(path, [this](BinaryWriter &w) {
        writeHeader(w, method_.kind, 1);
        core::writeEncoderConfig(w, encCfg_);
        w.writeU64(std::uint64_t(dataset_));
        w.writeU64(seed_);
        w.writeU64(std::uint64_t(platform_));
        accuracy_->saveTo(w);
        latency_->saveTo(w);
    });
}

std::unique_ptr<TwoSurrogateBaseline>
TwoSurrogateBaseline::load(const std::string &path,
                           const TwoSurrogateMethod &method)
{
    std::string body;
    if (!readVerified(path, body))
        return nullptr;
    std::istringstream in(body, std::ios::binary);
    BinaryReader r(in);
    if (readHeader(r, method.kind) != 1)
        return nullptr;

    core::EncoderConfig enc_cfg;
    if (!core::readEncoderConfig(r, enc_cfg))
        return nullptr;
    const std::uint64_t dataset_raw = r.readU64();
    const std::uint64_t seed = r.readU64();
    const std::uint64_t platform_raw = r.readU64();
    if (!r.ok() || dataset_raw >= nasbench::allDatasets().size() ||
        platform_raw >= hw::kNumPlatforms)
        return nullptr;

    auto model = std::make_unique<TwoSurrogateBaseline>(
        method, enc_cfg, nasbench::DatasetId(dataset_raw), seed);
    model->platform_ = hw::PlatformId(platform_raw);
    // train() only builds MLP predictors; a tree ensemble can only
    // come from a crafted file.
    auto loadMlp = [&r] {
        auto pred = core::MetricPredictor::loadFrom(r);
        if (pred && pred->regressor() != core::RegressorKind::Mlp)
            pred.reset();
        return pred;
    };
    model->accuracy_ = loadMlp();
    if (!model->accuracy_)
        return nullptr;
    model->latency_ = loadMlp();
    if (!model->latency_)
        return nullptr;
    model->declarePredictors();
    return model;
}

} // namespace hwpr::baselines
