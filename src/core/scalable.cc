#include "core/scalable.h"

#include <fstream>
#include <numeric>
#include <sstream>

#include "common/logging.h"
#include "common/obs.h"
#include "common/serialize.h"
#include "nasbench/dataset_id.h"
#include "nn/loss.h"

namespace hwpr::core
{

ScalableHwPrNas::ScalableHwPrNas(const ScalableConfig &cfg,
                                 nasbench::DatasetId dataset,
                                 std::uint64_t seed)
    : Surrogate("scalable"), cfg_(cfg), dataset_(dataset), rng_(seed)
{
}

void
ScalableHwPrNas::buildModel(
    const std::vector<nasbench::Architecture> &scaler_fit)
{
    encoder_ = std::make_unique<ArchEncoder>(
        EncodingKind::ALL, cfg_.encoder, dataset_, scaler_fit, rng_);
    nn::MlpConfig mlp_cfg;
    mlp_cfg.inDim = encoder_->dim();
    mlp_cfg.hidden = cfg_.mlpHidden;
    mlp_cfg.outDim = 1;
    mlp_cfg.dropout = kDropout;
    mlp_ = std::make_unique<nn::Mlp>(mlp_cfg, rng_, "scalable_mlp");
    declareModel({encoder_.get()}, {mlp_.get()});
}

bool
ScalableHwPrNas::save(const std::string &path) const
{
    HWPR_CHECK(trained_, "save() before train()");
    return atomicSave(path, [this](BinaryWriter &w) {
        writeHeader(w, "hwpr-scalable", 1);

        writeEncoderConfig(w, cfg_.encoder);
        writeWidths(w, cfg_.mlpHidden);
        w.writeU64(std::uint64_t(dataset_));
        w.writeU64(std::uint64_t(platform_));
        w.writeU64(energyAware_ ? 1 : 0);
        writeFeatureScaler(w, encoder_->scaler());

        std::vector<nn::Tensor> params = encoder_->params();
        for (const auto &p : mlp_->params())
            params.push_back(p);
        writeParams(w, params);
    });
}

std::unique_ptr<ScalableHwPrNas>
ScalableHwPrNas::load(const std::string &path)
{
    std::string body;
    if (!readVerified(path, body))
        return nullptr;
    std::istringstream in(body, std::ios::binary);
    BinaryReader r(in);
    if (readHeader(r, "hwpr-scalable") != 1)
        return nullptr;

    ScalableConfig cfg;
    if (!readEncoderConfig(r, cfg.encoder) ||
        !readWidths(r, cfg.mlpHidden))
        return nullptr;
    const std::uint64_t dataset_raw = r.readU64();
    const std::uint64_t platform_raw = r.readU64();
    const bool energy_aware = r.readU64() != 0;
    if (!r.ok() || dataset_raw >= nasbench::allDatasets().size() ||
        platform_raw >= hw::kNumPlatforms)
        return nullptr;
    const auto dataset = nasbench::DatasetId(dataset_raw);
    const auto platform = hw::PlatformId(platform_raw);
    nasbench::FeatureScaler scaler = readFeatureScaler(r);
    if (!r.ok())
        return nullptr;

    auto model = std::make_unique<ScalableHwPrNas>(cfg, dataset, 0);
    model->platform_ = platform;
    model->energyAware_ = energy_aware;
    Rng dummy_rng(0);
    model->buildModel({nasbench::nasBench201().sample(dummy_rng)});
    std::vector<nn::Tensor> params = model->encoder_->params();
    for (const auto &p : model->mlp_->params())
        params.push_back(p);
    if (!model->encoder_->setScaler(std::move(scaler)) ||
        !readParams(r, params))
        return nullptr;
    model->trained_ = true;
    return model;
}

void
ScalableHwPrNas::train(
    const std::vector<const nasbench::ArchRecord *> &train,
    const std::vector<const nasbench::ArchRecord *> &val,
    hw::PlatformId platform, const TrainConfig &cfg)
{
    HWPR_CHECK(!train.empty() && !val.empty(),
               "scalable model needs train and validation data");
    HWPR_SPAN("scalable.fit", {{"train_size", double(train.size())},
                               {"val_size", double(val.size())},
                               {"epochs", double(cfg.epochs)}});
    platform_ = platform;

    std::vector<nasbench::Architecture> train_archs, val_archs;
    for (const auto *rec : train)
        train_archs.push_back(rec->arch);
    for (const auto *rec : val)
        val_archs.push_back(rec->arch);

    buildModel(train_archs);

    std::vector<nn::Tensor> params = encoder_->params();
    for (const auto &p : mlp_->params())
        params.push_back(p);

    // True objective points once per fit; batch ranks gather from
    // these instead of re-deriving every point every step.
    const std::vector<pareto::Point> train_pts =
        objectivePoints(train, platform_);
    std::vector<std::size_t> val_all(val_archs.size());
    std::iota(val_all.begin(), val_all.end(), 0);
    const std::vector<int> val_ranks =
        batchRanks(objectivePoints(val, platform_), val_all);

    const EncoderCache cache = encoder_->buildCache(train_archs);
    const EncoderCache val_cache = encoder_->buildCache(val_archs);

    static const FitNames kNames = {
        "scalable.fit.epoch", "scalable.fit.epoch_us",
        "scalable.fit.val_loss", "scalable.fit.early_stop"};
    FitLoop(params, train_archs.size(), cfg.learningRate, cfg.batchSize,
            rng_)
        .fit(
            kNames, cfg.epochs, cfg.patience,
            [&](const std::vector<std::size_t> &batch) {
                return nn::listMleParetoLoss(
                    mlp_->forward(encoder_->encodeCached(cache, batch),
                                  true, rng_),
                    batchRanks(train_pts, batch));
            },
            [&] {
                return nn::listMleParetoLoss(
                           mlp_->forward(encoder_->encodeCached(
                                             val_cache, val_all),
                                         false, rng_),
                           val_ranks)
                    .value()(0, 0);
            });
    invalidateRank();
    trained_ = true;
    energyAware_ = false;
}

void
ScalableHwPrNas::addEnergyObjective(
    const std::vector<const nasbench::ArchRecord *> &train,
    std::size_t epochs, double lr, std::size_t batch_size)
{
    HWPR_CHECK(trained_, "addEnergyObjective() before train()");
    std::vector<nasbench::Architecture> train_archs;
    for (const auto *rec : train)
        train_archs.push_back(rec->arch);
    const std::vector<pareto::Point> train_pts =
        objectivePoints(train, platform_, true);
    const EncoderCache cache = encoder_->buildCache(train_archs);

    // Fine-tune only the MLP, without weight decay; the encoding
    // component stays frozen (paper Sec. III-F). The frozen encoding
    // enters the MLP as a constant, so backward stops at the MLP.
    FitLoop fine_tune(mlp_->params(), train_archs.size(), lr, batch_size,
                      rng_, 0.0);
    for (std::size_t e = 0; e < epochs; ++e)
        fine_tune.epoch([&](const std::vector<std::size_t> &batch) {
            const nn::Tensor enc = encoder_->encodeCached(cache, batch);
            return nn::listMleParetoLoss(
                mlp_->forward(
                    nn::Tensor::constant(enc.value(), "frozen_enc"),
                    false, rng_),
                batchRanks(train_pts, batch));
        });
    invalidateRank();
    energyAware_ = true;
}

void
ScalableHwPrNas::fit(const SurrogateDataset &data, ExecContext &ctx)
{
    rng_ = Rng(ctx.seed);
    train(data.train, data.val, data.platform, fitConfig_);
}

void
ScalableHwPrNas::chunk(const ChunkPass &pass, Matrix &out) const
{
    Matrix &score = pass.buffer(1);
    pass.head(0, pass.encode(0), score);
    for (std::size_t r = 0; r < pass.archs.size(); ++r)
        out(pass.row0 + r, 0) = score(r, 0);
}

} // namespace hwpr::core
