#include "core/scalable.h"

#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/obs.h"
#include "common/serialize.h"
#include "nasbench/dataset_id.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "pareto/pareto.h"
#include "search/evaluator.h"

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
    const std::vector<nasbench::Architecture> &scaler_fit,
    double dropout)
{
    encoder_ = std::make_unique<ArchEncoder>(
        EncodingKind::ALL, cfg_.encoder, dataset_, scaler_fit, rng_);
    nn::MlpConfig mlp_cfg;
    mlp_cfg.inDim = encoder_->dim();
    mlp_cfg.hidden = cfg_.mlpHidden;
    mlp_cfg.outDim = 1;
    mlp_cfg.dropout = dropout;
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
    model->buildModel({nasbench::nasBench201().sample(dummy_rng)},
                      0.0);
    std::vector<nn::Tensor> params = model->encoder_->params();
    for (const auto &p : model->mlp_->params())
        params.push_back(p);
    if (!model->encoder_->setScaler(std::move(scaler)) ||
        !readParams(r, params))
        return nullptr;
    model->trained_ = true;
    return model;
}

std::vector<int>
ScalableHwPrNas::ranksOf(
    const std::vector<const nasbench::ArchRecord *> &recs,
    const std::vector<std::size_t> &batch, bool with_energy) const
{
    std::vector<pareto::Point> pts;
    pts.reserve(batch.size());
    for (std::size_t idx : batch)
        pts.push_back(search::trueObjectives(*recs[idx], platform_,
                                             with_energy));
    return pareto::paretoRanks(pts);
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

    buildModel(train_archs, cfg.dropout);

    std::vector<nn::Tensor> params = encoder_->params();
    for (const auto &p : mlp_->params())
        params.push_back(p);
    nn::AdamW opt(params, cfg.learningRate, cfg.weightDecay);
    const std::size_t steps_per_epoch = std::max<std::size_t>(
        1, (train_archs.size() + cfg.batchSize - 1) / cfg.batchSize);
    nn::CosineAnnealing schedule(cfg.learningRate,
                                 cfg.epochs * steps_per_epoch);

    std::vector<std::size_t> val_all(val_archs.size());
    for (std::size_t i = 0; i < val_all.size(); ++i)
        val_all[i] = i;
    const std::vector<int> val_ranks = ranksOf(val, val_all, false);

    // True objective points once per fit; per-batch ranks gather from
    // these instead of re-deriving every point every step.
    std::vector<pareto::Point> train_pts;
    train_pts.reserve(train.size());
    for (const auto *rec : train)
        train_pts.push_back(
            search::trueObjectives(*rec, platform_, false));

    const EncoderCache cache = encoder_->buildCache(train_archs);
    const EncoderCache val_cache = encoder_->buildCache(val_archs);

    double best_val = 1e300;
    std::size_t since_best = 0;
    std::vector<Matrix> best_params = snapshotParams(params);
    std::size_t step = 0;

    static obs::Histogram &epoch_hist =
        obs::Registry::global().histogram("scalable.fit.epoch_us");
    static obs::Counter &early_stops =
        obs::Registry::global().counter("scalable.fit.early_stop");
    for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
        HWPR_SPAN("scalable.fit.epoch", {{"epoch", double(epoch)}});
        obs::ScopedTimer epoch_timer(epoch_hist);
        for (const auto &batch :
             makeBatches(train_archs.size(), cfg.batchSize, rng_)) {
            std::vector<pareto::Point> sub;
            sub.reserve(batch.size());
            for (std::size_t idx : batch)
                sub.push_back(train_pts[idx]);
            const std::vector<int> ranks = pareto::paretoRanks(sub);
            if (cfg.cosineAnnealing)
                opt.setLearningRate(schedule.at(step));
            ++step;
            opt.zeroGrad();
            nn::Tensor loss = nn::listMleParetoLoss(
                mlp_->forward(encoder_->encodeCached(cache, batch), true,
                              rng_),
                ranks);
            nn::backward(loss);
            opt.step();
        }
        const nn::Tensor vp = mlp_->forward(
            encoder_->encodeCached(val_cache, val_all), false, rng_);
        const double vloss =
            nn::listMleParetoLoss(vp, val_ranks).value()(0, 0);
        if (obs::metricsEnabled())
            obs::Registry::global()
                .gauge("scalable.fit.val_loss")
                .set(vloss);
        if (vloss < best_val - 1e-9) {
            best_val = vloss;
            since_best = 0;
            best_params = snapshotParams(params);
        } else if (++since_best >= cfg.patience) {
            if (obs::metricsEnabled())
                early_stops.add();
            break;
        }
    }
    restoreParams(params, best_params);
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

    // Fine-tune only the MLP; the encoding component stays frozen
    // (paper Sec. III-F).
    std::vector<pareto::Point> train_pts;
    train_pts.reserve(train.size());
    for (const auto *rec : train)
        train_pts.push_back(
            search::trueObjectives(*rec, platform_, true));

    const EncoderCache cache = encoder_->buildCache(train_archs);

    nn::AdamW opt(mlp_->params(), lr, 0.0);
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
        for (const auto &batch :
             makeBatches(train_archs.size(), batch_size, rng_)) {
            std::vector<pareto::Point> sub;
            sub.reserve(batch.size());
            for (std::size_t idx : batch)
                sub.push_back(train_pts[idx]);
            const std::vector<int> ranks = pareto::paretoRanks(sub);
            opt.zeroGrad();
            const nn::Tensor enc = encoder_->encodeCached(cache, batch);
            // The frozen encoding enters the MLP as a constant, so
            // backward stops at the MLP.
            const nn::Tensor pred = mlp_->forward(
                nn::Tensor::constant(enc.value(), "frozen_enc"), false,
                rng_);
            nn::Tensor loss = nn::listMleParetoLoss(pred, ranks);
            nn::backward(loss);
            opt.step();
        }
    }
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
