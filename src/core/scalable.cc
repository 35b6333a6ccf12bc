#include "core/scalable.h"

#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/obs.h"
#include "common/serialize.h"
#include "core/rank_cache.h"
#include "nasbench/dataset_id.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "nn/quant.h"
#include "pareto/pareto.h"
#include "search/evaluator.h"

namespace hwpr::core
{

/** Frozen rank-path state; see HwPrNas::RankState. */
struct ScalableHwPrNas::RankState
{
    nn::QuantizedMlp mlp;
    EncodingCache cache;
};

ScalableHwPrNas::ScalableHwPrNas(const ScalableConfig &cfg,
                                 nasbench::DatasetId dataset,
                                 std::uint64_t seed)
    : cfg_(cfg), dataset_(dataset), rng_(seed)
{
}

ScalableHwPrNas::~ScalableHwPrNas() = default;

void
ScalableHwPrNas::invalidateRankState()
{
    rankFrozen_.store(false);
    rank_.reset();
}

void
ScalableHwPrNas::ensureRankState() const
{
    if (rankFrozen_.load(std::memory_order_acquire))
        return;
    std::lock_guard<std::mutex> lock(rankMu_);
    if (rankFrozen_.load(std::memory_order_relaxed))
        return;
    auto state = std::make_unique<RankState>();
    state->mlp = nn::QuantizedMlp(*mlp_);
    state->cache.init(encoder_->dim());
    rank_ = std::move(state);
    rankFrozen_.store(true, std::memory_order_release);
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
}

nn::Tensor
ScalableHwPrNas::forward(
    const std::vector<nasbench::Architecture> &archs, bool training,
    Rng &rng) const
{
    return mlp_->forward(encoder_->encode(archs), training, rng);
}

bool
ScalableHwPrNas::save(const std::string &path) const
{
    HWPR_CHECK(trained_, "save() before train()");
    return atomicSave(path, [this](BinaryWriter &w) {
        writeHeader(w, "hwpr-scalable", 1);

        w.writeU64(cfg_.encoder.gcnHidden);
        w.writeU64(cfg_.encoder.gcnLayers);
        w.writeU64(cfg_.encoder.lstmHidden);
        w.writeU64(cfg_.encoder.lstmLayers);
        w.writeU64(cfg_.encoder.embedDim);
        w.writeU64(cfg_.encoder.gcnGlobalNode ? 1 : 0);
        w.writeU64(cfg_.mlpHidden.size());
        for (std::size_t h : cfg_.mlpHidden)
            w.writeU64(h);
        w.writeU64(std::uint64_t(dataset_));
        w.writeU64(std::uint64_t(platform_));
        w.writeU64(energyAware_ ? 1 : 0);
        w.writeDoubles(encoder_->scaler().mean);
        w.writeDoubles(encoder_->scaler().std);

        std::vector<nn::Tensor> params = encoder_->params();
        for (const auto &p : mlp_->params())
            params.push_back(p);
        w.writeU64(params.size());
        for (const auto &p : params)
            w.writeMatrix(p.value());
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
    cfg.encoder.gcnHidden = std::size_t(r.readU64());
    cfg.encoder.gcnLayers = std::size_t(r.readU64());
    cfg.encoder.lstmHidden = std::size_t(r.readU64());
    cfg.encoder.lstmLayers = std::size_t(r.readU64());
    cfg.encoder.embedDim = std::size_t(r.readU64());
    cfg.encoder.gcnGlobalNode = r.readU64() != 0;
    const std::uint64_t num_hidden = r.readU64();
    if (!r.ok() || num_hidden > 64)
        return nullptr;
    cfg.mlpHidden.resize(num_hidden);
    for (auto &h : cfg.mlpHidden)
        h = std::size_t(r.readU64());
    const std::uint64_t dataset_raw = r.readU64();
    const std::uint64_t platform_raw = r.readU64();
    const bool energy_aware = r.readU64() != 0;
    if (!r.ok() || dataset_raw >= nasbench::allDatasets().size() ||
        platform_raw >= hw::kNumPlatforms)
        return nullptr;
    const auto dataset = nasbench::DatasetId(dataset_raw);
    const auto platform = hw::PlatformId(platform_raw);
    nasbench::FeatureScaler scaler;
    scaler.mean = r.readDoubles();
    scaler.std = r.readDoubles();
    if (!r.ok())
        return nullptr;

    auto model = std::make_unique<ScalableHwPrNas>(cfg, dataset, 0);
    model->platform_ = platform;
    model->energyAware_ = energy_aware;
    Rng dummy_rng(0);
    model->buildModel({nasbench::nasBench201().sample(dummy_rng)},
                      0.0);
    model->encoder_->setScaler(std::move(scaler));

    std::vector<nn::Tensor> params = model->encoder_->params();
    for (const auto &p : model->mlp_->params())
        params.push_back(p);
    if (r.readU64() != params.size())
        return nullptr;
    for (auto &p : params) {
        Matrix m = r.readMatrix();
        if (!r.ok() || m.rows() != p.value().rows() ||
            m.cols() != p.value().cols())
            return nullptr;
        p.valueMut() = std::move(m);
    }
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

    const bool fast = trainFastPath();
    EncoderCache cache, val_cache;
    if (fast) {
        cache = encoder_->buildCache(train_archs);
        val_cache = encoder_->buildCache(val_archs);
    }

    auto train_forward = [&](const std::vector<std::size_t> &batch,
                             bool training) {
        if (fast)
            return mlp_->forward(encoder_->encodeCached(cache, batch),
                                 training, rng_);
        std::vector<nasbench::Architecture> archs;
        archs.reserve(batch.size());
        for (std::size_t idx : batch)
            archs.push_back(train_archs[idx]);
        return forward(archs, training, rng_);
    };

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
                train_forward(batch, true), ranks);
            nn::backward(loss);
            opt.step();
        }
        const nn::Tensor vp =
            fast ? mlp_->forward(
                       encoder_->encodeCached(val_cache, val_all),
                       false, rng_)
                 : forward(val_archs, false, rng_);
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
    invalidateRankState();
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

    const bool fast = trainFastPath();
    EncoderCache cache;
    if (fast)
        cache = encoder_->buildCache(train_archs);

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
            const nn::Tensor enc =
                fast ? encoder_->encodeCached(cache, batch) : [&] {
                    std::vector<nasbench::Architecture> archs;
                    archs.reserve(batch.size());
                    for (std::size_t idx : batch)
                        archs.push_back(train_archs[idx]);
                    return encoder_->encode(archs);
                }();
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
    invalidateRankState();
    energyAware_ = true;
}

void
ScalableHwPrNas::fit(const SurrogateDataset &data, ExecContext &ctx)
{
    rng_ = Rng(ctx.seed);
    train(data.train, data.val, data.platform, fitConfig_);
}

const Matrix &
ScalableHwPrNas::predictBatch(
    std::span<const nasbench::Architecture> archs,
    BatchPlan &plan) const
{
    if (archs.empty()) // no-op contract: no weights touched
        return plan.prepare(0, 1);
    HWPR_CHECK(trained_, "predictBatch() before train()");
    HWPR_SPAN("surrogate.predict_batch",
              {{"rows", double(archs.size())}});
    static obs::Histogram &batch_hist = obs::Registry::global()
        .histogram("surrogate.predict_batch.us");
    obs::ScopedTimer batch_timer(batch_hist);
    if (obs::metricsEnabled()) {
        static obs::Counter &rows = obs::Registry::global().counter(
            "surrogate.predict_batch.rows");
        rows.add(archs.size());
    }
    Matrix &out = plan.prepare(archs.size(), 1);
    plan.forEachChunk(
        "scalable",
        [&](nn::PredictScratch &s, std::size_t i0, std::size_t i1) {
            const std::span<const nasbench::Architecture> sub =
                archs.subspan(i0, i1 - i0);
            const Matrix &enc = encoder_->encodeBatchInto(sub, s);
            Matrix &score = s.acquire(sub.size(), 1);
            mlp_->predictBatchInto(enc, s, score);
            for (std::size_t i = i0; i < i1; ++i)
                out(i, 0) = score(i - i0, 0);
        });
    return out;
}

const Matrix &
ScalableHwPrNas::rankBatch(
    std::span<const nasbench::Architecture> archs,
    BatchPlan &plan) const
{
    if (archs.empty())
        return plan.prepare(0, 1);
    HWPR_CHECK(trained_, "rankBatch() before train()");
    ensureRankState();
    RankState &rank = *rank_;
    Matrix &out = plan.prepare(archs.size(), 1);
    plan.forEachChunk(
        "scalable_rank",
        [&](nn::PredictScratch &s, std::size_t i0, std::size_t i1) {
            const std::span<const nasbench::Architecture> sub =
                archs.subspan(i0, i1 - i0);
            Matrix &enc = s.acquire(sub.size(), rank.cache.width());
            gatherEncodings(*encoder_, sub, rank.cache, s, enc);
            Matrix &score = s.acquire(sub.size(), 1);
            rank.mlp.predictBatchInto(enc, s, score);
            for (std::size_t i = i0; i < i1; ++i)
                out(i, 0) = score(i - i0, 0);
        });
    return out;
}

std::vector<double>
ScalableHwPrNas::scoreBatch(
    std::span<const nasbench::Architecture> archs) const
{
    if (archs.empty())
        return {};
    HWPR_CHECK(trained_, "scoreBatch() before train()");
    BatchPlan plan;
    const Matrix &s = predictBatch(archs, plan);
    std::vector<double> out(archs.size());
    for (std::size_t i = 0; i < archs.size(); ++i)
        out[i] = s(i, 0);
    return out;
}

std::vector<double>
ScalableHwPrNas::scores(
    const std::vector<nasbench::Architecture> &archs) const
{
    return scoreBatch(archs);
}

} // namespace hwpr::core
