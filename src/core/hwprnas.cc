#include "core/hwprnas.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

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

/**
 * Frozen rank-path state: int8 snapshots of the three MLP stages plus
 * encoding memo tables per branch. Built lazily on the first
 * rankBatch() after training, dropped by the next train.
 */
struct HwPrNas::RankState
{
    nn::QuantizedMlp accHead;
    std::vector<nn::QuantizedMlp> latHeads;
    nn::QuantizedMlp combiner;
    EncodingCache accCache;
    EncodingCache latCache;
};

HwPrNas::HwPrNas(const HwPrNasConfig &cfg, nasbench::DatasetId dataset,
                 std::uint64_t seed)
    : cfg_(cfg), dataset_(dataset), rng_(seed)
{
}

HwPrNas::~HwPrNas() = default;

std::size_t
HwPrNas::headIndex(hw::PlatformId platform) const
{
    return cfg_.sharedLatencyHead ? 0 : hw::platformIndex(platform);
}

void
HwPrNas::buildModel(
    const std::vector<nasbench::Architecture> &scaler_fit,
    double dropout)
{
    // Branch encodings follow the ablation winners: GCN(+AF) for
    // accuracy, LSTM(+AF) for latency.
    accEncoder_ = std::make_unique<ArchEncoder>(
        cfg_.useArchFeatures ? EncodingKind::GCN_AF : EncodingKind::GCN,
        cfg_.encoder, dataset_, scaler_fit, rng_);
    latEncoder_ = std::make_unique<ArchEncoder>(
        cfg_.useArchFeatures ? EncodingKind::LSTM_AF
                             : EncodingKind::LSTM,
        cfg_.encoder, dataset_, scaler_fit, rng_);

    nn::MlpConfig acc_mlp;
    acc_mlp.inDim = accEncoder_->dim();
    acc_mlp.hidden = cfg_.headHidden;
    acc_mlp.outDim = 1;
    acc_mlp.dropout = dropout;
    accHead_ = std::make_unique<nn::Mlp>(acc_mlp, rng_, "acc_head");

    nn::MlpConfig lat_mlp;
    lat_mlp.inDim = latEncoder_->dim();
    lat_mlp.hidden = cfg_.headHidden;
    lat_mlp.outDim = 1;
    lat_mlp.dropout = dropout;
    latHeads_.clear();
    const std::size_t num_heads =
        cfg_.sharedLatencyHead ? 1 : hw::kNumPlatforms;
    for (std::size_t h = 0; h < num_heads; ++h)
        latHeads_.push_back(std::make_unique<nn::Mlp>(
            lat_mlp, rng_, "lat_head" + std::to_string(h)));
    nn::MlpConfig comb_cfg;
    comb_cfg.inDim = 2;
    comb_cfg.hidden = cfg_.combinerHidden;
    comb_cfg.outDim = 1;
    comb_cfg.activation = nn::Activation::Tanh;
    combiner_ =
        std::make_unique<nn::Mlp>(comb_cfg, rng_, "combiner");
}

HwPrNas::Forward
HwPrNas::forward(const std::vector<nasbench::Architecture> &archs,
                 std::size_t head, bool training, Rng &rng) const
{
    Forward out;
    const nn::Tensor acc_enc = accEncoder_->encode(archs);
    out.accPred = accHead_->forward(acc_enc, training, rng);
    const nn::Tensor lat_enc = latEncoder_->encode(archs);
    out.latPred = latHeads_[head]->forward(lat_enc, training, rng);
    out.score = combiner_->forward(
        nn::concatCols(out.accPred, out.latPred), training, rng);
    return out;
}

HwPrNas::Forward
HwPrNas::forwardCached(const EncoderCache &acc_cache,
                       const EncoderCache &lat_cache,
                       const std::vector<std::size_t> &batch,
                       std::size_t head, bool training, Rng &rng) const
{
    Forward out;
    const nn::Tensor acc_enc =
        accEncoder_->encodeCached(acc_cache, batch);
    out.accPred = accHead_->forward(acc_enc, training, rng);
    const nn::Tensor lat_enc =
        latEncoder_->encodeCached(lat_cache, batch);
    out.latPred = latHeads_[head]->forward(lat_enc, training, rng);
    out.score = combiner_->forward(
        nn::concatCols(out.accPred, out.latPred), training, rng);
    return out;
}

void
HwPrNas::train(const std::vector<const nasbench::ArchRecord *> &train,
               const std::vector<const nasbench::ArchRecord *> &val,
               hw::PlatformId platform, const TrainConfig &cfg)
{
    HWPR_CHECK(!train.empty() && !val.empty(),
               "HW-PR-NAS training needs train and validation data");
    HWPR_SPAN("hwprnas.fit", {{"train_size", double(train.size())},
                              {"val_size", double(val.size())},
                              {"epochs", double(cfg.epochs)}});
    platform_ = platform;
    const std::size_t pidx = hw::platformIndex(platform);

    // Targets: accuracy (%) and log-latency, both standardized.
    std::vector<nasbench::Architecture> train_archs, val_archs;
    std::vector<double> train_acc, train_lat, val_acc, val_lat;
    for (const auto *rec : train) {
        train_archs.push_back(rec->arch);
        train_acc.push_back(rec->accuracy);
        train_lat.push_back(std::log(rec->latencyMs[pidx]));
    }
    for (const auto *rec : val) {
        val_archs.push_back(rec->arch);
        val_acc.push_back(rec->accuracy);
        val_lat.push_back(std::log(rec->latencyMs[pidx]));
    }
    accScaler_ = TargetScaler::fit(train_acc);
    TargetScaler &lat_scaler = latScalers_[headIndex(platform)];
    lat_scaler = TargetScaler::fit(train_lat);
    const auto train_accn = accScaler_.normAll(train_acc);
    const auto train_latn = lat_scaler.normAll(train_lat);
    const auto val_accn = accScaler_.normAll(val_acc);
    const auto val_latn = lat_scaler.normAll(val_lat);

    buildModel(train_archs, cfg.dropout);

    const std::size_t head = headIndex(platform);

    // Only the active latency head is optimized: AdamW's decoupled
    // decay would otherwise shrink untrained heads.
    std::vector<nn::Tensor> params = accEncoder_->params();
    for (const auto &p : latEncoder_->params())
        params.push_back(p);
    for (const auto &p : accHead_->params())
        params.push_back(p);
    for (const auto &p : latHeads_[head]->params())
        params.push_back(p);
    for (const auto &p : combiner_->params())
        params.push_back(p);
    nn::AdamW opt(params, cfg.learningRate, cfg.weightDecay);

    const std::size_t steps_per_epoch = std::max<std::size_t>(
        1, (train_archs.size() + cfg.batchSize - 1) / cfg.batchSize);
    nn::CosineAnnealing schedule(cfg.learningRate,
                                 cfg.epochs * steps_per_epoch);

    // Pareto-rank labelling: the true objective points are a pure
    // function of the records, so compute them once per fit instead
    // of re-deriving them for every batch of every epoch.
    auto points_of =
        [&](const std::vector<const nasbench::ArchRecord *> &recs) {
            std::vector<pareto::Point> pts;
            pts.reserve(recs.size());
            for (const auto *rec : recs)
                pts.push_back(
                    search::trueObjectives(*rec, platform_));
            return pts;
        };
    const std::vector<pareto::Point> train_pts = points_of(train);
    const std::vector<pareto::Point> val_pts = points_of(val);

    auto batch_ranks = [](const std::vector<std::size_t> &batch,
                          const std::vector<pareto::Point> &pts) {
        std::vector<pareto::Point> sub;
        sub.reserve(batch.size());
        for (std::size_t idx : batch)
            sub.push_back(pts[idx]);
        return pareto::paretoRanks(sub);
    };

    auto joint_loss = [&](const Forward &f,
                          const std::vector<int> &ranks,
                          const std::vector<double> &acc_t,
                          const std::vector<double> &lat_t) {
        nn::Tensor aux = nn::add(nn::mseLoss(f.accPred, acc_t),
                                 nn::mseLoss(f.latPred, lat_t));
        if (!cfg.listwiseLoss)
            return aux;
        nn::Tensor listwise =
            nn::listMleParetoLoss(f.score, ranks);
        return nn::add(listwise, nn::scale(aux, cfg_.rmseWeight));
    };

    // Validation list: global Pareto ranks over the whole val set.
    std::vector<std::size_t> val_all(val_archs.size());
    for (std::size_t i = 0; i < val_all.size(); ++i)
        val_all[i] = i;
    const std::vector<int> val_ranks = batch_ranks(val_all, val_pts);

    // Fit-time fast path: deterministic encoder inputs are computed
    // once (encoding cache), bit-identical to the plain path;
    // setTrainFastPath(false) switches the plain path back on for
    // tests.
    const bool fast = trainFastPath();
    EncoderCache acc_train_cache, lat_train_cache;
    EncoderCache acc_val_cache, lat_val_cache;
    static obs::Histogram &prep_hist =
        obs::Registry::global().histogram("hwprnas.fit.prep_us");
    if (fast) {
        HWPR_SPAN("hwprnas.fit.prep",
                  {{"train_size", double(train_archs.size())},
                   {"val_size", double(val_archs.size())}});
        obs::ScopedTimer prep_timer(prep_hist);
        acc_train_cache = accEncoder_->buildCache(train_archs);
        lat_train_cache = latEncoder_->buildCache(train_archs);
        acc_val_cache = accEncoder_->buildCache(val_archs);
        lat_val_cache = latEncoder_->buildCache(val_archs);
    }

    auto train_forward = [&](const std::vector<std::size_t> &batch,
                             bool training) {
        if (fast)
            return forwardCached(acc_train_cache, lat_train_cache,
                                 batch, head, training, rng_);
        std::vector<nasbench::Architecture> archs;
        archs.reserve(batch.size());
        for (std::size_t idx : batch)
            archs.push_back(train_archs[idx]);
        return forward(archs, head, training, rng_);
    };

    double best_val = 1e300;
    std::size_t since_best = 0;
    std::vector<Matrix> best_params = snapshotParams(params);
    std::size_t step = 0;
    valLossHistory_.clear();

    // Observability: per-epoch spans/timers and loss gauges only read
    // the clock and already-computed values — nothing here touches
    // rng_ or alters iteration order.
    static obs::Histogram &epoch_hist =
        obs::Registry::global().histogram("hwprnas.fit.epoch_us");
    static obs::Counter &early_stops =
        obs::Registry::global().counter("hwprnas.fit.early_stop");

    for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
        HWPR_SPAN("hwprnas.fit.epoch", {{"epoch", double(epoch)}});
        obs::ScopedTimer epoch_timer(epoch_hist);
        double last_batch_loss = 0.0;
        for (const auto &batch :
             makeBatches(train_archs.size(), cfg.batchSize, rng_)) {
            std::vector<double> acc_t, lat_t;
            acc_t.reserve(batch.size());
            lat_t.reserve(batch.size());
            for (std::size_t idx : batch) {
                acc_t.push_back(train_accn[idx]);
                lat_t.push_back(train_latn[idx]);
            }
            const std::vector<int> ranks =
                batch_ranks(batch, train_pts);
            if (cfg.cosineAnnealing)
                opt.setLearningRate(schedule.at(step));
            ++step;
            opt.zeroGrad();
            const Forward f = train_forward(batch, true);
            nn::Tensor loss = joint_loss(f, ranks, acc_t, lat_t);
            nn::backward(loss);
            opt.step();
            if (obs::metricsEnabled())
                last_batch_loss = loss.value()(0, 0);
        }

        const Forward vf =
            fast ? forwardCached(acc_val_cache, lat_val_cache,
                                 val_all, head, false, rng_)
                 : forward(val_archs, head, false, rng_);
        const double vloss =
            joint_loss(vf, val_ranks, val_accn, val_latn)
                .value()(0, 0);
        valLossHistory_.push_back(vloss);
        if (obs::metricsEnabled()) {
            obs::Registry::global()
                .gauge("hwprnas.fit.train_loss")
                .set(last_batch_loss);
            obs::Registry::global()
                .gauge("hwprnas.fit.val_loss")
                .set(vloss);
        }
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

    // Final combiner-only fine-tuning on the listwise loss.
    if (cfg.listwiseLoss && cfg.combinerEpochs > 0) {
        HWPR_SPAN("hwprnas.fit.combiner",
                  {{"epochs", double(cfg.combinerEpochs)}});
        nn::AdamW comb_opt(combiner_->params(), cfg.learningRate,
                           cfg.weightDecay);
        for (std::size_t epoch = 0; epoch < cfg.combinerEpochs;
             ++epoch) {
            for (const auto &batch : makeBatches(
                     train_archs.size(), cfg.batchSize, rng_)) {
                const std::vector<int> ranks =
                    batch_ranks(batch, train_pts);
                comb_opt.zeroGrad();
                // The frozen branch outputs enter the combiner as a
                // constant, so backward stops at the combiner.
                const Forward f = train_forward(batch, false);
                const nn::Tensor score = combiner_->forward(
                    nn::Tensor::constant(
                        Matrix::hconcat(f.accPred.value(),
                                        f.latPred.value()),
                        "frozen_branches"),
                    false, rng_);
                nn::Tensor loss = nn::listMleParetoLoss(score, ranks);
                nn::backward(loss);
                comb_opt.step();
            }
        }
    }
    invalidateRankState();
    trained_ = true;
}

void
HwPrNas::trainMultiPlatform(
    const std::vector<const nasbench::ArchRecord *> &train,
    const std::vector<const nasbench::ArchRecord *> &val,
    const std::vector<hw::PlatformId> &platforms,
    const TrainConfig &cfg)
{
    HWPR_CHECK(!train.empty() && !val.empty(),
               "multi-platform training needs train and val data");
    HWPR_SPAN("hwprnas.fit",
              {{"train_size", double(train.size())},
               {"val_size", double(val.size())},
               {"epochs", double(cfg.epochs)},
               {"platforms", double(platforms.size())}});
    HWPR_CHECK(!platforms.empty(), "no platforms given");
    HWPR_CHECK(!cfg_.sharedLatencyHead,
               "multi-platform training requires per-platform heads");
    platform_ = platforms.front();

    std::vector<nasbench::Architecture> train_archs, val_archs;
    std::vector<double> train_acc, val_acc;
    for (const auto *rec : train) {
        train_archs.push_back(rec->arch);
        train_acc.push_back(rec->accuracy);
    }
    for (const auto *rec : val) {
        val_archs.push_back(rec->arch);
        val_acc.push_back(rec->accuracy);
    }
    accScaler_ = TargetScaler::fit(train_acc);
    const auto train_accn = accScaler_.normAll(train_acc);
    const auto val_accn = accScaler_.normAll(val_acc);

    // Per-platform standardized log-latency targets.
    std::vector<std::vector<double>> train_latn(platforms.size());
    std::vector<std::vector<double>> val_latn(platforms.size());
    for (std::size_t pi = 0; pi < platforms.size(); ++pi) {
        const std::size_t pidx = hw::platformIndex(platforms[pi]);
        std::vector<double> t, v;
        for (const auto *rec : train)
            t.push_back(std::log(rec->latencyMs[pidx]));
        for (const auto *rec : val)
            v.push_back(std::log(rec->latencyMs[pidx]));
        TargetScaler &scaler = latScalers_[pidx];
        scaler = TargetScaler::fit(t);
        train_latn[pi] = scaler.normAll(t);
        val_latn[pi] = scaler.normAll(v);
    }

    buildModel(train_archs, cfg.dropout);

    std::vector<nn::Tensor> params = accEncoder_->params();
    for (const auto &p : latEncoder_->params())
        params.push_back(p);
    for (const auto &p : accHead_->params())
        params.push_back(p);
    for (hw::PlatformId platform : platforms)
        for (const auto &p :
             latHeads_[hw::platformIndex(platform)]->params())
            params.push_back(p);
    for (const auto &p : combiner_->params())
        params.push_back(p);
    nn::AdamW opt(params, cfg.learningRate, cfg.weightDecay);

    const std::size_t steps_per_epoch = std::max<std::size_t>(
        1, (train_archs.size() + cfg.batchSize - 1) / cfg.batchSize);
    nn::CosineAnnealing schedule(cfg.learningRate,
                                 cfg.epochs * steps_per_epoch);

    // Per-platform true objective points, once per fit (the points
    // are a pure function of the records).
    auto points_for =
        [&](const std::vector<const nasbench::ArchRecord *> &recs) {
            std::vector<std::vector<pareto::Point>> pts(
                platforms.size());
            for (std::size_t pi = 0; pi < platforms.size(); ++pi) {
                pts[pi].reserve(recs.size());
                for (const auto *rec : recs)
                    pts[pi].push_back(search::trueObjectives(
                        *rec, platforms[pi]));
            }
            return pts;
        };
    const auto train_pts = points_for(train);
    const auto val_pts = points_for(val);

    auto ranks_for = [](const std::vector<std::size_t> &batch,
                        const std::vector<pareto::Point> &pts) {
        std::vector<pareto::Point> sub;
        sub.reserve(batch.size());
        for (std::size_t idx : batch)
            sub.push_back(pts[idx]);
        return pareto::paretoRanks(sub);
    };

    // Joint loss over all platforms: the shared encoders/acc branch
    // see the sum of every platform's listwise + RMSE terms. Encoding
    // happens in the caller (cached or plain); the encoders consume no
    // RNG, so the dropout draw order is unchanged.
    auto joint_loss =
        [&](const nn::Tensor &acc_enc, const nn::Tensor &lat_enc,
            const std::vector<std::size_t> &batch,
            const std::vector<std::vector<pareto::Point>> &pts,
            const std::vector<double> &acc_t,
            const std::vector<std::vector<double>> &lat_t,
            bool training) {
            const nn::Tensor acc_pred =
                accHead_->forward(acc_enc, training, rng_);

            nn::Tensor total = nn::scale(
                nn::mseLoss(acc_pred, acc_t), cfg_.rmseWeight);
            const double inv_p = 1.0 / double(platforms.size());
            for (std::size_t pi = 0; pi < platforms.size(); ++pi) {
                const std::size_t pidx =
                    hw::platformIndex(platforms[pi]);
                const nn::Tensor lat_pred =
                    latHeads_[pidx]->forward(lat_enc, training,
                                             rng_);
                total = nn::add(
                    total, nn::scale(nn::mseLoss(lat_pred, lat_t[pi]),
                                     cfg_.rmseWeight * inv_p));
                if (cfg.listwiseLoss) {
                    const nn::Tensor score = combiner_->forward(
                        nn::concatCols(acc_pred, lat_pred), training,
                        rng_);
                    total = nn::add(
                        total,
                        nn::scale(nn::listMleParetoLoss(
                                      score,
                                      ranks_for(batch, pts[pi])),
                                  inv_p));
                }
            }
            return total;
        };

    std::vector<std::size_t> val_all(val_archs.size());
    for (std::size_t i = 0; i < val_all.size(); ++i)
        val_all[i] = i;

    const bool fast = trainFastPath();
    EncoderCache acc_train_cache, lat_train_cache;
    EncoderCache acc_val_cache, lat_val_cache;
    static obs::Histogram &prep_hist =
        obs::Registry::global().histogram("hwprnas.fit.prep_us");
    if (fast) {
        HWPR_SPAN("hwprnas.fit.prep",
                  {{"train_size", double(train_archs.size())},
                   {"val_size", double(val_archs.size())}});
        obs::ScopedTimer prep_timer(prep_hist);
        acc_train_cache = accEncoder_->buildCache(train_archs);
        lat_train_cache = latEncoder_->buildCache(train_archs);
        acc_val_cache = accEncoder_->buildCache(val_archs);
        lat_val_cache = latEncoder_->buildCache(val_archs);
    }

    auto encode_train = [&](const std::vector<std::size_t> &batch) {
        if (fast)
            return std::make_pair(
                accEncoder_->encodeCached(acc_train_cache, batch),
                latEncoder_->encodeCached(lat_train_cache, batch));
        std::vector<nasbench::Architecture> archs;
        archs.reserve(batch.size());
        for (std::size_t idx : batch)
            archs.push_back(train_archs[idx]);
        return std::make_pair(accEncoder_->encode(archs),
                              latEncoder_->encode(archs));
    };

    double best_val = 1e300;
    std::size_t since_best = 0;
    std::vector<Matrix> best_params = snapshotParams(params);
    std::size_t step = 0;
    valLossHistory_.clear();
    static obs::Histogram &epoch_hist =
        obs::Registry::global().histogram("hwprnas.fit.epoch_us");
    static obs::Counter &early_stops =
        obs::Registry::global().counter("hwprnas.fit.early_stop");
    for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
        HWPR_SPAN("hwprnas.fit.epoch", {{"epoch", double(epoch)}});
        obs::ScopedTimer epoch_timer(epoch_hist);
        double last_batch_loss = 0.0;
        for (const auto &batch :
             makeBatches(train_archs.size(), cfg.batchSize, rng_)) {
            std::vector<double> acc_t;
            std::vector<std::vector<double>> lat_t(platforms.size());
            for (std::size_t idx : batch) {
                acc_t.push_back(train_accn[idx]);
                for (std::size_t pi = 0; pi < platforms.size(); ++pi)
                    lat_t[pi].push_back(train_latn[pi][idx]);
            }
            if (cfg.cosineAnnealing)
                opt.setLearningRate(schedule.at(step));
            ++step;
            opt.zeroGrad();
            const auto [acc_enc, lat_enc] = encode_train(batch);
            nn::Tensor loss = joint_loss(acc_enc, lat_enc, batch,
                                         train_pts, acc_t, lat_t,
                                         true);
            nn::backward(loss);
            opt.step();
            if (obs::metricsEnabled())
                last_batch_loss = loss.value()(0, 0);
        }
        const auto [vacc_enc, vlat_enc] =
            fast ? std::make_pair(
                       accEncoder_->encodeCached(acc_val_cache,
                                                 val_all),
                       latEncoder_->encodeCached(lat_val_cache,
                                                 val_all))
                 : std::make_pair(accEncoder_->encode(val_archs),
                                  latEncoder_->encode(val_archs));
        const double vloss =
            joint_loss(vacc_enc, vlat_enc, val_all, val_pts,
                       val_accn, val_latn, false)
                .value()(0, 0);
        valLossHistory_.push_back(vloss);
        if (obs::metricsEnabled()) {
            obs::Registry::global()
                .gauge("hwprnas.fit.train_loss")
                .set(last_batch_loss);
            obs::Registry::global()
                .gauge("hwprnas.fit.val_loss")
                .set(vloss);
        }
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
}

void
HwPrNas::fusedForward(std::span<const nasbench::Architecture> archs,
                      std::size_t head, BatchPlan &plan,
                      RawForward *aux) const
{
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
    if (aux) {
        aux->score.resize(archs.size());
        aux->accNorm.resize(archs.size());
        aux->latNorm.resize(archs.size());
    }
    plan.forEachChunk(
        "hwprnas",
        [&](nn::PredictScratch &s, std::size_t i0, std::size_t i1) {
            const std::span<const nasbench::Architecture> sub =
                archs.subspan(i0, i1 - i0);
            const std::size_t len = sub.size();
            const Matrix &acc_enc =
                accEncoder_->encodeBatchInto(sub, s);
            Matrix &acc = s.acquire(len, 1);
            accHead_->predictBatchInto(acc_enc, s, acc);
            const Matrix &lat_enc =
                latEncoder_->encodeBatchInto(sub, s);
            Matrix &lat = s.acquire(len, 1);
            latHeads_[head]->predictBatchInto(lat_enc, s, lat);
            // The combiner input is the same values hconcat(acc, lat)
            // copies, just gathered into recycled scratch.
            Matrix &comb = s.acquire(len, 2);
            for (std::size_t r = 0; r < len; ++r) {
                comb(r, 0) = acc(r, 0);
                comb(r, 1) = lat(r, 0);
            }
            Matrix &score = s.acquire(len, 1);
            combiner_->predictBatchInto(comb, s, score);
            for (std::size_t i = i0; i < i1; ++i) {
                out(i, 0) = score(i - i0, 0);
                if (aux) {
                    aux->score[i] = score(i - i0, 0);
                    aux->accNorm[i] = acc(i - i0, 0);
                    aux->latNorm[i] = lat(i - i0, 0);
                }
            }
        });
}

HwPrNas::RawForward
HwPrNas::rawForward(std::span<const nasbench::Architecture> archs,
                    std::size_t head) const
{
    RawForward out;
    BatchPlan plan;
    fusedForward(archs, head, plan, &out);
    return out;
}

const Matrix &
HwPrNas::predictBatch(std::span<const nasbench::Architecture> archs,
                      BatchPlan &plan) const
{
    if (archs.empty()) // no-op contract: no weights touched
        return plan.prepare(0, 1);
    HWPR_CHECK(trained_, "predictBatch() before train()");
    fusedForward(archs, headIndex(platform_), plan, nullptr);
    return plan.output();
}

void
HwPrNas::invalidateRankState()
{
    rankFrozen_.store(false);
    rank_.reset();
}

void
HwPrNas::ensureRankState() const
{
    if (rankFrozen_.load(std::memory_order_acquire))
        return;
    std::lock_guard<std::mutex> lock(rankMu_);
    if (rankFrozen_.load(std::memory_order_relaxed))
        return;
    auto state = std::make_unique<RankState>();
    state->accHead = nn::QuantizedMlp(*accHead_);
    state->latHeads.reserve(latHeads_.size());
    for (const auto &head : latHeads_)
        state->latHeads.emplace_back(*head);
    state->combiner = nn::QuantizedMlp(*combiner_);
    state->accCache.init(accEncoder_->dim());
    state->latCache.init(latEncoder_->dim());
    rank_ = std::move(state);
    rankFrozen_.store(true, std::memory_order_release);
}

const Matrix &
HwPrNas::rankBatch(std::span<const nasbench::Architecture> archs,
                   BatchPlan &plan) const
{
    if (archs.empty())
        return plan.prepare(0, 1);
    HWPR_CHECK(trained_, "rankBatch() before train()");
    ensureRankState();
    const std::size_t head = headIndex(platform_);
    RankState &rank = *rank_;
    Matrix &out = plan.prepare(archs.size(), 1);
    plan.forEachChunk(
        "hwprnas_rank",
        [&](nn::PredictScratch &s, std::size_t i0, std::size_t i1) {
            const std::span<const nasbench::Architecture> sub =
                archs.subspan(i0, i1 - i0);
            const std::size_t len = sub.size();
            Matrix &acc_enc = s.acquire(len, rank.accCache.width());
            gatherEncodings(*accEncoder_, sub, rank.accCache, s,
                            acc_enc);
            Matrix &acc = s.acquire(len, 1);
            rank.accHead.predictBatchInto(acc_enc, s, acc);
            Matrix &lat_enc = s.acquire(len, rank.latCache.width());
            gatherEncodings(*latEncoder_, sub, rank.latCache, s,
                            lat_enc);
            Matrix &lat = s.acquire(len, 1);
            rank.latHeads[head].predictBatchInto(lat_enc, s, lat);
            Matrix &comb = s.acquire(len, 2);
            for (std::size_t r = 0; r < len; ++r) {
                comb(r, 0) = acc(r, 0);
                comb(r, 1) = lat(r, 0);
            }
            Matrix &score = s.acquire(len, 1);
            rank.combiner.predictBatchInto(comb, s, score);
            for (std::size_t i = i0; i < i1; ++i)
                out(i, 0) = score(i - i0, 0);
        });
    return out;
}

void
HwPrNas::fit(const SurrogateDataset &data, ExecContext &ctx)
{
    rng_ = Rng(ctx.seed);
    train(data.train, data.val, data.platform, fitConfig_);
}

std::vector<double>
HwPrNas::scoreBatch(
    std::span<const nasbench::Architecture> archs) const
{
    if (archs.empty())
        return {};
    HWPR_CHECK(trained_, "scoreBatch() before train()");
    return rawForward(archs, headIndex(platform_)).score;
}

Matrix
HwPrNas::objectivesBatch(
    std::span<const nasbench::Architecture> archs) const
{
    if (archs.empty())
        return Matrix(0, 2);
    HWPR_CHECK(trained_, "objectivesBatch() before train()");
    const std::size_t head = headIndex(platform_);
    const RawForward f = rawForward(archs, head);
    Matrix out(archs.size(), 2);
    for (std::size_t i = 0; i < archs.size(); ++i) {
        out(i, 0) = 100.0 - accScaler_.denorm(f.accNorm[i]);
        out(i, 1) =
            std::exp(latScalers_[head].denorm(f.latNorm[i]));
    }
    return out;
}

std::vector<double>
HwPrNas::scores(const std::vector<nasbench::Architecture> &archs) const
{
    return scoreBatch(archs);
}

std::vector<double>
HwPrNas::scoresFor(const std::vector<nasbench::Architecture> &archs,
                   hw::PlatformId platform) const
{
    HWPR_CHECK(trained_, "scoresFor() before train()");
    return rawForward(archs, headIndex(platform)).score;
}

std::vector<double>
HwPrNas::predictLatencyFor(
    const std::vector<nasbench::Architecture> &archs,
    hw::PlatformId platform) const
{
    HWPR_CHECK(trained_, "predictLatencyFor() before train()");
    const std::size_t head = headIndex(platform);
    const RawForward f = rawForward(archs, head);
    std::vector<double> out(archs.size());
    for (std::size_t i = 0; i < archs.size(); ++i)
        out[i] = std::exp(latScalers_[head].denorm(f.latNorm[i]));
    return out;
}

std::vector<double>
HwPrNas::predictAccuracy(
    const std::vector<nasbench::Architecture> &archs) const
{
    HWPR_CHECK(trained_, "predictAccuracy() before train()");
    const RawForward f = rawForward(archs, headIndex(platform_));
    std::vector<double> out(archs.size());
    for (std::size_t i = 0; i < archs.size(); ++i)
        out[i] = accScaler_.denorm(f.accNorm[i]);
    return out;
}

std::vector<double>
HwPrNas::predictLatency(
    const std::vector<nasbench::Architecture> &archs) const
{
    return predictLatencyFor(archs, platform_);
}

namespace
{

void
writeFeatureScaler(BinaryWriter &w,
                   const nasbench::FeatureScaler &scaler)
{
    w.writeDoubles(scaler.mean);
    w.writeDoubles(scaler.std);
}

nasbench::FeatureScaler
readFeatureScaler(BinaryReader &r)
{
    nasbench::FeatureScaler s;
    s.mean = r.readDoubles();
    s.std = r.readDoubles();
    return s;
}

void
writeTargetScaler(BinaryWriter &w, const TargetScaler &scaler)
{
    w.writeDouble(scaler.mu);
    w.writeDouble(scaler.sigma);
}

TargetScaler
readTargetScaler(BinaryReader &r)
{
    TargetScaler s;
    s.mu = r.readDouble();
    s.sigma = r.readDouble();
    return s;
}

} // namespace

bool
HwPrNas::save(const std::string &path) const
{
    HWPR_CHECK(trained_, "save() before train()");
    return atomicSave(path, [this](BinaryWriter &w) {
        writeBody(w);
    });
}

void
HwPrNas::writeBody(BinaryWriter &w) const
{
    writeHeader(w, "hwprnas", 2);

    // Configuration.
    w.writeU64(cfg_.encoder.gcnHidden);
    w.writeU64(cfg_.encoder.gcnLayers);
    w.writeU64(cfg_.encoder.lstmHidden);
    w.writeU64(cfg_.encoder.lstmLayers);
    w.writeU64(cfg_.encoder.embedDim);
    w.writeU64(cfg_.headHidden.size());
    for (std::size_t h : cfg_.headHidden)
        w.writeU64(h);
    w.writeU64(cfg_.combinerHidden.size());
    for (std::size_t h : cfg_.combinerHidden)
        w.writeU64(h);
    w.writeU64(cfg_.useArchFeatures ? 1 : 0);
    w.writeDouble(cfg_.rmseWeight);
    w.writeU64(cfg_.sharedLatencyHead ? 1 : 0);
    w.writeU64(std::uint64_t(dataset_));
    w.writeU64(std::uint64_t(platform_));

    // Scalers.
    writeTargetScaler(w, accScaler_);
    for (const auto &scaler : latScalers_)
        writeTargetScaler(w, scaler);
    writeFeatureScaler(w, accEncoder_->scaler());
    writeFeatureScaler(w, latEncoder_->scaler());

    // Parameters, in params() order (construction-deterministic).
    const auto all = params();
    w.writeU64(all.size());
    for (const auto &p : all)
        w.writeMatrix(p.value());
}

std::unique_ptr<HwPrNas>
HwPrNas::load(const std::string &path)
{
    std::string body;
    if (!readVerified(path, body))
        return nullptr;
    std::istringstream in(body, std::ios::binary);
    BinaryReader r(in);
    if (readHeader(r, "hwprnas") != 2)
        return nullptr;

    HwPrNasConfig cfg;
    cfg.encoder.gcnHidden = std::size_t(r.readU64());
    cfg.encoder.gcnLayers = std::size_t(r.readU64());
    cfg.encoder.lstmHidden = std::size_t(r.readU64());
    cfg.encoder.lstmLayers = std::size_t(r.readU64());
    cfg.encoder.embedDim = std::size_t(r.readU64());
    const std::uint64_t num_head = r.readU64();
    if (!r.ok() || num_head > 64)
        return nullptr;
    cfg.headHidden.resize(num_head);
    for (auto &h : cfg.headHidden)
        h = std::size_t(r.readU64());
    const std::uint64_t num_combiner = r.readU64();
    if (!r.ok() || num_combiner > 64)
        return nullptr;
    cfg.combinerHidden.resize(num_combiner);
    for (auto &h : cfg.combinerHidden)
        h = std::size_t(r.readU64());
    cfg.useArchFeatures = r.readU64() != 0;
    cfg.rmseWeight = r.readDouble();
    cfg.sharedLatencyHead = r.readU64() != 0;
    const std::uint64_t dataset_raw = r.readU64();
    const std::uint64_t platform_raw = r.readU64();
    if (!r.ok() || dataset_raw >= nasbench::allDatasets().size() ||
        platform_raw >= hw::kNumPlatforms)
        return nullptr;
    const auto dataset = nasbench::DatasetId(dataset_raw);
    const auto platform = hw::PlatformId(platform_raw);

    auto model = std::make_unique<HwPrNas>(cfg, dataset, 0);
    model->platform_ = platform;
    model->accScaler_ = readTargetScaler(r);
    for (auto &scaler : model->latScalers_)
        scaler = readTargetScaler(r);
    const auto acc_scaler = readFeatureScaler(r);
    const auto lat_scaler = readFeatureScaler(r);
    if (!r.ok())
        return nullptr;

    // Build the skeleton (the temporary scaler fitted on one dummy
    // architecture is replaced by the loaded one).
    Rng dummy_rng(0);
    model->buildModel({nasbench::nasBench201().sample(dummy_rng)},
                      0.0);
    model->accEncoder_->setScaler(acc_scaler);
    model->latEncoder_->setScaler(lat_scaler);

    auto all = model->params();
    if (r.readU64() != all.size())
        return nullptr;
    for (auto &p : all) {
        Matrix m = r.readMatrix();
        if (!r.ok() || m.rows() != p.value().rows() ||
            m.cols() != p.value().cols())
            return nullptr;
        p.valueMut() = std::move(m);
    }
    model->trained_ = true;
    return model;
}

std::vector<nn::Tensor>
HwPrNas::params() const
{
    std::vector<nn::Tensor> out;
    if (!accEncoder_)
        return out;
    for (const auto &p : accEncoder_->params())
        out.push_back(p);
    for (const auto &p : latEncoder_->params())
        out.push_back(p);
    for (const auto &p : accHead_->params())
        out.push_back(p);
    for (const auto &head : latHeads_)
        for (const auto &p : head->params())
            out.push_back(p);
    for (const auto &p : combiner_->params())
        out.push_back(p);
    return out;
}

} // namespace hwpr::core
