#include "core/predictor.h"

#include <algorithm>

#include "common/logging.h"
#include "common/obs.h"
#include "common/stats.h"
#include "common/threadpool.h"
#include "core/rank_cache.h"
#include "nasbench/space.h"
#include "nn/quant.h"

namespace hwpr::core
{

/** Frozen rank-path state; see HwPrNas::RankState. */
struct MetricPredictor::RankState
{
    nn::QuantizedMlp head;
    EncodingCache cache;
};

std::string
regressorName(RegressorKind kind)
{
    switch (kind) {
      case RegressorKind::Mlp:
        return "MLP";
      case RegressorKind::XGBoost:
        return "XGBoost";
      case RegressorKind::LGBoost:
        return "LGBoost";
    }
    panic("unknown RegressorKind");
}

MetricPredictor::MetricPredictor(EncodingKind encoding,
                                 const EncoderConfig &enc_cfg,
                                 RegressorKind regressor,
                                 nasbench::DatasetId dataset,
                                 std::uint64_t seed)
    : encoding_(encoding), encCfg_(enc_cfg), regressor_(regressor),
      dataset_(dataset), rng_(seed)
{
    // The encoder itself is built lazily in train() because the AF
    // scaler needs the training architectures.
}

MetricPredictor::~MetricPredictor() = default;

void
MetricPredictor::invalidateRankState()
{
    rankFrozen_.store(false);
    rank_.reset();
}

void
MetricPredictor::ensureRankState() const
{
    if (!hasRankFastPath() ||
        rankFrozen_.load(std::memory_order_acquire))
        return;
    std::lock_guard<std::mutex> lock(rankMu_);
    if (rankFrozen_.load(std::memory_order_relaxed))
        return;
    auto state = std::make_unique<RankState>();
    state->head = nn::QuantizedMlp(*head_);
    state->cache.init(encoder_->dim());
    rank_ = std::move(state);
    rankFrozen_.store(true, std::memory_order_release);
}

void
MetricPredictor::rankChunk(
    std::span<const nasbench::Architecture> archs,
    nn::PredictScratch &scratch, double *out) const
{
    HWPR_ASSERT(regressor_ == RegressorKind::Mlp,
                "rankChunk is NN-only");
    HWPR_ASSERT(rankFrozen_.load(std::memory_order_acquire),
                "rankChunk before ensureRankState");
    RankState &rank = *rank_;
    Matrix &enc = scratch.acquire(archs.size(), rank.cache.width());
    gatherEncodings(*encoder_, archs, rank.cache, scratch, enc);
    Matrix &pred = scratch.acquire(archs.size(), 1);
    rank.head.predictBatchInto(enc, scratch, pred);
    for (std::size_t i = 0; i < archs.size(); ++i)
        out[i] = targetScaler_.denorm(pred(i, 0));
}

Matrix
MetricPredictor::gbdtFeatures(
    std::span<const nasbench::Architecture> archs) const
{
    // GBDT input: scaled AF concatenated with the genome as ordinal
    // features padded to the longest genome. (The paper feeds the
    // architecture encoding through a dense layer and concatenates AF;
    // trees consume the categorical genome directly instead — see
    // DESIGN.md substitutions.)
    const std::size_t max_genome = nasbench::kTokenLength;
    const std::size_t d = nasbench::kNumArchFeatures + max_genome + 1;
    Matrix x(archs.size(), d);
    for (std::size_t i = 0; i < archs.size(); ++i) {
        const auto af = gbdtScaler_.apply(
            nasbench::archFeatures(archs[i], dataset_));
        for (std::size_t j = 0; j < af.size(); ++j)
            x(i, j) = af[j];
        for (std::size_t j = 0; j < archs[i].genome.size(); ++j)
            x(i, nasbench::kNumArchFeatures + j) =
                double(archs[i].genome[j] + 1);
        // Space indicator so union-space datasets remain separable.
        x(i, d - 1) = archs[i].space == nasbench::SpaceId::NasBench201
                          ? 0.0
                          : 1.0;
    }
    return x;
}

nn::Tensor
MetricPredictor::forwardNn(
    const std::vector<nasbench::Architecture> &archs, bool training,
    Rng &rng) const
{
    const nn::Tensor enc = encoder_->encode(archs);
    return head_->forward(enc, training, rng);
}

void
MetricPredictor::train(
    const std::vector<const nasbench::ArchRecord *> &train,
    const std::vector<const nasbench::ArchRecord *> &val,
    const TargetFn &target, const PredictorTrainConfig &cfg)
{
    HWPR_CHECK(!train.empty() && !val.empty(),
               "predictor training needs train and validation data");
    HWPR_SPAN("predictor.fit", {{"train_size", double(train.size())},
                                {"val_size", double(val.size())},
                                {"epochs", double(cfg.epochs)}});

    std::vector<nasbench::Architecture> train_archs, val_archs;
    std::vector<double> train_y, val_y;
    for (const auto *rec : train) {
        train_archs.push_back(rec->arch);
        train_y.push_back(target(*rec));
    }
    for (const auto *rec : val) {
        val_archs.push_back(rec->arch);
        val_y.push_back(target(*rec));
    }
    targetScaler_ = TargetScaler::fit(train_y);
    const std::vector<double> train_yn =
        targetScaler_.normAll(train_y);
    const std::vector<double> val_yn = targetScaler_.normAll(val_y);

    if (regressor_ != RegressorKind::Mlp) {
        // Tree ensembles: fit the AF scaler, then boost.
        std::vector<std::vector<double>> feats;
        for (const auto &a : train_archs)
            feats.push_back(nasbench::archFeatures(a, dataset_));
        gbdtScaler_ = nasbench::FeatureScaler::fit(feats);

        const Matrix x = gbdtFeatures(train_archs);
        const Matrix xv = gbdtFeatures(val_archs);
        trees_ = std::make_unique<gbdt::Gbdt>(
            regressor_ == RegressorKind::XGBoost
                ? gbdt::xgboostConfig()
                : gbdt::lgboostConfig());
        trees_->fit(x, train_yn, rng_, &xv, &val_yn);
        invalidateRankState();
        trained_ = true;
        return;
    }

    // NN path: encoder + MLP head trained with AdamW.
    encoder_ = std::make_unique<ArchEncoder>(
        encoding_, encCfg_, dataset_, train_archs, rng_);
    nn::MlpConfig mlp_cfg;
    mlp_cfg.inDim = encoder_->dim();
    mlp_cfg.hidden = {64, 32};
    mlp_cfg.outDim = 1;
    mlp_cfg.dropout = cfg.dropout;
    head_ = std::make_unique<nn::Mlp>(mlp_cfg, rng_, "pred");

    std::vector<nn::Tensor> params = encoder_->params();
    for (const auto &p : head_->params())
        params.push_back(p);
    nn::AdamW opt(params, cfg.lr, cfg.weightDecay);

    const std::size_t steps_per_epoch = std::max<std::size_t>(
        1, (train_archs.size() + cfg.batchSize - 1) / cfg.batchSize);
    nn::CosineAnnealing schedule(cfg.lr,
                                 cfg.epochs * steps_per_epoch);

    // Fit-time fast path (encoding cache), bit-identical to the plain
    // path; see core/train_util.h.
    const bool fast = trainFastPath();
    EncoderCache cache, val_cache;
    if (fast) {
        cache = encoder_->buildCache(train_archs);
        val_cache = encoder_->buildCache(val_archs);
    }

    std::vector<std::size_t> val_all(val_archs.size());
    for (std::size_t i = 0; i < val_all.size(); ++i)
        val_all[i] = i;

    auto train_forward = [&](const std::vector<std::size_t> &batch) {
        if (fast)
            return head_->forward(encoder_->encodeCached(cache, batch),
                                  true, rng_);
        std::vector<nasbench::Architecture> archs;
        archs.reserve(batch.size());
        for (std::size_t idx : batch)
            archs.push_back(train_archs[idx]);
        return forwardNn(archs, true, rng_);
    };

    double best_val = 1e300;
    std::size_t since_best = 0;
    std::vector<Matrix> best_params = snapshotParams(params);
    std::size_t step = 0;

    static obs::Histogram &epoch_hist =
        obs::Registry::global().histogram("predictor.fit.epoch_us");
    static obs::Counter &early_stops =
        obs::Registry::global().counter("predictor.fit.early_stop");
    for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
        HWPR_SPAN("predictor.fit.epoch", {{"epoch", double(epoch)}});
        obs::ScopedTimer epoch_timer(epoch_hist);
        for (const auto &batch :
             makeBatches(train_archs.size(), cfg.batchSize, rng_)) {
            std::vector<double> y;
            y.reserve(batch.size());
            for (std::size_t idx : batch)
                y.push_back(train_yn[idx]);
            if (cfg.cosineAnnealing)
                opt.setLearningRate(schedule.at(step));
            ++step;
            opt.zeroGrad();
            const nn::Tensor pred = train_forward(batch);
            nn::Tensor loss;
            switch (cfg.loss) {
              case LossKind::Mse:
                loss = nn::mseLoss(pred, y);
                break;
              case LossKind::Hinge:
                loss = nn::pairwiseHingeLoss(pred, y,
                                             cfg.hingeMargin);
                break;
              case LossKind::MseHinge:
                loss = nn::add(
                    nn::mseLoss(pred, y),
                    nn::scale(nn::pairwiseHingeLoss(
                                  pred, y, cfg.hingeMargin),
                              cfg.hingeWeight));
                break;
            }
            nn::backward(loss);
            opt.step();
        }

        // Validation loss (same objective, no dropout).
        const nn::Tensor vp =
            fast ? head_->forward(
                       encoder_->encodeCached(val_cache, val_all),
                       false, rng_)
                 : forwardNn(val_archs, false, rng_);
        double vloss = 0.0;
        switch (cfg.loss) {
          case LossKind::Mse:
            vloss = nn::mseLoss(vp, val_yn).value()(0, 0);
            break;
          case LossKind::Hinge:
            vloss = nn::pairwiseHingeLoss(vp, val_yn,
                                          cfg.hingeMargin)
                        .value()(0, 0);
            break;
          case LossKind::MseHinge:
            vloss = nn::mseLoss(vp, val_yn).value()(0, 0) +
                    cfg.hingeWeight *
                        nn::pairwiseHingeLoss(vp, val_yn,
                                              cfg.hingeMargin)
                            .value()(0, 0);
            break;
        }
        if (obs::metricsEnabled())
            obs::Registry::global()
                .gauge("predictor.fit.val_loss")
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
}

std::vector<double>
MetricPredictor::predict(
    std::span<const nasbench::Architecture> archs) const
{
    HWPR_CHECK(trained_, "predict() before train()");
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
    if (regressor_ != RegressorKind::Mlp) {
        // Tree traversal is parallelized over rows inside
        // Gbdt::predictBatch.
        const Matrix p = trees_->predictBatch(gbdtFeatures(archs));
        std::vector<double> out(archs.size());
        for (std::size_t i = 0; i < archs.size(); ++i)
            out[i] = targetScaler_.denorm(p(i, 0));
        return out;
    }
    // Fused chunked forward through a per-call plan: encode + head
    // per chunk against recycled scratch, chunks fanned out over the
    // ExecContext pool into disjoint output slots.
    BatchPlan plan;
    const Matrix &pred = predict(archs, plan);
    std::vector<double> out(archs.size());
    for (std::size_t i = 0; i < archs.size(); ++i)
        out[i] = pred(i, 0);
    return out;
}

const Matrix &
MetricPredictor::predict(std::span<const nasbench::Architecture> archs,
                         BatchPlan &plan) const
{
    HWPR_CHECK(trained_, "predict() before train()");
    Matrix &out = plan.prepare(archs.size(), 1);
    if (regressor_ != RegressorKind::Mlp) {
        const Matrix p = trees_->predictBatch(gbdtFeatures(archs));
        for (std::size_t i = 0; i < archs.size(); ++i)
            out(i, 0) = targetScaler_.denorm(p(i, 0));
        return out;
    }
    plan.forEachChunk(
        "predictor",
        [&](nn::PredictScratch &s, std::size_t i0, std::size_t i1) {
            predictChunk(archs.subspan(i0, i1 - i0), s,
                         &out.raw()[i0]);
        });
    return out;
}

void
MetricPredictor::predictChunk(
    std::span<const nasbench::Architecture> archs,
    nn::PredictScratch &scratch, double *out) const
{
    HWPR_ASSERT(regressor_ == RegressorKind::Mlp,
                "predictChunk is NN-only");
    const Matrix &enc = encoder_->encodeBatchInto(archs, scratch);
    Matrix &pred = scratch.acquire(archs.size(), 1);
    head_->predictBatchInto(enc, scratch, pred);
    for (std::size_t i = 0; i < archs.size(); ++i)
        out[i] = targetScaler_.denorm(pred(i, 0));
}

namespace
{

/** Feature-row width of the GBDT path (see gbdtFeatures()). */
constexpr std::size_t kGbdtFeatureDim =
    nasbench::kNumArchFeatures + nasbench::kTokenLength + 1;

void
writeScaler(BinaryWriter &w, const nasbench::FeatureScaler &scaler)
{
    w.writeDoubles(scaler.mean);
    w.writeDoubles(scaler.std);
}

nasbench::FeatureScaler
readScaler(BinaryReader &r)
{
    nasbench::FeatureScaler s;
    s.mean = r.readDoubles();
    s.std = r.readDoubles();
    return s;
}

} // namespace

void
MetricPredictor::saveTo(BinaryWriter &w) const
{
    HWPR_CHECK(trained_, "saveTo() before train()");
    w.writeU64(std::uint64_t(encoding_));
    w.writeU64(std::uint64_t(regressor_));
    w.writeU64(std::uint64_t(dataset_));
    w.writeU64(encCfg_.gcnHidden);
    w.writeU64(encCfg_.gcnLayers);
    w.writeU64(encCfg_.lstmHidden);
    w.writeU64(encCfg_.lstmLayers);
    w.writeU64(encCfg_.embedDim);
    w.writeU64(encCfg_.gcnGlobalNode ? 1 : 0);
    w.writeDouble(targetScaler_.mu);
    w.writeDouble(targetScaler_.sigma);

    if (regressor_ != RegressorKind::Mlp) {
        writeScaler(w, gbdtScaler_);
        trees_->saveTo(w);
        return;
    }

    writeScaler(w, encoder_->scaler());
    const auto &hidden = head_->config().hidden;
    w.writeU64(hidden.size());
    for (std::size_t h : hidden)
        w.writeU64(h);

    std::vector<nn::Tensor> params = encoder_->params();
    for (const auto &p : head_->params())
        params.push_back(p);
    w.writeU64(params.size());
    for (const auto &p : params)
        w.writeMatrix(p.value());
}

std::unique_ptr<MetricPredictor>
MetricPredictor::loadFrom(BinaryReader &r)
{
    const std::uint64_t encoding = r.readU64();
    const std::uint64_t regressor = r.readU64();
    const std::uint64_t dataset = r.readU64();
    if (!r.ok() || encoding > std::uint64_t(EncodingKind::ALL) ||
        regressor > std::uint64_t(RegressorKind::LGBoost) ||
        dataset >= nasbench::allDatasets().size())
        return nullptr;

    EncoderConfig cfg;
    cfg.gcnHidden = std::size_t(r.readU64());
    cfg.gcnLayers = std::size_t(r.readU64());
    cfg.lstmHidden = std::size_t(r.readU64());
    cfg.lstmLayers = std::size_t(r.readU64());
    cfg.embedDim = std::size_t(r.readU64());
    cfg.gcnGlobalNode = r.readU64() != 0;
    const double mu = r.readDouble();
    const double sigma = r.readDouble();
    // Oversized layer dimensions would make the skeleton build below
    // allocate huge parameter matrices before any shape check.
    constexpr std::size_t kMaxDim = 1 << 16;
    if (!r.ok() || cfg.gcnHidden > kMaxDim || cfg.gcnLayers > 64 ||
        cfg.lstmHidden > kMaxDim || cfg.lstmLayers > 64 ||
        cfg.embedDim > kMaxDim)
        return nullptr;

    auto pred = std::make_unique<MetricPredictor>(
        EncodingKind(encoding), cfg, RegressorKind(regressor),
        nasbench::DatasetId(dataset), 0);
    pred->targetScaler_.mu = mu;
    pred->targetScaler_.sigma = sigma;

    if (pred->regressor_ != RegressorKind::Mlp) {
        pred->gbdtScaler_ = readScaler(r);
        if (!r.ok() ||
            pred->gbdtScaler_.mean.size() !=
                nasbench::kNumArchFeatures ||
            pred->gbdtScaler_.std.size() != nasbench::kNumArchFeatures)
            return nullptr;
        pred->trees_ = std::make_unique<gbdt::Gbdt>(
            pred->regressor_ == RegressorKind::XGBoost
                ? gbdt::xgboostConfig()
                : gbdt::lgboostConfig());
        if (!pred->trees_->loadFrom(r, kGbdtFeatureDim))
            return nullptr;
        pred->trained_ = true;
        return pred;
    }

    nasbench::FeatureScaler scaler = readScaler(r);
    const std::uint64_t num_hidden = r.readU64();
    if (!r.ok() || num_hidden > 64)
        return nullptr;
    std::vector<std::size_t> hidden(num_hidden);
    for (auto &h : hidden) {
        h = std::size_t(r.readU64());
        if (h == 0 || h > kMaxDim)
            return nullptr;
    }
    if (!r.ok())
        return nullptr;

    // Build the skeleton; the dummy-architecture scaler fit is
    // replaced by the loaded one, and all parameters are overwritten.
    Rng dummy_rng(0);
    pred->encoder_ = std::make_unique<ArchEncoder>(
        pred->encoding_, cfg, pred->dataset_,
        std::vector<nasbench::Architecture>{
            nasbench::nasBench201().sample(dummy_rng)},
        pred->rng_);
    pred->encoder_->setScaler(std::move(scaler));
    nn::MlpConfig mlp_cfg;
    mlp_cfg.inDim = pred->encoder_->dim();
    mlp_cfg.hidden = hidden;
    mlp_cfg.outDim = 1;
    mlp_cfg.dropout = 0.0;
    pred->head_ =
        std::make_unique<nn::Mlp>(mlp_cfg, pred->rng_, "pred");

    std::vector<nn::Tensor> params = pred->encoder_->params();
    for (const auto &p : pred->head_->params())
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
    pred->trained_ = true;
    return pred;
}

PredictorQuality
evaluatePredictor(const MetricPredictor &predictor,
                  const std::vector<const nasbench::ArchRecord *> &test,
                  const TargetFn &target)
{
    std::vector<nasbench::Architecture> archs;
    std::vector<double> truth;
    for (const auto *rec : test) {
        archs.push_back(rec->arch);
        truth.push_back(target(*rec));
    }
    const std::vector<double> pred = predictor.predict(archs);
    PredictorQuality q;
    q.kendall = kendallTau(pred, truth);
    q.rmse = rmse(pred, truth);
    return q;
}

} // namespace hwpr::core
