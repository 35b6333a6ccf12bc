#include "core/predictor.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/obs.h"
#include "common/stats.h"
#include "common/threadpool.h"
#include "nasbench/space.h"

namespace hwpr::core
{

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
    mlp_cfg.dropout = kDropout;
    head_ = std::make_unique<nn::Mlp>(mlp_cfg, rng_, "pred");
    model_.declare({encoder_.get()}, {head_.get()});

    std::vector<nn::Tensor> params = encoder_->params();
    for (const auto &p : head_->params())
        params.push_back(p);

    // Deterministic encoder inputs, computed once per fit.
    const EncoderCache cache = encoder_->buildCache(train_archs);
    const EncoderCache val_cache = encoder_->buildCache(val_archs);

    std::vector<std::size_t> val_all(val_archs.size());
    std::iota(val_all.begin(), val_all.end(), 0);

    // The one loss of batches and validation.
    auto loss_of = [&](const nn::Tensor &pred,
                       const std::vector<double> &y) {
        switch (cfg.loss) {
          case LossKind::Mse:
            return nn::mseLoss(pred, y);
          case LossKind::Hinge:
            return nn::pairwiseHingeLoss(pred, y, cfg.hingeMargin);
          case LossKind::MseHinge:
            return nn::add(nn::mseLoss(pred, y),
                           nn::pairwiseHingeLoss(pred, y,
                                                 cfg.hingeMargin));
        }
        panic("unknown LossKind");
    };

    static const FitNames kNames = {
        "predictor.fit.epoch", "predictor.fit.epoch_us",
        "predictor.fit.val_loss", "predictor.fit.early_stop"};
    FitLoop(params, train_archs.size(), cfg.lr, cfg.batchSize, rng_)
        .fit(
            kNames, cfg.epochs, cfg.patience,
            [&](const std::vector<std::size_t> &batch) {
                return loss_of(
                    head_->forward(encoder_->encodeCached(cache, batch),
                                   true, rng_),
                    gather(train_yn, batch));
            },
            [&] {
                return loss_of(head_->forward(encoder_->encodeCached(
                                                  val_cache, val_all),
                                              false, rng_),
                               val_yn)
                    .value()(0, 0);
            });
    trained_ = true;
}

std::vector<double>
MetricPredictor::predict(
    std::span<const nasbench::Architecture> archs) const
{
    HWPR_CHECK(trained_, "predict() before train()");
    BatchPlan plan;
    if (regressor_ != RegressorKind::Mlp) {
        Matrix &out = plan.prepare(archs.size(), 1);
        const Matrix p = trees_->predictBatch(gbdtFeatures(archs));
        for (std::size_t i = 0; i < archs.size(); ++i)
            out(i, 0) = targetScaler_.denorm(p(i, 0));
    } else {
        model_.run("predictor", false, archs, plan, 1,
                   [this](const ChunkPass &pass, Matrix &out) {
                       Matrix &pred = pass.buffer(1);
                       pass.head(0, pass.encode(0), pred);
                       for (std::size_t r = 0; r < pass.archs.size(); ++r)
                           out(pass.row0 + r, 0) =
                               targetScaler_.denorm(pred(r, 0));
                   });
    }
    return std::move(plan.output().raw());
}

namespace
{

/** Feature-row width of the GBDT path (see gbdtFeatures()). */
constexpr std::size_t kGbdtFeatureDim =
    nasbench::kNumArchFeatures + nasbench::kTokenLength + 1;

} // namespace

void
MetricPredictor::saveTo(BinaryWriter &w) const
{
    HWPR_CHECK(trained_, "saveTo() before train()");
    w.writeU64(std::uint64_t(encoding_));
    w.writeU64(std::uint64_t(regressor_));
    w.writeU64(std::uint64_t(dataset_));
    writeEncoderConfig(w, encCfg_);
    w.writeDouble(targetScaler_.mu);
    w.writeDouble(targetScaler_.sigma);

    if (regressor_ != RegressorKind::Mlp) {
        writeFeatureScaler(w, gbdtScaler_);
        trees_->saveTo(w);
        return;
    }

    writeFeatureScaler(w, encoder_->scaler());
    writeWidths(w, head_->config().hidden);

    std::vector<nn::Tensor> params = encoder_->params();
    for (const auto &p : head_->params())
        params.push_back(p);
    writeParams(w, params);
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
    if (!readEncoderConfig(r, cfg))
        return nullptr;
    const double mu = r.readDouble();
    const double sigma = r.readDouble();
    if (!r.ok())
        return nullptr;

    auto pred = std::make_unique<MetricPredictor>(
        EncodingKind(encoding), cfg, RegressorKind(regressor),
        nasbench::DatasetId(dataset), 0);
    pred->targetScaler_.mu = mu;
    pred->targetScaler_.sigma = sigma;

    if (pred->regressor_ != RegressorKind::Mlp) {
        pred->gbdtScaler_ = readFeatureScaler(r);
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

    nasbench::FeatureScaler scaler = readFeatureScaler(r);
    std::vector<std::size_t> hidden;
    if (!readWidths(r, hidden))
        return nullptr;

    // Build the skeleton; the dummy-architecture scaler fit is
    // replaced by the loaded one, and all parameters are overwritten.
    Rng dummy_rng(0);
    pred->encoder_ = std::make_unique<ArchEncoder>(
        pred->encoding_, cfg, pred->dataset_,
        std::vector<nasbench::Architecture>{
            nasbench::nasBench201().sample(dummy_rng)},
        pred->rng_);
    if (!pred->encoder_->setScaler(std::move(scaler)))
        return nullptr;
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
    if (!readParams(r, params))
        return nullptr;
    pred->model_.declare({pred->encoder_.get()}, {pred->head_.get()});
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
