#include "core/hwprnas.h"

#include <cmath>
#include <fstream>
#include <functional>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/obs.h"
#include "common/serialize.h"
#include "nasbench/dataset_id.h"
#include "nn/loss.h"

namespace hwpr::core
{

HwPrNas::HwPrNas(const HwPrNasConfig &cfg, nasbench::DatasetId dataset,
                 std::uint64_t seed)
    : Surrogate("hwprnas"), cfg_(cfg), dataset_(dataset), rng_(seed)
{
}

void
HwPrNas::buildModel(
    const std::vector<nasbench::Architecture> &scaler_fit)
{
    // Branch encodings follow the ablation winners: GCN+AF for
    // accuracy, LSTM+AF for latency.
    accEncoder_ = std::make_unique<ArchEncoder>(
        EncodingKind::GCN_AF, cfg_.encoder, dataset_, scaler_fit, rng_);
    latEncoder_ = std::make_unique<ArchEncoder>(
        EncodingKind::LSTM_AF, cfg_.encoder, dataset_, scaler_fit, rng_);

    nn::MlpConfig acc_mlp;
    acc_mlp.inDim = accEncoder_->dim();
    acc_mlp.hidden = cfg_.headHidden;
    acc_mlp.outDim = 1;
    acc_mlp.dropout = kDropout;
    accHead_ = std::make_unique<nn::Mlp>(acc_mlp, rng_, "acc_head");

    nn::MlpConfig lat_mlp;
    lat_mlp.inDim = latEncoder_->dim();
    lat_mlp.hidden = cfg_.headHidden;
    lat_mlp.outDim = 1;
    lat_mlp.dropout = kDropout;
    latHeads_.clear();
    for (std::size_t h = 0; h < hw::kNumPlatforms; ++h)
        latHeads_.push_back(std::make_unique<nn::Mlp>(
            lat_mlp, rng_, "lat_head" + std::to_string(h)));
    nn::MlpConfig comb_cfg;
    comb_cfg.inDim = 2;
    comb_cfg.hidden = cfg_.combinerHidden;
    comb_cfg.outDim = 1;
    comb_cfg.activation = nn::Activation::Tanh;
    combiner_ =
        std::make_unique<nn::Mlp>(comb_cfg, rng_, "combiner");

    // Trunks: 0 accuracy, 1 latency. Heads: 0 accuracy, 1 + h latency
    // head h, then the combiner.
    std::vector<const nn::Mlp *> heads = {accHead_.get()};
    for (const auto &h : latHeads_)
        heads.push_back(h.get());
    heads.push_back(combiner_.get());
    declareModel({accEncoder_.get(), latEncoder_.get()},
                 std::move(heads));
}

void
HwPrNas::train(const std::vector<const nasbench::ArchRecord *> &train,
               const std::vector<const nasbench::ArchRecord *> &val,
               hw::PlatformId platform, const TrainConfig &cfg)
{
    trainMultiPlatform(train, val, {platform}, cfg);
}

namespace
{

/** term(0) + ... + term(count - 1), scaled once by 1 / count (an
 *  exact x1 in value and gradient when count is 1). */
nn::Tensor
meanLoss(std::size_t count,
         const std::function<nn::Tensor(std::size_t)> &term)
{
    nn::Tensor total = term(0);
    for (std::size_t i = 1; i < count; ++i)
        total = nn::add(total, term(i));
    return nn::scale(total, 1.0 / double(count));
}

} // namespace

void
HwPrNas::trainMultiPlatform(
    const std::vector<const nasbench::ArchRecord *> &train,
    const std::vector<const nasbench::ArchRecord *> &val,
    const std::vector<hw::PlatformId> &platforms,
    const TrainConfig &cfg)
{
    HWPR_CHECK(!train.empty() && !val.empty(),
               "HW-PR-NAS training needs train and validation data");
    HWPR_SPAN("hwprnas.fit",
              {{"train_size", double(train.size())},
               {"val_size", double(val.size())},
               {"epochs", double(cfg.epochs)},
               {"platforms", double(platforms.size())}});
    HWPR_CHECK(!platforms.empty(), "no platforms given");
    for (std::size_t p = 1; p < platforms.size(); ++p)
        for (std::size_t q = 0; q < p; ++q)
            HWPR_CHECK(platforms[p] != platforms[q], "platform ",
                       hw::platformName(platforms[p]),
                       " is listed twice");
    platform_ = platforms.front();
    const std::size_t np = platforms.size();
    std::vector<std::size_t> heads;
    for (hw::PlatformId platform : platforms)
        heads.push_back(hw::platformIndex(platform));

    // One record set's standardized targets (accuracy % and
    // per-platform log-latency), per-platform true objective points
    // (the Pareto ranks come from them; a pure function of the
    // records, so computed once per fit) and deterministic encoder
    // inputs of both trunks.
    struct FitSet
    {
        std::vector<nasbench::Architecture> archs;
        std::vector<double> acc;
        std::vector<std::vector<double>> lat;
        std::vector<std::vector<pareto::Point>> points;
        EncoderCache accCache, latCache;
    };
    auto fit_set =
        [&](const std::vector<const nasbench::ArchRecord *> &recs) {
            FitSet s;
            for (const auto *rec : recs) {
                s.archs.push_back(rec->arch);
                s.acc.push_back(rec->accuracy);
            }
            for (hw::PlatformId platform : platforms) {
                std::vector<double> lat;
                for (const auto *rec : recs)
                    lat.push_back(std::log(
                        rec->latencyMs[hw::platformIndex(platform)]));
                s.lat.push_back(std::move(lat));
                s.points.push_back(objectivePoints(recs, platform));
            }
            return s;
        };
    FitSet tr = fit_set(train);
    FitSet va = fit_set(val);
    accScaler_ = TargetScaler::fit(tr.acc);
    tr.acc = accScaler_.normAll(tr.acc);
    va.acc = accScaler_.normAll(va.acc);
    for (std::size_t p = 0; p < np; ++p) {
        TargetScaler &scaler = latScalers_[heads[p]];
        scaler = TargetScaler::fit(tr.lat[p]);
        tr.lat[p] = scaler.normAll(tr.lat[p]);
        va.lat[p] = scaler.normAll(va.lat[p]);
    }

    buildModel(tr.archs);
    {
        HWPR_SPAN("hwprnas.fit.prep",
                  {{"train_size", double(train.size())},
                   {"val_size", double(val.size())}});
        static obs::Histogram &prep_hist =
            obs::Registry::global().histogram("hwprnas.fit.prep_us");
        obs::ScopedTimer prep_timer(prep_hist);
        for (FitSet *s : {&tr, &va}) {
            s->accCache = accEncoder_->buildCache(s->archs);
            s->latCache = latEncoder_->buildCache(s->archs);
        }
    }

    // Only the listed latency heads are optimized: AdamW's decoupled
    // decay would otherwise shrink untrained heads.
    std::vector<nn::Tensor> params = accEncoder_->params();
    for (const auto &p : latEncoder_->params())
        params.push_back(p);
    for (const auto &p : accHead_->params())
        params.push_back(p);
    for (std::size_t h : heads)
        for (const auto &p : latHeads_[h]->params())
            params.push_back(p);
    for (const auto &p : combiner_->params())
        params.push_back(p);

    // The one loss of batches and validation: per platform, listwise +
    // rmseWeight x (accuracy MSE + that platform's latency MSE), or
    // the MSE sum alone without the listwise loss; averaged over the
    // platforms. Heads draw their dropout masks in head order.
    auto joint_loss = [&](const FitSet &s,
                          const std::vector<std::size_t> &rows,
                          bool training) {
        const nn::Tensor acc_pred = accHead_->forward(
            accEncoder_->encodeCached(s.accCache, rows), training, rng_);
        const nn::Tensor lat_enc =
            latEncoder_->encodeCached(s.latCache, rows);
        const nn::Tensor acc_mse =
            nn::mseLoss(acc_pred, gather(s.acc, rows));
        return meanLoss(np, [&](std::size_t p) {
            const nn::Tensor lat_pred =
                latHeads_[heads[p]]->forward(lat_enc, training, rng_);
            const nn::Tensor aux = nn::add(
                acc_mse, nn::mseLoss(lat_pred, gather(s.lat[p], rows)));
            if (!cfg.listwiseLoss)
                return aux;
            const nn::Tensor score = combiner_->forward(
                nn::concatCols(acc_pred, lat_pred), training, rng_);
            return nn::add(
                nn::listMleParetoLoss(score, batchRanks(s.points[p], rows)),
                nn::scale(aux, cfg_.rmseWeight));
        });
    };

    // Validation ranks are global Pareto ranks over the whole set.
    std::vector<std::size_t> val_all(va.archs.size());
    std::iota(val_all.begin(), val_all.end(), 0);
    static const FitNames kNames = {
        "hwprnas.fit.epoch", "hwprnas.fit.epoch_us",
        "hwprnas.fit.val_loss", "hwprnas.fit.early_stop",
        "hwprnas.fit.train_loss"};
    valLossHistory_ =
        FitLoop(params, tr.archs.size(), cfg.learningRate,
                cfg.batchSize, rng_)
            .fit(
                kNames, cfg.epochs, cfg.patience,
                [&](const std::vector<std::size_t> &batch) {
                    return joint_loss(tr, batch, true);
                },
                [&] {
                    return joint_loss(va, val_all, false).value()(0, 0);
                });

    // Final combiner-only fine-tuning on the mean listwise loss. The
    // frozen branch outputs enter the combiner as a constant, so
    // backward stops at the combiner.
    if (cfg.listwiseLoss && cfg.combinerEpochs > 0) {
        HWPR_SPAN("hwprnas.fit.combiner",
                  {{"epochs", double(cfg.combinerEpochs)}});
        FitLoop fine_tune(combiner_->params(), tr.archs.size(),
                          cfg.learningRate, cfg.batchSize, rng_);
        auto combiner_loss = [&](const std::vector<std::size_t> &batch) {
            const Matrix acc =
                accHead_
                    ->forward(accEncoder_->encodeCached(tr.accCache, batch),
                              false, rng_)
                    .value();
            const nn::Tensor lat_enc =
                latEncoder_->encodeCached(tr.latCache, batch);
            return meanLoss(np, [&](std::size_t p) {
                const Matrix lat =
                    latHeads_[heads[p]]->forward(lat_enc, false, rng_)
                        .value();
                const nn::Tensor score = combiner_->forward(
                    nn::Tensor::constant(Matrix::hconcat(acc, lat),
                                         "frozen_branches"),
                    false, rng_);
                return nn::listMleParetoLoss(
                    score, batchRanks(tr.points[p], batch));
            });
        };
        for (std::size_t e = 0; e < cfg.combinerEpochs; ++e)
            fine_tune.epoch(combiner_loss);
    }
    invalidateRank();
    trained_ = true;
}

void
HwPrNas::branchChunk(const ChunkPass &pass, std::size_t head,
                     Matrix &branches) const
{
    Matrix &acc = pass.buffer(1);
    pass.head(0, pass.encode(0), acc);
    Matrix &lat = pass.buffer(1);
    pass.head(1 + head, pass.encode(1), lat);
    // The combiner input is the same values hconcat(acc, lat) copies,
    // just gathered into recycled scratch.
    for (std::size_t r = 0; r < pass.archs.size(); ++r) {
        branches(r, 0) = acc(r, 0);
        branches(r, 1) = lat(r, 0);
    }
}

void
HwPrNas::chunk(const ChunkPass &pass, Matrix &out) const
{
    Matrix &branches = pass.buffer(2);
    branchChunk(pass, hw::platformIndex(platform_), branches);
    Matrix &score = pass.buffer(1);
    pass.head(1 + latHeads_.size(), branches, score);
    for (std::size_t r = 0; r < pass.archs.size(); ++r)
        out(pass.row0 + r, 0) = score(r, 0);
}

Matrix
HwPrNas::branchOutputs(std::span<const nasbench::Architecture> archs,
                       std::size_t head) const
{
    HWPR_CHECK(trained_, "prediction before train()");
    BatchPlan plan;
    predictPass(archs, plan, 2,
                [this, head](const ChunkPass &pass, Matrix &out) {
                    Matrix &branches = pass.buffer(2);
                    branchChunk(pass, head, branches);
                    for (std::size_t r = 0; r < pass.archs.size(); ++r)
                        for (std::size_t c = 0; c < 2; ++c)
                            out(pass.row0 + r, c) = branches(r, c);
                });
    return std::move(plan.output());
}

void
HwPrNas::fit(const SurrogateDataset &data, ExecContext &ctx)
{
    rng_ = Rng(ctx.seed);
    train(data.train, data.val, data.platform, fitConfig_);
}

std::vector<double>
HwPrNas::predictLatencyFor(
    const std::vector<nasbench::Architecture> &archs,
    hw::PlatformId platform) const
{
    const std::size_t head = hw::platformIndex(platform);
    const Matrix b = branchOutputs(archs, head);
    std::vector<double> out(archs.size());
    for (std::size_t i = 0; i < archs.size(); ++i)
        out[i] = std::exp(latScalers_[head].denorm(b(i, 1)));
    return out;
}

std::vector<double>
HwPrNas::predictAccuracy(
    const std::vector<nasbench::Architecture> &archs) const
{
    const Matrix b =
        branchOutputs(archs, hw::platformIndex(platform_));
    std::vector<double> out(archs.size());
    for (std::size_t i = 0; i < archs.size(); ++i)
        out[i] = accScaler_.denorm(b(i, 0));
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
    writeEncoderConfig(w, cfg_.encoder, /*global_node_field=*/false);
    writeWidths(w, cfg_.headHidden);
    writeWidths(w, cfg_.combinerHidden);
    w.writeU64(1); // AF with both encodings
    w.writeDouble(cfg_.rmseWeight);
    w.writeU64(0); // one latency head per platform
    w.writeU64(std::uint64_t(dataset_));
    w.writeU64(std::uint64_t(platform_));

    // Scalers.
    writeTargetScaler(w, accScaler_);
    for (const auto &scaler : latScalers_)
        writeTargetScaler(w, scaler);
    writeFeatureScaler(w, accEncoder_->scaler());
    writeFeatureScaler(w, latEncoder_->scaler());

    // Parameters, in params() order (construction-deterministic).
    writeParams(w, params());
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
    if (!readEncoderConfig(r, cfg.encoder, /*global_node_field=*/false) ||
        !readWidths(r, cfg.headHidden) ||
        !readWidths(r, cfg.combinerHidden))
        return nullptr;
    // Flag words: AF with both encodings (1), shared latency head (0).
    // The model has no other shape, so other values are rejected.
    const std::uint64_t af = r.readU64();
    cfg.rmseWeight = r.readDouble();
    const std::uint64_t shared_head = r.readU64();
    const std::uint64_t dataset_raw = r.readU64();
    const std::uint64_t platform_raw = r.readU64();
    if (!r.ok() || af != 1 || shared_head != 0 ||
        dataset_raw >= nasbench::allDatasets().size() ||
        platform_raw >= hw::kNumPlatforms)
        return nullptr;
    const auto dataset = nasbench::DatasetId(dataset_raw);
    const auto platform = hw::PlatformId(platform_raw);

    auto model = std::make_unique<HwPrNas>(cfg, dataset, 0);
    model->platform_ = platform;
    model->accScaler_ = readTargetScaler(r);
    for (auto &scaler : model->latScalers_)
        scaler = readTargetScaler(r);
    auto acc_scaler = readFeatureScaler(r);
    auto lat_scaler = readFeatureScaler(r);
    if (!r.ok())
        return nullptr;

    // Build the skeleton (the temporary scaler fitted on one dummy
    // architecture is replaced by the loaded one).
    Rng dummy_rng(0);
    model->buildModel({nasbench::nasBench201().sample(dummy_rng)});
    if (!model->accEncoder_->setScaler(std::move(acc_scaler)) ||
        !model->latEncoder_->setScaler(std::move(lat_scaler)) ||
        !readParams(r, model->params()))
        return nullptr;
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
