#include "core/dominance.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/logging.h"
#include "common/obs.h"
#include "common/serialize.h"
#include "nasbench/dataset_id.h"
#include "nasbench/space.h"
#include "nn/loss.h"
#include "pareto/pareto.h"

namespace hwpr::core
{

namespace
{

bool
hasNanObjective(const pareto::Point &p)
{
    for (double v : p)
        if (std::isnan(v))
            return true;
    return false;
}

/** The one sigmoid of the prediction paths: a fixed scalar formula,
 *  so every path (predict, rank, counts, prob) rounds identically. */
double
sigmoidScalar(double z)
{
    return 1.0 / (1.0 + std::exp(-z));
}

} // namespace

bool
dominanceLabel(const pareto::Point &a, const pareto::Point &b)
{
    // NaN points share one worst rank (pareto::paretoRanks): they
    // dominate nothing — not even each other — and every finite point
    // dominates them.
    if (hasNanObjective(a))
        return false;
    if (hasNanObjective(b))
        return true;
    return pareto::dominates(a, b);
}

DominanceSurrogate::DominanceSurrogate(const DominanceConfig &cfg,
                                       nasbench::DatasetId dataset,
                                       std::uint64_t seed)
    : Surrogate("dominance"), cfg_(cfg), dataset_(dataset), rng_(seed)
{
}

void
DominanceSurrogate::buildModel(
    const std::vector<nasbench::Architecture> &scaler_fit)
{
    encoder_ = std::make_unique<ArchEncoder>(
        EncodingKind::ALL, cfg_.encoder, dataset_, scaler_fit, rng_);
    nn::MlpConfig head_cfg;
    head_cfg.inDim = encoder_->dim();
    head_cfg.hidden = cfg_.headHidden;
    head_cfg.outDim = 1;
    head_cfg.dropout = kDropout;
    head_ = std::make_unique<nn::Mlp>(head_cfg, rng_, "dominance_head");
    declareModel({encoder_.get()}, {});
}

void
DominanceSurrogate::refreshReferenceEncodings()
{
    HWPR_CHECK(!refArchs_.empty(),
               "reference anchors missing before encoding refresh");
    nn::PredictScratch scratch;
    refEnc_ = encoder_->encodeBatchInto(refArchs_, scratch);
}

void
DominanceSurrogate::train(
    const std::vector<const nasbench::ArchRecord *> &train,
    const std::vector<const nasbench::ArchRecord *> &val,
    hw::PlatformId platform, const TrainConfig &cfg)
{
    HWPR_CHECK(train.size() >= 2 && val.size() >= 2,
               "dominance classifier needs at least two train and two "
               "validation records");
    HWPR_SPAN("dominance.fit",
              {{"train_size", double(train.size())},
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
    for (const auto &p : head_->params())
        params.push_back(p);

    const std::size_t n = train_archs.size();
    const std::size_t total_pairs = n * (n - 1);
    const std::size_t pairs_per_epoch =
        std::min(total_pairs, cfg_.maxPairsPerEpoch);

    // True objective points once per fit; pair labels gather from
    // these (the O(n^2) dominance relation pool).
    const std::vector<pareto::Point> train_pts =
        objectivePoints(train, platform_);
    const std::vector<pareto::Point> val_pts =
        objectivePoints(val, platform_);

    // Validation pairs: a deterministic stride over the lexicographic
    // ordered-pair enumeration, capped at maxValPairs.
    const std::size_t nv = val_archs.size();
    const std::size_t vtotal = nv * (nv - 1);
    const std::size_t vstride = std::max<std::size_t>(
        1, vtotal / std::max<std::size_t>(1, cfg_.maxValPairs));
    std::vector<std::size_t> val_pos_a, val_pos_b;
    std::vector<double> val_labels;
    for (std::size_t t = 0; t < vtotal; t += vstride) {
        const std::size_t i = t / (nv - 1);
        const std::size_t r = t % (nv - 1);
        const std::size_t j = r >= i ? r + 1 : r;
        val_pos_a.push_back(i);
        val_pos_b.push_back(j);
        val_labels.push_back(
            dominanceLabel(val_pts[i], val_pts[j]) ? 1.0 : 0.0);
    }
    std::vector<std::size_t> val_all(nv);
    std::iota(val_all.begin(), val_all.end(), 0);

    const EncoderCache cache = encoder_->buildCache(train_archs);
    const EncoderCache val_cache = encoder_->buildCache(val_archs);

    auto pairLogits = [&](const nn::Tensor &table,
                          const std::vector<std::size_t> &pos_a,
                          const std::vector<std::size_t> &pos_b,
                          bool training) {
        return head_->forward(nn::sub(nn::gatherRows(table, pos_a),
                                      nn::gatherRows(table, pos_b)),
                              training, rng_);
    };

    // Per-epoch pair pool. Below the cap every ordered pair is used
    // (the loop's batches shuffle them); above it pairs are resampled
    // at the start of each epoch, so the full O(n^2) pool is drawn
    // from across epochs.
    const bool exhaustive = total_pairs <= cfg_.maxPairsPerEpoch;
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    if (exhaustive) {
        pairs.reserve(total_pairs);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                if (i != j)
                    pairs.emplace_back(i, j);
    }
    auto resample = [&] {
        pairs.clear();
        for (std::size_t k = 0; k < pairs_per_epoch; ++k) {
            const std::size_t i = rng_.index(n);
            std::size_t j = rng_.index(n - 1);
            if (j >= i)
                ++j;
            pairs.emplace_back(i, j);
        }
    };

    // Batch-local unique-index map: each pair batch encodes every
    // distinct architecture once and gathers both sides from the
    // table.
    std::vector<std::size_t> slot(n, SIZE_MAX);
    std::vector<std::size_t> uniq, pos_a, pos_b;
    std::vector<double> labels;
    auto batch_loss = [&](const std::vector<std::size_t> &batch) {
        uniq.clear();
        pos_a.clear();
        pos_b.clear();
        labels.clear();
        auto localOf = [&](std::size_t i) {
            if (slot[i] == SIZE_MAX) {
                slot[i] = uniq.size();
                uniq.push_back(i);
            }
            return slot[i];
        };
        for (std::size_t idx : batch) {
            const auto &[i, j] = pairs[idx];
            pos_a.push_back(localOf(i));
            pos_b.push_back(localOf(j));
            labels.push_back(
                dominanceLabel(train_pts[i], train_pts[j]) ? 1.0 : 0.0);
        }
        for (std::size_t i : uniq)
            slot[i] = SIZE_MAX;
        return nn::bceWithLogitsLoss(
            pairLogits(encoder_->encodeCached(cache, uniq), pos_a, pos_b,
                       true),
            labels);
    };

    static const FitNames kNames = {
        "dominance.fit.epoch", "dominance.fit.epoch_us",
        "dominance.fit.val_loss", "dominance.fit.early_stop"};
    FitLoop(params, pairs_per_epoch, cfg.learningRate, cfg.batchSize,
            rng_)
        .fit(
            kNames, cfg.epochs, cfg.patience, batch_loss,
            [&] {
                return nn::bceWithLogitsLoss(
                           pairLogits(encoder_->encodeCached(val_cache,
                                                             val_all),
                                      val_pos_a, val_pos_b, false),
                           val_labels)
                    .value()(0, 0);
            },
            exhaustive ? std::function<void()>() : resample);

    // Freeze the scalar-score anchors: an evenly strided subset of
    // the training set, encoded with the restored (best) weights.
    refArchs_.clear();
    const std::size_t ref = std::min(cfg_.referenceSize, n);
    for (std::size_t r = 0; r < ref; ++r)
        refArchs_.push_back(train_archs[(r * n) / ref]);
    refreshReferenceEncodings();
    invalidateRank();
    trained_ = true;
}

void
DominanceSurrogate::fit(const SurrogateDataset &data, ExecContext &ctx)
{
    rng_ = Rng(ctx.seed);
    train(data.train, data.val, data.platform, fitConfig_);
}

void
DominanceSurrogate::chunk(const ChunkPass &pass, Matrix &out) const
{
    const Matrix &enc = pass.encode(0);
    const std::size_t rows = pass.archs.size();
    const std::size_t R = refEnc_.rows();
    const std::size_t d = refEnc_.cols();
    // Stack every (row, anchor) embedding difference and run one head
    // pass per chunk. Row results of the head are bitwise independent
    // of batch composition (the repo-wide batched-vs-scalar GEMM
    // property), so stacking never changes a row's score.
    Matrix &diff = pass.scratch.acquire(rows * R, d);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t r = 0; r < R; ++r)
            for (std::size_t c = 0; c < d; ++c)
                diff(i * R + r, c) = enc(i, c) - refEnc_(r, c);
    Matrix &logit = pass.scratch.acquire(rows * R, 1);
    head_->predictBatchInto(diff, pass.scratch, logit);
    for (std::size_t i = 0; i < rows; ++i) {
        double acc = 0.0;
        for (std::size_t r = 0; r < R; ++r)
            acc += sigmoidScalar(logit(i * R + r, 0));
        out(pass.row0 + i, 0) = acc / double(R);
    }
}

std::vector<double>
DominanceSurrogate::dominanceCounts(
    std::span<const nasbench::Architecture> archs,
    BatchPlan &plan) const
{
    if (archs.empty())
        return {};
    HWPR_CHECK(trained_, "dominanceCounts() before train()");
    HWPR_SPAN("dominance.counts", {{"rows", double(archs.size())}});
    const std::size_t n = archs.size();
    const std::size_t d = encoder_->dim();

    // Pass 1: encode the whole population once into a shared table
    // (chunks write disjoint rows).
    Matrix all_enc(n, d);
    plan.prepare(n, 1);
    plan.forEachChunk(
        "dominance_enc",
        [&](nn::PredictScratch &s, std::size_t i0, std::size_t i1) {
            const std::span<const nasbench::Architecture> sub =
                archs.subspan(i0, i1 - i0);
            const Matrix &enc = encoder_->encodeBatchInto(sub, s);
            for (std::size_t i = i0; i < i1; ++i)
                for (std::size_t c = 0; c < d; ++c)
                    all_enc(i, c) = enc(i - i0, c);
        });

    // Pass 2: per-row sweep against every other member. Each row is
    // computed independently (its own scratch generation), so chunk
    // layout and thread count never change a count.
    std::vector<double> counts(n, 0.0);
    plan.forEachChunk(
        "dominance_count",
        [&](nn::PredictScratch &s, std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i) {
                s.reset();
                Matrix &diff = s.acquire(n, d);
                for (std::size_t j = 0; j < n; ++j)
                    for (std::size_t c = 0; c < d; ++c)
                        diff(j, c) = all_enc(i, c) - all_enc(j, c);
                Matrix &logit = s.acquire(n, 1);
                head_->predictBatchInto(diff, s, logit);
                double cnt = 0.0;
                for (std::size_t j = 0; j < n; ++j)
                    if (j != i && logit(j, 0) > 0.0)
                        cnt += 1.0; // sigmoid > 1/2: predicted dominance
                counts[i] = cnt;
            }
        });
    return counts;
}

double
DominanceSurrogate::dominanceProb(const nasbench::Architecture &a,
                                  const nasbench::Architecture &b) const
{
    HWPR_CHECK(trained_, "dominanceProb() before train()");
    const std::vector<nasbench::Architecture> pair = {a, b};
    nn::PredictScratch s;
    const Matrix &enc = encoder_->encodeBatchInto(pair, s);
    Matrix &diff = s.acquire(1, enc.cols());
    for (std::size_t c = 0; c < enc.cols(); ++c)
        diff(0, c) = enc(0, c) - enc(1, c);
    Matrix &logit = s.acquire(1, 1);
    head_->predictBatchInto(diff, s, logit);
    return sigmoidScalar(logit(0, 0));
}

bool
DominanceSurrogate::save(const std::string &path) const
{
    HWPR_CHECK(trained_, "save() before train()");
    return atomicSave(path, [this](BinaryWriter &w) {
        writeHeader(w, "dominance", 1);

        writeEncoderConfig(w, cfg_.encoder);
        writeWidths(w, cfg_.headHidden);
        w.writeU64(cfg_.referenceSize);
        w.writeU64(std::uint64_t(dataset_));
        w.writeU64(std::uint64_t(platform_));
        writeFeatureScaler(w, encoder_->scaler());

        // Anchors travel as genomes; their encodings are recomputed
        // at load time from the restored weights (bit-identical).
        w.writeU64(refArchs_.size());
        for (const auto &arch : refArchs_) {
            w.writeU64(std::uint64_t(arch.space));
            w.writeU64(arch.genome.size());
            for (int g : arch.genome)
                w.writeI64(g);
        }

        std::vector<nn::Tensor> params = encoder_->params();
        for (const auto &p : head_->params())
            params.push_back(p);
        writeParams(w, params);
    });
}

std::unique_ptr<DominanceSurrogate>
DominanceSurrogate::load(const std::string &path)
{
    std::string body;
    if (!readVerified(path, body))
        return nullptr;
    std::istringstream in(body, std::ios::binary);
    BinaryReader r(in);
    if (readHeader(r, "dominance") != 1)
        return nullptr;

    DominanceConfig cfg;
    if (!readEncoderConfig(r, cfg.encoder) ||
        !readWidths(r, cfg.headHidden))
        return nullptr;
    cfg.referenceSize = std::size_t(r.readU64());
    const std::uint64_t dataset_raw = r.readU64();
    const std::uint64_t platform_raw = r.readU64();
    if (!r.ok() || dataset_raw >= nasbench::allDatasets().size() ||
        platform_raw >= hw::kNumPlatforms)
        return nullptr;
    const auto dataset = nasbench::DatasetId(dataset_raw);
    const auto platform = hw::PlatformId(platform_raw);
    nasbench::FeatureScaler scaler = readFeatureScaler(r);
    if (!r.ok())
        return nullptr;

    auto model = std::make_unique<DominanceSurrogate>(cfg, dataset, 0);
    model->platform_ = platform;
    Rng dummy_rng(0);
    model->buildModel({nasbench::nasBench201().sample(dummy_rng)});
    if (!model->encoder_->setScaler(std::move(scaler)))
        return nullptr;

    const std::uint64_t ref_count = r.readU64();
    if (!r.ok() || ref_count == 0 || ref_count > (1u << 16))
        return nullptr;
    model->refArchs_.reserve(ref_count);
    for (std::uint64_t i = 0; i < ref_count; ++i) {
        const std::uint64_t space_raw = r.readU64();
        const std::uint64_t len = r.readU64();
        if (!r.ok() ||
            space_raw > std::uint64_t(nasbench::SpaceId::FBNet))
            return nullptr;
        const auto space_id = nasbench::SpaceId(space_raw);
        const auto &space = nasbench::spaceFor(space_id);
        if (len != space.genomeLength())
            return nullptr;
        nasbench::Architecture arch;
        arch.space = space_id;
        arch.genome.reserve(len);
        for (std::uint64_t pos = 0; pos < len; ++pos) {
            const std::int64_t g = r.readI64();
            if (!r.ok() || g < 0 ||
                std::uint64_t(g) >= space.numOptions(pos))
                return nullptr;
            arch.genome.push_back(int(g));
        }
        model->refArchs_.push_back(std::move(arch));
    }

    std::vector<nn::Tensor> params = model->encoder_->params();
    for (const auto &p : model->head_->params())
        params.push_back(p);
    if (!readParams(r, params))
        return nullptr;
    model->refreshReferenceEncodings();
    model->trained_ = true;
    return model;
}

} // namespace hwpr::core
