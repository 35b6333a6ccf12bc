#include "core/surrogate.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "common/logging.h"
#include "common/obs.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "core/dominance.h"
#include "core/hwprnas.h"
#include "core/scalable.h"
#include "nn/quant.h"

namespace hwpr::core
{

struct RankState
{
    explicit RankState(std::size_t trunks) : caches(trunks) {}

    std::vector<EncodingCache> caches;
    std::vector<nn::QuantizedMlp> heads;
};

const Matrix &
ChunkPass::encode(std::size_t t) const
{
    const ArchEncoder &trunk = *model_.trunks_[t];
    if (!rank_)
        return trunk.encodeBatchInto(archs, scratch);
    EncodingCache &cache = rank_->caches[t];
    Matrix &enc = scratch.acquire(archs.size(), cache.width());
    gatherEncodings(trunk, archs, cache, scratch, enc);
    return enc;
}

void
ChunkPass::head(std::size_t h, const Matrix &in, Matrix &out) const
{
    if (rank_)
        rank_->heads[h].predictBatchInto(in, scratch, out);
    else
        model_.heads_[h]->predictBatchInto(in, scratch, out);
}

TrunkHeads::TrunkHeads() = default;
TrunkHeads::~TrunkHeads() = default;

void
TrunkHeads::declare(std::vector<const ArchEncoder *> trunks,
                    std::vector<const nn::Mlp *> heads)
{
    trunks_ = std::move(trunks);
    heads_ = std::move(heads);
}

void
TrunkHeads::invalidate()
{
    rank_.reset();
}

const Matrix &
TrunkHeads::run(const char *family, bool rank,
                std::span<const nasbench::Architecture> archs,
                BatchPlan &plan, std::size_t cols,
                const ChunkBody &body) const
{
    Matrix &out = plan.prepare(archs.size(), cols);
    RankState *state = nullptr;
    if (rank)
        state = &rank_.get([this] {
            auto frozen = std::make_unique<RankState>(trunks_.size());
            for (std::size_t t = 0; t < trunks_.size(); ++t)
                frozen->caches[t].init(trunks_[t]->dim());
            frozen->heads.reserve(heads_.size());
            for (const nn::Mlp *h : heads_)
                frozen->heads.emplace_back(*h);
            return frozen;
        });
    // The chunk lambda captures one reference, which std::function
    // stores inline: no allocation per pass.
    const struct
    {
        const TrunkHeads *model;
        RankState *rank;
        std::span<const nasbench::Architecture> archs;
        Matrix *out;
        const ChunkBody *body;
    } pass{this, state, archs, &out, &body};
    plan.forEachChunk(
        family, [&pass](nn::PredictScratch &s, std::size_t i0,
                        std::size_t i1) {
            (*pass.body)(ChunkPass(pass.archs.subspan(i0, i1 - i0), i0,
                                   s, *pass.model, pass.rank),
                         *pass.out);
        });
    return out;
}

Surrogate::Surrogate(std::string family)
    : family_(std::move(family)), rankLabel_(family_ + "_rank")
{
}

std::size_t
Surrogate::outputCols() const
{
    return evalKind() == search::EvalKind::ParetoScore ? 1
                                                       : numObjectives();
}

const Matrix &
Surrogate::predictBatch(std::span<const nasbench::Architecture> archs,
                        BatchPlan &plan) const
{
    if (archs.empty()) // no-op contract: no weights touched
        return plan.prepare(0, outputCols());
    HWPR_CHECK(trained(), "prediction before train()");
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
    return model_.run(family_.c_str(), false, archs, plan, outputCols(),
                      [this](const ChunkPass &pass, Matrix &out) {
                          chunk(pass, out);
                      });
}

const Matrix &
Surrogate::rankBatch(std::span<const nasbench::Architecture> archs,
                     BatchPlan &plan) const
{
    if (archs.empty())
        return plan.prepare(0, outputCols());
    HWPR_CHECK(trained(), "prediction before train()");
    return model_.run(rankLabel_.c_str(), true, archs, plan,
                      outputCols(),
                      [this](const ChunkPass &pass, Matrix &out) {
                          chunk(pass, out);
                      });
}

Matrix
Surrogate::predict(std::span<const nasbench::Architecture> archs) const
{
    BatchPlan plan;
    predictBatch(archs, plan);
    return std::move(plan.output());
}

SurrogateEvaluator::SurrogateEvaluator(const Surrogate &model,
                                       double sim_seconds_per_eval)
    : model_(model), simSecondsPerEval_(sim_seconds_per_eval)
{
}

const Matrix &
SurrogateEvaluator::rankPredict(
    const std::vector<nasbench::Architecture> &archs)
{
    if (obs::metricsEnabled()) {
        static obs::Counter &rank_rows =
            obs::Registry::global().counter("predict.rank_only");
        rank_rows.add(archs.size());

        // One-shot self-check: the first rank-only batch also runs
        // the fp64 path and gauges the observed Kendall tau per
        // family, so a drifting quantization shows up on the metrics
        // surface of any long-running consumer (search, serve).
        if (!tauSelfChecked_ && archs.size() >= 2) {
            tauSelfChecked_ = true;
            BatchPlan ref_plan;
            const Matrix &ref =
                model_.predictBatch(archs, ref_plan);
            const Matrix &q = model_.rankBatch(archs, plan_);
            double min_tau = 1.0;
            std::vector<double> a(q.rows()), b(q.rows());
            for (std::size_t j = 0; j < q.cols(); ++j) {
                for (std::size_t i = 0; i < q.rows(); ++i) {
                    a[i] = ref(i, j);
                    b[i] = q(i, j);
                }
                min_tau = std::min(min_tau, kendallTau(a, b));
            }
            obs::Registry::global()
                .gauge("predict.tau_int8." + model_.familyLabel())
                .set(min_tau);
            return q;
        }
    }
    return model_.rankBatch(archs, plan_);
}

std::vector<double>
SurrogateEvaluator::predictedDominanceCounts(
    const std::vector<nasbench::Architecture> &archs)
{
    return model_.dominanceCounts(archs, countPlan_);
}

std::vector<pareto::Point>
SurrogateEvaluator::evaluate(
    const std::vector<nasbench::Architecture> &archs)
{
    std::vector<pareto::Point> out;
    out.reserve(archs.size());
    const Matrix &pred = rankOnly_
                             ? rankPredict(archs)
                             : model_.predictBatch(archs, plan_);
    for (std::size_t i = 0; i < pred.rows(); ++i) {
        pareto::Point p(pred.cols(), 0.0);
        for (std::size_t j = 0; j < pred.cols(); ++j)
            p[j] = pred(i, j);
        out.push_back(std::move(p));
    }
    return out;
}

namespace
{

std::mutex &
loaderMutex()
{
    static std::mutex m;
    return m;
}

std::map<std::string, SurrogateLoader> &
loaderRegistry()
{
    static std::map<std::string, SurrogateLoader> registry;
    return registry;
}

} // namespace

void
registerSurrogateLoader(const std::string &kind, SurrogateLoader loader)
{
    std::lock_guard<std::mutex> lock(loaderMutex());
    loaderRegistry()[kind] = std::move(loader);
}

std::unique_ptr<Surrogate>
loadSurrogate(const std::string &path)
{
    const std::string kind = checkpointKind(path);
    if (kind.empty())
        return nullptr; // missing, corrupt or not a checkpoint
    if (kind == "hwprnas")
        return HwPrNas::load(path);
    if (kind == "hwpr-scalable")
        return ScalableHwPrNas::load(path);
    if (kind == "dominance")
        return DominanceSurrogate::load(path);

    SurrogateLoader loader;
    {
        std::lock_guard<std::mutex> lock(loaderMutex());
        auto it = loaderRegistry().find(kind);
        if (it == loaderRegistry().end())
            return nullptr;
        loader = it->second;
    }
    return loader(path);
}

} // namespace hwpr::core
