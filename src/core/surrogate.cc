#include "core/surrogate.h"

#include <map>
#include <mutex>

#include "common/logging.h"
#include "common/obs.h"
#include "common/serialize.h"
#include "core/dominance.h"
#include "core/hwprnas.h"
#include "core/scalable.h"

namespace hwpr::core
{

const Matrix &
ChunkPass::encode(std::size_t t) const
{
    const ArchEncoder &trunk = *model_.trunks_[t];
    if (!rank_)
        return trunk.encodeBatchInto(archs, scratch);
    EncodingCache &cache = model_.caches_[t];
    Matrix &enc = scratch.acquire(archs.size(), cache.width());
    gatherEncodings(trunk, archs, cache, scratch, enc);
    return enc;
}

void
ChunkPass::head(std::size_t h, const Matrix &in, Matrix &out) const
{
    model_.heads_[h]->predictBatchInto(in, scratch, out);
}

void
TrunkHeads::declare(std::vector<const ArchEncoder *> trunks,
                    std::vector<const nn::Mlp *> heads)
{
    trunks_ = std::move(trunks);
    heads_ = std::move(heads);
    caches_ = std::vector<EncodingCache>(trunks_.size());
    invalidate();
}

void
TrunkHeads::invalidate()
{
    for (std::size_t t = 0; t < trunks_.size(); ++t)
        caches_[t].init(trunks_[t]->dim());
}

const Matrix &
TrunkHeads::run(const char *family, bool rank,
                std::span<const nasbench::Architecture> archs,
                BatchPlan &plan, std::size_t cols,
                const ChunkBody &body) const
{
    Matrix &out = plan.prepare(archs.size(), cols);
    // The chunk lambda captures one reference, which std::function
    // stores inline: no allocation per pass.
    const struct
    {
        const TrunkHeads *model;
        bool rank;
        std::span<const nasbench::Architecture> archs;
        Matrix *out;
        const ChunkBody *body;
    } pass{this, rank, archs, &out, &body};
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
    if (rankOnly_ && obs::metricsEnabled()) {
        static obs::Counter &rank_rows =
            obs::Registry::global().counter("predict.rank_only");
        rank_rows.add(archs.size());
    }
    std::vector<pareto::Point> out;
    out.reserve(archs.size());
    const Matrix &pred = rankOnly_ ? model_.rankBatch(archs, plan_)
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
    std::string body;
    if (!readVerified(path, body))
        return nullptr; // missing or corrupt
    const std::string kind = checkpointKindOf(body);
    if (kind == "hwprnas")
        return HwPrNas::fromVerified(body);
    if (kind == "hwpr-scalable")
        return ScalableHwPrNas::fromVerified(body);
    if (kind == "dominance")
        return DominanceSurrogate::fromVerified(body);

    SurrogateLoader loader;
    {
        std::lock_guard<std::mutex> lock(loaderMutex());
        auto it = loaderRegistry().find(kind);
        if (it == loaderRegistry().end())
            return nullptr;
        loader = it->second;
    }
    return loader(body);
}

} // namespace hwpr::core
