#include "core/surrogate.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string_view>

#include "common/logging.h"
#include "common/obs.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "core/dominance.h"
#include "core/hwprnas.h"
#include "core/scalable.h"

namespace hwpr::core
{

namespace
{

/** HWPR_RANK_ONLY: any value but "" / "0" enables rank-only mode. */
bool
rankOnlyEnvEnabled()
{
    const char *v = std::getenv("HWPR_RANK_ONLY");
    return v != nullptr && *v != '\0' && std::string_view(v) != "0";
}

} // namespace

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
    Matrix &out = plan.prepare(archs.size(), outputCols());
    predictInto(archs, plan, out);
    return out;
}

const Matrix &
Surrogate::rankBatch(std::span<const nasbench::Architecture> archs,
                     BatchPlan &plan) const
{
    if (archs.empty())
        return plan.prepare(0, outputCols());
    HWPR_CHECK(trained(), "prediction before train()");
    Matrix &out = plan.prepare(archs.size(), outputCols());
    rankInto(archs, plan, out);
    return out;
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
    : model_(model), simSecondsPerEval_(sim_seconds_per_eval),
      rankOnly_(rankOnlyEnvEnabled())
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
