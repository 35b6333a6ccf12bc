#include "core/train_util.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/obs.h"
#include "common/stats.h"
#include "search/evaluator.h"

namespace hwpr::core
{

TargetScaler
TargetScaler::fit(const std::vector<double> &y)
{
    HWPR_CHECK(!y.empty(), "cannot fit a target scaler on no data");
    TargetScaler s;
    s.mu = mean(y);
    s.sigma = stddev(y);
    if (s.sigma < 1e-9)
        s.sigma = 1.0;
    return s;
}

std::vector<double>
TargetScaler::normAll(const std::vector<double> &y) const
{
    std::vector<double> out(y.size());
    for (std::size_t i = 0; i < y.size(); ++i)
        out[i] = norm(y[i]);
    return out;
}

std::size_t
batchCount(std::size_t n, std::size_t batch_size)
{
    HWPR_CHECK(batch_size > 0, "batch size must be positive");
    if (n == 0)
        return 0;
    // At batch size 1 every batch after the first is a lone item.
    if (batch_size == 1)
        return 1;
    return std::max<std::size_t>(
        1, n / batch_size + (n % batch_size >= 2 ? 1 : 0));
}

std::vector<std::vector<std::size_t>>
makeBatches(std::size_t n, std::size_t batch_size, Rng &rng)
{
    const std::size_t count = batchCount(n, batch_size);
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    rng.shuffle(order);
    std::vector<std::vector<std::size_t>> batches;
    batches.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
        const std::size_t start = k * batch_size;
        batches.emplace_back(order.begin() + start,
                             order.begin() +
                                 std::min(n, start + batch_size));
    }
    return batches;
}

std::vector<Matrix>
snapshotParams(const std::vector<nn::Tensor> &params)
{
    std::vector<Matrix> out;
    out.reserve(params.size());
    for (const auto &p : params)
        out.push_back(p.value());
    return out;
}

void
restoreParams(const std::vector<nn::Tensor> &params,
              const std::vector<Matrix> &snapshot)
{
    HWPR_CHECK(params.size() == snapshot.size(),
               "snapshot size mismatch");
    for (std::size_t i = 0; i < params.size(); ++i) {
        auto p = params[i];
        p.valueMut() = snapshot[i];
    }
}

std::vector<pareto::Point>
objectivePoints(const std::vector<const nasbench::ArchRecord *> &recs,
                hw::PlatformId platform, bool with_energy)
{
    std::vector<pareto::Point> out;
    out.reserve(recs.size());
    for (const auto *rec : recs)
        out.push_back(search::trueObjectives(*rec, platform, with_energy));
    return out;
}

std::vector<int>
batchRanks(const std::vector<pareto::Point> &points,
           const std::vector<std::size_t> &rows)
{
    return pareto::paretoRanks(gather(points, rows));
}

FitLoop::FitLoop(std::vector<nn::Tensor> params, std::size_t items,
                 double lr, std::size_t batch_size, Rng &rng,
                 double weight_decay)
    : params_(std::move(params)), items_(items), lr_(lr),
      batchSize_(batch_size), rng_(rng),
      opt_(params_, lr, weight_decay)
{
    HWPR_CHECK(batch_size > 0, "batch size must be positive");
}

double
FitLoop::runEpoch(const BatchLoss &loss,
                  const nn::CosineAnnealing *schedule)
{
    double last = 0.0;
    for (const auto &batch : makeBatches(items_, batchSize_, rng_)) {
        if (schedule)
            opt_.setLearningRate(schedule->at(step_++));
        opt_.zeroGrad();
        const nn::Tensor l = loss(batch);
        nn::backward(l);
        opt_.step();
        last = l.value()(0, 0);
    }
    return last;
}

std::vector<double>
FitLoop::fit(const FitNames &names, std::size_t epochs,
             std::size_t patience, const BatchLoss &loss,
             const std::function<double()> &val_loss,
             const std::function<void()> &epoch_start)
{
    const nn::CosineAnnealing schedule(
        lr_, epochs * std::max<std::size_t>(
                          1, batchCount(items_, batchSize_)));
    // Observability only reads the clock and computed values; it
    // never touches the Rng or the iteration order.
    obs::Registry &registry = obs::Registry::global();
    obs::Histogram &epoch_us = registry.histogram(names.epochUs);
    obs::Counter &early_stop = registry.counter(names.earlyStop);

    std::vector<double> history;
    double best = 1e300;
    std::size_t since_best = 0;
    std::vector<Matrix> best_params = snapshotParams(params_);
    for (std::size_t e = 0; e < epochs; ++e) {
        obs::Span span(names.epochSpan, {{"epoch", double(e)}});
        obs::ScopedTimer timer(epoch_us);
        if (epoch_start)
            epoch_start();
        const double train_loss = runEpoch(loss, &schedule);
        const double v = val_loss();
        history.push_back(v);
        if (obs::metricsEnabled()) {
            if (names.trainLoss)
                registry.gauge(names.trainLoss).set(train_loss);
            registry.gauge(names.valLoss).set(v);
        }
        if (v < best - 1e-9) {
            best = v;
            since_best = 0;
            best_params = snapshotParams(params_);
        } else if (++since_best >= patience) {
            if (obs::metricsEnabled())
                early_stop.add();
            break;
        }
    }
    restoreParams(params_, best_params);
    return history;
}

} // namespace hwpr::core
