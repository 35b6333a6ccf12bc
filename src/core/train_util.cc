#include "core/train_util.h"

#include <cmath>

#include "common/logging.h"
#include "common/stats.h"

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

std::vector<double>
TargetScaler::denormAll(const std::vector<double> &y) const
{
    std::vector<double> out(y.size());
    for (std::size_t i = 0; i < y.size(); ++i)
        out[i] = denorm(y[i]);
    return out;
}

std::vector<std::vector<std::size_t>>
makeBatches(std::size_t n, std::size_t batch_size, Rng &rng)
{
    HWPR_CHECK(batch_size > 0, "batch size must be positive");
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    rng.shuffle(order);
    std::vector<std::vector<std::size_t>> batches;
    for (std::size_t start = 0; start < n; start += batch_size) {
        const std::size_t end = std::min(n, start + batch_size);
        // Drop tiny trailing batches: listwise losses need lists.
        if (end - start < 2 && !batches.empty())
            break;
        batches.emplace_back(order.begin() + start,
                             order.begin() + end);
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

} // namespace hwpr::core
