#include "nn/loss.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace hwpr::nn
{

namespace
{

/** Build an op node directly (losses use custom backward closures). */
Tensor
makeScalarOp(double value, TensorNodePtr parent,
             std::function<void(TensorNode &)> backward_fn,
             const char *name)
{
    auto node = std::make_shared<TensorNode>();
    node->value = Matrix(1, 1);
    node->value(0, 0) = value;
    node->parents = {std::move(parent)};
    node->name = name;
    node->requiresGrad = node->parents[0]->requiresGrad;
    if (node->requiresGrad)
        node->backward = std::move(backward_fn);
    return Tensor(node);
}

} // namespace

Tensor
mseLoss(const Tensor &pred, const std::vector<double> &target)
{
    HWPR_CHECK(pred.cols() == 1 && pred.rows() == target.size(),
               "mseLoss expects (n x 1) predictions matching targets");
    const std::size_t n = target.size();
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = pred.value()(i, 0) - target[i];
        acc += d * d;
    }
    return makeScalarOp(
        acc / double(n), pred.node(),
        [target](TensorNode &self) {
            auto &p = self.parents[0];
            p->ensureGrad();
            const double g = self.grad(0, 0);
            const double inv = 2.0 / double(target.size());
            for (std::size_t i = 0; i < target.size(); ++i)
                p->grad(i, 0) +=
                    g * inv * (p->value(i, 0) - target[i]);
        },
        "mse");
}

Tensor
pairwiseHingeLoss(const Tensor &scores, const std::vector<double> &target,
                  double margin)
{
    HWPR_CHECK(scores.cols() == 1 && scores.rows() == target.size(),
               "pairwiseHingeLoss expects (n x 1) scores");
    const std::size_t n = target.size();
    // Active pairs: target[i] > target[j] and the margin is violated.
    double acc = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (target[i] <= target[j])
                continue;
            ++pairs;
            const double v = margin - (scores.value()(i, 0) -
                                       scores.value()(j, 0));
            if (v > 0.0)
                acc += v;
        }
    }
    const double inv = pairs > 0 ? 1.0 / double(pairs) : 0.0;
    return makeScalarOp(
        acc * inv, scores.node(),
        [target, margin, inv](TensorNode &self) {
            auto &p = self.parents[0];
            p->ensureGrad();
            const double g = self.grad(0, 0) * inv;
            const std::size_t n = target.size();
            for (std::size_t i = 0; i < n; ++i) {
                for (std::size_t j = 0; j < n; ++j) {
                    if (target[i] <= target[j])
                        continue;
                    const double v =
                        margin - (p->value(i, 0) - p->value(j, 0));
                    if (v > 0.0) {
                        p->grad(i, 0) -= g;
                        p->grad(j, 0) += g;
                    }
                }
            }
        },
        "hinge");
}

Tensor
listMleParetoLoss(const Tensor &scores,
                  const std::vector<int> &pareto_ranks)
{
    HWPR_CHECK(scores.cols() == 1 &&
                   scores.rows() == pareto_ranks.size(),
               "listMleParetoLoss expects (n x 1) scores");
    const std::size_t n = pareto_ranks.size();
    HWPR_CHECK(n > 0, "empty batch in listMleParetoLoss");

    // Permutation: dominant architectures (rank 1) first. Stable sort
    // keeps the caller's tie order.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return pareto_ranks[a] < pareto_ranks[b];
                     });

    // The loss is shift-invariant; subtract the max for stability.
    std::vector<double> s(n);
    double smax = -1e300;
    for (std::size_t i = 0; i < n; ++i) {
        s[i] = scores.value()(order[i], 0);
        smax = std::max(smax, s[i]);
    }
    for (double &v : s)
        v -= smax;

    // Suffix log-sum-exp: lse[i] = log sum_{j >= i} exp(s[j]).
    std::vector<double> lse(n);
    double run = s[n - 1];
    lse[n - 1] = run;
    for (std::size_t i = n - 1; i-- > 0;) {
        const double hi = std::max(run, s[i]);
        run = hi + std::log(std::exp(run - hi) + std::exp(s[i] - hi));
        lse[i] = run;
    }

    double loss = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        loss += -s[i] + lse[i];
    loss /= double(n);

    return makeScalarOp(
        loss, scores.node(),
        [order, s, lse, n](TensorNode &self) {
            auto &p = self.parents[0];
            p->ensureGrad();
            const double g = self.grad(0, 0) / double(n);
            // d/ds_k = -1 + sum_{i <= k} exp(s_k - lse_i). Each term
            // satisfies s_k <= lse_i (s_k is part of suffix i), so
            // every exponent is <= 0 and the per-term form is stable
            // for arbitrarily large score magnitudes.
            for (std::size_t k = 0; k < n; ++k) {
                double grad_k = -1.0;
                for (std::size_t i = 0; i <= k; ++i)
                    grad_k += std::exp(s[k] - lse[i]);
                p->grad(order[k], 0) += g * grad_k;
            }
        },
        "listmle");
}

Tensor
bceWithLogitsLoss(const Tensor &logits,
                  const std::vector<double> &target)
{
    HWPR_CHECK(logits.cols() == 1 && logits.rows() == target.size(),
               "bceWithLogitsLoss expects (n x 1) logits matching "
               "targets");
    const std::size_t n = target.size();
    HWPR_CHECK(n > 0, "empty batch in bceWithLogitsLoss");
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double z = logits.value()(i, 0);
        acc += std::max(z, 0.0) - z * target[i] +
               std::log1p(std::exp(-std::abs(z)));
    }
    return makeScalarOp(
        acc / double(n), logits.node(),
        [target](TensorNode &self) {
            auto &p = self.parents[0];
            p->ensureGrad();
            const double g =
                self.grad(0, 0) / double(target.size());
            for (std::size_t i = 0; i < target.size(); ++i) {
                const double z = p->value(i, 0);
                const double sig = 1.0 / (1.0 + std::exp(-z));
                p->grad(i, 0) += g * (sig - target[i]);
            }
        },
        "bce");
}

} // namespace hwpr::nn
