/**
 * @file
 * Shared training utilities: target standardization, mini-batch index
 * generation, and parameter snapshot/restore for early stopping.
 */

#ifndef HWPR_CORE_TRAIN_UTIL_H
#define HWPR_CORE_TRAIN_UTIL_H

#include <cstddef>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "nn/tensor.h"

namespace hwpr::core
{

/** Standardizes a scalar target to zero mean / unit variance. */
struct TargetScaler
{
    double mu = 0.0;
    double sigma = 1.0;

    static TargetScaler fit(const std::vector<double> &y);

    double norm(double v) const { return (v - mu) / sigma; }
    double denorm(double v) const { return v * sigma + mu; }

    std::vector<double> normAll(const std::vector<double> &y) const;
    std::vector<double> denormAll(const std::vector<double> &y) const;
};

/** Shuffled mini-batch index lists covering [0, n). */
std::vector<std::vector<std::size_t>>
makeBatches(std::size_t n, std::size_t batch_size, Rng &rng);

/**
 * Whether the fit-time fast path (the encoding cache) is enabled. On
 * by default; it is bit-identical to the plain path, and the
 * reproducibility tests toggle it off to assert exactly that.
 */
bool trainFastPath();
/** Enable/disable the fit-time fast path (process-wide). */
void setTrainFastPath(bool enabled);

/** Copy current parameter values (for best-epoch restore). */
std::vector<Matrix> snapshotParams(const std::vector<nn::Tensor> &params);

/** Restore parameter values from a snapshot. */
void restoreParams(const std::vector<nn::Tensor> &params,
                   const std::vector<Matrix> &snapshot);

} // namespace hwpr::core

#endif // HWPR_CORE_TRAIN_UTIL_H
