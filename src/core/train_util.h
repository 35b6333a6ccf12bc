/**
 * @file
 * Shared training utilities: target standardization, mini-batch index
 * generation, parameter snapshot/restore, and the one fit loop every
 * neural surrogate family trains through.
 */

#ifndef HWPR_CORE_TRAIN_UTIL_H
#define HWPR_CORE_TRAIN_UTIL_H

#include <cstddef>
#include <functional>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "hw/platform.h"
#include "nasbench/dataset.h"
#include "nn/optim.h"
#include "nn/tensor.h"
#include "pareto/pareto.h"

namespace hwpr::core
{

/** Table II: AdamW's decoupled weight decay (L2 0.0003). */
inline constexpr double kWeightDecay = 3e-4;
/** Table II: dropout of every trained head's hidden layers. */
inline constexpr double kDropout = 0.02;

/** Standardizes a scalar target to zero mean / unit variance. */
struct TargetScaler
{
    double mu = 0.0;
    double sigma = 1.0;

    static TargetScaler fit(const std::vector<double> &y);

    double norm(double v) const { return (v - mu) / sigma; }
    double denorm(double v) const { return v * sigma + mu; }

    std::vector<double> normAll(const std::vector<double> &y) const;
};

/**
 * Number of batches makeBatches() yields for @p n items: full batches
 * of @p batch_size, then the remainder, except that a batch of one
 * item runs only when it is the first (listwise losses need lists).
 */
std::size_t batchCount(std::size_t n, std::size_t batch_size);

/**
 * batchCount(n, batch_size) shuffled mini-batch index lists over
 * [0, n); a dropped lone trailing item sits out the epoch.
 */
std::vector<std::vector<std::size_t>>
makeBatches(std::size_t n, std::size_t batch_size, Rng &rng);

/** Copy current parameter values (for best-epoch restore). */
std::vector<Matrix> snapshotParams(const std::vector<nn::Tensor> &params);

/** Restore parameter values from a snapshot. */
void restoreParams(const std::vector<nn::Tensor> &params,
                   const std::vector<Matrix> &snapshot);

/** values[rows[0]], values[rows[1]], ... */
template <typename T>
std::vector<T>
gather(const std::vector<T> &values, const std::vector<std::size_t> &rows)
{
    std::vector<T> out;
    out.reserve(rows.size());
    for (std::size_t r : rows)
        out.push_back(values[r]);
    return out;
}

/** True objective points (search::trueObjectives) of @p recs. */
std::vector<pareto::Point>
objectivePoints(const std::vector<const nasbench::ArchRecord *> &recs,
                hw::PlatformId platform, bool with_energy = false);

/** Pareto ranks of the listed rows of precomputed objective points. */
std::vector<int> batchRanks(const std::vector<pareto::Point> &points,
                            const std::vector<std::size_t> &rows);

/**
 * Trace and metric names of one family's fit. Each is a string
 * literal: spans keep the pointer.
 */
struct FitNames
{
    const char *epochSpan;  ///< span around each epoch
    const char *epochUs;    ///< histogram of epoch wall-clock
    const char *valLoss;    ///< gauge: last validation loss
    const char *earlyStop;  ///< counter: fits ended by patience
    /** Gauge of the last batch loss of each epoch; null = none. */
    const char *trainLoss = nullptr;
};

/**
 * The training loop of every neural surrogate (Table II): AdamW with
 * decoupled decay over the given parameters, shuffled mini-batches of
 * item indices, and, in fit(), a cosine schedule, per-epoch
 * validation, early stopping on patience and best-epoch restore. A
 * family supplies the loss of a batch; the loop draws from @p rng
 * only for the shuffle, so every other draw (dropout masks, pair
 * resampling) stays in the family's own order.
 */
class FitLoop
{
  public:
    /** Training-mode loss of a batch of item indices in [0, items). */
    using BatchLoss =
        std::function<nn::Tensor(const std::vector<std::size_t> &)>;

    FitLoop(std::vector<nn::Tensor> params, std::size_t items,
            double lr, std::size_t batch_size, Rng &rng,
            double weight_decay = kWeightDecay);

    /**
     * One epoch of steps at a constant rate, with no validation and
     * no metrics: the fine-tunes that train one part on frozen inputs.
     */
    void epoch(const BatchLoss &loss) { runEpoch(loss, nullptr); }

    /**
     * Up to @p epochs epochs on a cosine schedule of epochs x
     * max(1, batchCount(items, batch)) steps, one per batch that runs,
     * so a fit that runs every epoch ends annealed. Each epoch runs
     * @p epoch_start (when set), the batches, then @p val_loss; an
     * epoch improves when its validation loss is below the best by
     * more than 1e-9, and the fit stops after @p patience epochs
     * without improvement. The best epoch's parameters are restored
     * at the end.
     * @return the validation loss of every epoch run.
     */
    std::vector<double> fit(const FitNames &names, std::size_t epochs,
                            std::size_t patience, const BatchLoss &loss,
                            const std::function<double()> &val_loss,
                            const std::function<void()> &epoch_start = {});

  private:
    /** The epoch's batches; returns the last batch's loss. */
    double runEpoch(const BatchLoss &loss,
                    const nn::CosineAnnealing *schedule);

    std::vector<nn::Tensor> params_;
    std::size_t items_;
    double lr_;
    std::size_t batchSize_;
    Rng &rng_;
    nn::AdamW opt_;
    std::size_t step_ = 0;
};

} // namespace hwpr::core

#endif // HWPR_CORE_TRAIN_UTIL_H
