/**
 * @file
 * Unified batched surrogate interface.
 *
 * Every surrogate family in the repo — HW-PR-NAS, the scalable
 * variant, the dominance classifier, BRP-NAS, GATES and the LUT
 * latency estimator — implements `Surrogate`: fit once on oracle
 * records, then answer whole batches of architectures at a time. The
 * base class owns the inference contract (empty-batch no-op, trained
 * check, output shape, predict instrumentation) in predictBatch() /
 * rankBatch(); a family supplies only the per-chunk hooks behind them.
 * Each hook runs one matrix-level forward per chunk (no autodiff
 * recording) and fans the chunks out over the ExecContext thread
 * pool. Chunk boundaries depend only on the batch size, so results
 * are bit-identical at every thread count.
 *
 * `SurrogateEvaluator` adapts a fitted surrogate to the search layer's
 * `search::Evaluator` so MOEA / random search can consume populations
 * directly. (It lives here rather than in search/ because search/ is
 * below core/ in the link order; the function-based adapters in
 * search/surrogate_evaluator.h remain for ad-hoc callables.)
 */

#ifndef HWPR_CORE_SURROGATE_H
#define HWPR_CORE_SURROGATE_H

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/threadpool.h"
#include "core/batch_plan.h"
#include "hw/platform.h"
#include "nasbench/dataset.h"
#include "search/evaluator.h"

namespace hwpr::core
{

/** Training data handed to Surrogate::fit. */
struct SurrogateDataset
{
    std::vector<const nasbench::ArchRecord *> train;
    std::vector<const nasbench::ArchRecord *> val;
    hw::PlatformId platform = hw::PlatformId::EdgeGpu;
};

/**
 * Abstract batched surrogate. Scores follow the search convention:
 * higher = more Pareto-dominant. Objectives are minimization values,
 * one row per architecture.
 */
class Surrogate
{
  public:
    virtual ~Surrogate() = default;

    /** Display name (matches the paper's method names). */
    virtual std::string name() const = 0;

    /** How the search should consume this surrogate. */
    virtual search::EvalKind evalKind() const = 0;

    /** Objectives the model predicts or ranks over. */
    virtual std::size_t numObjectives() const { return 2; }

    /**
     * Columns of predictBatch()/rankBatch(): one score for
     * ParetoScore families, numObjectives() minimization columns
     * otherwise.
     */
    std::size_t outputCols() const;

    /**
     * Fit on oracle records. @p ctx supplies the RNG seed (model
     * randomness is reseeded from it, so two fits with the same seed
     * are identical) and the thread pool used for batched linear
     * algebra during training and prediction.
     */
    virtual void fit(const SurrogateDataset &data, ExecContext &ctx) = 0;

    /** Whether the model can predict (fitted or loaded). */
    virtual bool trained() const = 0;

    /**
     * Fused batched prediction against a caller-held BatchPlan: one
     * encode+predict pass over recycled scratch, zero allocation once
     * the plan is warm. Returns the plan's (n x outputCols()) output.
     * An empty batch is a no-op that touches no weights; otherwise
     * the model must be trained. Opens the surrogate.predict_batch
     * span and records its .us histogram and .rows counter.
     */
    const Matrix &
    predictBatch(std::span<const nasbench::Architecture> archs,
                 BatchPlan &plan) const;

    /**
     * Rank-only batched prediction: same output shape and the same
     * *ordering* semantics as predictBatch, but values may be
     * computed on a cheaper, lower-precision path (int8 heads, frozen
     * encoder memoization). Callers that only compare rows —
     * environmental selection, tournament picks — can use this;
     * anything that reports absolute numbers must use predictBatch
     * (or re-score, see DESIGN.md "Quantized rank path"). Rank
     * agreement is gated at Kendall tau >= 0.98 vs fp64 in CI.
     */
    const Matrix &
    rankBatch(std::span<const nasbench::Architecture> archs,
              BatchPlan &plan) const;

    /** One-shot predictBatch() through a local plan. */
    Matrix predict(std::span<const nasbench::Architecture> archs) const;

    /**
     * Short stable identifier used in metrics keys, e.g.
     * "predict.tau_int8.<familyLabel>". Matches the forEachChunk
     * family strings ("hwprnas", "scalable", "brpnas", "gates",
     * "lut", "dominance").
     */
    virtual std::string familyLabel() const { return "surrogate"; }

    /**
     * Whether this family predicts *pairwise dominance* directly, so
     * dominanceCounts() is meaningful. Only the dominance classifier
     * (core::DominanceSurrogate) returns true; the score/objective
     * families have no pairwise head.
     */
    virtual bool supportsDominance() const { return false; }

    /**
     * Within-population predicted-dominance counts: out[i] = number
     * of members of @p archs the model predicts architecture i
     * dominates (higher = more dominant). Drives the
     * classification-wise MOEA survival selection (see
     * search::MoeaConfig::dominanceSelection). Default: empty —
     * callers must check supportsDominance() first.
     */
    virtual std::vector<double>
    dominanceCounts(std::span<const nasbench::Architecture> /*archs*/,
                    BatchPlan & /*plan*/) const
    {
        return {};
    }

    /**
     * Serialize to a binary checkpoint. Default: unsupported
     * (returns false without touching the filesystem).
     */
    virtual bool save(const std::string & /*path*/) const
    {
        return false;
    }

  protected:
    /**
     * Per-family predict hook: fill @p out (archs.size() x
     * outputCols(), prepared on @p plan) for a non-empty batch of a
     * trained model.
     */
    virtual void predictInto(std::span<const nasbench::Architecture> archs,
                             BatchPlan &plan, Matrix &out) const = 0;

    /** Rank hook, same contract; defaults to predictInto(). */
    virtual void rankInto(std::span<const nasbench::Architecture> archs,
                          BatchPlan &plan, Matrix &out) const
    {
        predictInto(archs, plan, out);
    }
};

/**
 * search::Evaluator over a fitted Surrogate. Score surrogates yield
 * single-element points (the Pareto score); vector surrogates yield
 * one minimization objective vector per architecture. The surrogate
 * must outlive the evaluator.
 */
class SurrogateEvaluator : public search::Evaluator
{
  public:
    /**
     * Rank-only mode starts from the HWPR_RANK_ONLY environment
     * variable (any value but "" / "0" enables it); setRankOnly()
     * overrides either way.
     */
    explicit SurrogateEvaluator(const Surrogate &model,
                                double sim_seconds_per_eval = 0.0);

    search::EvalKind kind() const override { return model_.evalKind(); }
    std::string name() const override { return model_.name(); }

    std::size_t numObjectives() const override
    {
        return model_.outputCols();
    }

    std::vector<pareto::Point>
    evaluate(const std::vector<nasbench::Architecture> &archs) override;

    double simulatedCostSeconds(std::size_t batch) const override
    {
        return simSecondsPerEval_ * double(batch);
    }

    /**
     * Route evaluations through Surrogate::rankBatch (the quantized
     * rank-only fast path) instead of predictBatch. Selection then
     * runs on approximate scores; any *reported* front must be
     * re-scored in fp64 (search::rescoreFitness does this, and
     * `hwpr search` applies it automatically).
     */
    void setRankOnly(bool on) { rankOnly_ = on; }
    bool rankOnly() const { return rankOnly_; }

    /** True when the wrapped surrogate has a pairwise head. */
    bool hasPredictedDominance() const override
    {
        return model_.supportsDominance();
    }

    /**
     * Predicted-dominance counts over one population, delegated to
     * Surrogate::dominanceCounts against a dedicated plan (merged
     * populations are roughly twice the evaluate() batch size, so
     * sharing the score plan would thrash its buffers).
     */
    std::vector<double> predictedDominanceCounts(
        const std::vector<nasbench::Architecture> &archs) override;

  private:
    /** rankBatch + rank_only counter + one-shot tau self-check. */
    const Matrix &
    rankPredict(const std::vector<nasbench::Architecture> &archs);

    const Surrogate &model_;
    /**
     * One plan per search, reused across generations: population
     * sizes are constant, so every generation's pass runs on the
     * buffers the first generation allocated.
     */
    BatchPlan plan_;
    /** Separate plan for dominance-count sweeps (merged-size batches). */
    BatchPlan countPlan_;
    double simSecondsPerEval_;
    bool rankOnly_ = false;
    /** First rank-only batch also runs fp64 and gauges the tau. */
    bool tauSelfChecked_ = false;
};

/**
 * Factory restoring one surrogate family from a checkpoint path.
 * Returns nullptr on corruption or mismatch.
 */
using SurrogateLoader =
    std::function<std::unique_ptr<Surrogate>(const std::string &)>;

/**
 * Register a loader for a checkpoint kind (the string written by
 * writeHeader). Layers above core — the baselines library cannot be
 * linked from here — register their formats through this hook; see
 * baselines::registerBaselineLoaders(). Re-registering a kind
 * replaces the previous loader. Thread-safe.
 */
void registerSurrogateLoader(const std::string &kind,
                             SurrogateLoader loader);

/**
 * Restore a surrogate from a checkpoint written by Surrogate::save.
 * The file's CRC footer is verified and its header kind dispatched to
 * the matching loader (HW-PR-NAS and the scalable variant are built
 * in; other families come from registerSurrogateLoader). Returns
 * nullptr when the file is corrupt or the kind unknown.
 */
std::unique_ptr<Surrogate> loadSurrogate(const std::string &path);

} // namespace hwpr::core

#endif // HWPR_CORE_SURROGATE_H
