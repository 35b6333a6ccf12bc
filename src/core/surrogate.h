/**
 * @file
 * Unified batched surrogate interface.
 *
 * Every surrogate family in the repo — HW-PR-NAS, the scalable
 * variant, the dominance classifier, BRP-NAS, GATES and the LUT
 * latency estimator — implements `Surrogate`: fit once on oracle
 * records, then answer whole batches of architectures at a time.
 *
 * Each model is encoder trunks (`ArchEncoder`s) feeding MLP heads. A
 * family declares both lists once, when the model is built or loaded,
 * and writes one chunk body that encodes trunks and applies heads
 * through a `ChunkPass`. The base class owns everything else: the
 * inference contract (empty-batch no-op, trained check, output shape,
 * predict instrumentation) and the chunk loop of both predictBatch()
 * and rankBatch(). Both passes run the declared heads in fp64; the
 * rank pass serves trunk rows from one `EncodingCache` per trunk,
 * which every training call clears, so rankBatch() returns
 * predictBatch()'s bits faster on architectures it has seen. Chunks
 * fan out over the ExecContext thread pool; their boundaries depend
 * only on the batch size, so results are bit-identical at every
 * thread count.
 *
 * `SurrogateEvaluator` adapts a fitted surrogate to the search layer's
 * `search::Evaluator` so MOEA / random search can consume populations
 * directly. (It lives here rather than in search/ because search/ is
 * below core/ in the link order.)
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
#include "core/encoding.h"
#include "core/rank_cache.h"
#include "hw/platform.h"
#include "nasbench/dataset.h"
#include "nn/layers.h"
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

class TrunkHeads;

/**
 * One chunk of a predict or rank pass, as a chunk body sees it. The
 * body encodes trunks and applies heads through encode() and head().
 * Heads always run Mlp::predictBatchInto; encode() runs
 * encodeBatchInto on a predict pass and gatherEncodings over the
 * trunk's EncodingCache on a rank pass. Both yield the same bits, so
 * a body that works through them cannot tell which pass is running.
 */
class ChunkPass
{
  public:
    /** The chunk's architectures; archs[i] fills output row row0 + i. */
    const std::span<const nasbench::Architecture> archs;
    const std::size_t row0;
    /** The chunk slot's scratch, reset for this chunk. */
    nn::PredictScratch &scratch;

    /** An (archs.size() x cols) scratch buffer; contents are stale. */
    Matrix &
    buffer(std::size_t cols) const
    {
        return scratch.acquire(archs.size(), cols);
    }

    /** Rows of declared trunk @p t for archs (scratch memory). */
    const Matrix &encode(std::size_t t) const;

    /** Declared head @p h over @p in, into @p out (rows x outDim). */
    void head(std::size_t h, const Matrix &in, Matrix &out) const;

    /** Whether this is a rank pass. Only the LUT's own memo asks. */
    bool ranking() const { return rank_; }

  private:
    friend class TrunkHeads;
    ChunkPass(std::span<const nasbench::Architecture> chunk,
              std::size_t first_row, nn::PredictScratch &s,
              const TrunkHeads &model, bool rank)
        : archs(chunk), row0(first_row), scratch(s), model_(model),
          rank_(rank)
    {
    }

    const TrunkHeads &model_;
    bool rank_;
};

/** A chunk body: fill rows pass.row0.. of the pass output. */
using ChunkBody = std::function<void(const ChunkPass &, Matrix &)>;

/**
 * The encoder trunks and MLP heads of a model, declared once when it
 * is built or loaded, the rank pass's EncodingCache per trunk, and the
 * passes over them.
 */
class TrunkHeads
{
  public:
    /**
     * Declare the trunks and heads; chunk bodies address them by
     * index. The pointees must outlive every pass. Gives each trunk
     * an empty cache of its width.
     */
    void declare(std::vector<const ArchEncoder *> trunks,
                 std::vector<const nn::Mlp *> heads);

    /**
     * Clear the encoding caches. Every training call ends so, since
     * the trunk weights may have changed; it must not race a pass.
     */
    void invalidate();

    /**
     * Prepare @p plan's (archs.size() x cols) output and run @p body
     * on every chunk under the forEachChunk family @p family. With
     * @p rank the chunks encode through the caches. Returns the
     * output.
     */
    const Matrix &run(const char *family, bool rank,
                      std::span<const nasbench::Architecture> archs,
                      BatchPlan &plan, std::size_t cols,
                      const ChunkBody &body) const;

  private:
    friend class ChunkPass;
    std::vector<const ArchEncoder *> trunks_;
    std::vector<const nn::Mlp *> heads_;
    /** Filled by const rank passes; each cache locks itself. */
    mutable std::vector<EncodingCache> caches_;
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
     * predictBatch() through the encoding caches: the same bits, with
     * trunk rows of architectures seen since the last training call
     * copied rather than re-encoded (see DESIGN.md "Rank path").
     * Uninstrumented; runs as the "<familyLabel>_rank" chunk family.
     */
    const Matrix &
    rankBatch(std::span<const nasbench::Architecture> archs,
              BatchPlan &plan) const;

    /** One-shot predictBatch() through a local plan. */
    Matrix predict(std::span<const nasbench::Architecture> archs) const;

    /**
     * Short stable identifier used in metrics keys, e.g.
     * "predict.ops_per_s.<familyLabel>". It is the predict pass's
     * forEachChunk family ("hwprnas", "scalable", "brpnas", "gates",
     * "lut", "dominance"); the rank pass runs as "<label>_rank".
     */
    const std::string &familyLabel() const { return family_; }

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
    /** @p family: familyLabel() and the chunk family of its passes. */
    explicit Surrogate(std::string family);

    /** Declare the model's trunks and heads (build and load time). */
    void
    declareModel(std::vector<const ArchEncoder *> trunks,
                 std::vector<const nn::Mlp *> heads)
    {
        model_.declare(std::move(trunks), std::move(heads));
    }

    /** Clear the rank caches; every training call ends so. */
    void invalidateRank() { model_.invalidate(); }

    /**
     * The family's chunk body of predictBatch() and rankBatch(): fill
     * rows pass.row0.. of @p out (n x outputCols()) for a non-empty
     * batch of a trained model.
     */
    virtual void chunk(const ChunkPass &pass, Matrix &out) const = 0;

    /**
     * An uninstrumented fp64 pass of another body over the declared
     * model, under the predict family: (archs.size() x cols) on
     * @p plan.
     */
    const Matrix &
    predictPass(std::span<const nasbench::Architecture> archs,
                BatchPlan &plan, std::size_t cols,
                const ChunkBody &body) const
    {
        return model_.run(family_.c_str(), false, archs, plan, cols,
                          body);
    }

  private:
    std::string family_;
    std::string rankLabel_;
    TrunkHeads model_;
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
    /** Starts in fp64 mode; setRankOnly() switches to the rank path. */
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
     * Route evaluations through Surrogate::rankBatch instead of
     * predictBatch: the same scores, through the encoding caches.
     * Each rank-only row bumps the "predict.rank_only" counter.
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
};

/**
 * Factory restoring one surrogate family from a checkpoint body that
 * readVerified() returned. Returns nullptr on mismatch.
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
 * The file is read and its CRC footer verified once; the verified
 * body's header kind picks the loader that parses it (HW-PR-NAS, the
 * scalable variant and the dominance classifier are built in; other
 * families come from registerSurrogateLoader). Returns nullptr when
 * the file is corrupt or the kind unknown.
 */
std::unique_ptr<Surrogate> loadSurrogate(const std::string &path);

} // namespace hwpr::core

#endif // HWPR_CORE_SURROGATE_H
