/**
 * @file
 * Dominance-classifier surrogate (ROADMAP item 2; SiamNAS / Ma et
 * al.'s Pareto-wise ranking classifier, see DESIGN.md "Dominance
 * surrogate").
 *
 * Instead of regressing a Pareto *score*, the model classifies
 * *pairs*: a shared encoder trunk (AF + LSTM + GCN, the scalable
 * model's encoding) embeds both architectures and a small MLP head
 * over the embedding difference e(a) - e(b) emits one logit,
 * sigmoid(logit) = P(a dominates b). Training labels are the O(n^2)
 * pairwise dominance relations pareto::dominates already induces on
 * the fitted dataset (dominanceLabel() below fixes the NaN
 * convention), optimized with the numerically stable
 * bceWithLogitsLoss.
 *
 * The scalar Surrogate contract is served by anchoring: a fixed,
 * deterministic reference subset of the training set is encoded once
 * at freeze time, and an architecture's score is its mean predicted
 * dominance probability over the anchors. Higher = dominates more of
 * the reference set = more Pareto-dominant, which is exactly the
 * ordering semantics score consumers (tournaments, elitist top-k)
 * expect. dominanceCounts() additionally exposes the classifier
 * directly for the dominance-guided MOEA variant: within one
 * population, each architecture's predicted-dominance count over the
 * others.
 */

#ifndef HWPR_CORE_DOMINANCE_H
#define HWPR_CORE_DOMINANCE_H

#include <memory>
#include <span>

#include "core/encoding.h"
#include "core/hwprnas.h"
#include "core/surrogate.h"
#include "nn/layers.h"
#include "pareto/pareto.h"

namespace hwpr::core
{

/**
 * Pairwise training target with the repo's NaN convention (see
 * pareto::paretoRanks): a point with any NaN objective sits on one
 * shared rank strictly worse than every finite point. Hence a finite
 * point dominates a NaN point, a NaN point dominates nothing (not
 * even another NaN point — they share a rank), and finite pairs
 * follow pareto::dominates exactly.
 */
bool dominanceLabel(const pareto::Point &a, const pareto::Point &b);

/** Model-shape configuration of the dominance classifier. */
struct DominanceConfig
{
    EncoderConfig encoder = EncoderConfig::fast();
    /** Hidden widths of the pairwise head MLP. */
    std::vector<std::size_t> headHidden = {64, 32};
    /**
     * Anchors of the scalar score: a deterministic (evenly strided)
     * subset of the training set, encoded once at freeze time.
     */
    std::size_t referenceSize = 64;
    /**
     * Cap on training pairs per epoch. Below the cap every ordered
     * pair is used each epoch (shuffled); above it, pairs are
     * resampled per epoch so cost stays linear in the cap while the
     * full O(n^2) label pool is still drawn from.
     */
    std::size_t maxPairsPerEpoch = 20000;
    /** Cap on the (deterministic, strided) validation pair set. */
    std::size_t maxValPairs = 4000;
};

/** Pairwise dominance-classifier surrogate. */
class DominanceSurrogate : public Surrogate
{
  public:
    DominanceSurrogate(const DominanceConfig &cfg,
                       nasbench::DatasetId dataset, std::uint64_t seed);

    // Surrogate interface -------------------------------------------

    std::string name() const override { return "Dominance Classifier"; }
    search::EvalKind evalKind() const override
    {
        return search::EvalKind::ParetoScore;
    }
    std::size_t numObjectives() const override { return 2; }

    /**
     * Reseed from @p ctx and train on the dataset with fitConfig().
     * Equal seeds (at any thread count) give identical models.
     */
    void fit(const SurrogateDataset &data, ExecContext &ctx) override;

    bool trained() const override { return trained_; }

    bool supportsDominance() const override { return true; }

    /**
     * Within-population predicted-dominance counts: out[i] = number
     * of j != i with sigmoid(head(e_i - e_j)) > 1/2, i.e. how many
     * members of @p archs the classifier predicts i dominates.
     * Encodes the population once, then fans the pair sweep out over
     * the plan's chunks; deterministic at any thread count.
     */
    std::vector<double>
    dominanceCounts(std::span<const nasbench::Architecture> archs,
                    BatchPlan &plan) const override;

    /** Training hyperparameters used by fit(). */
    void setFitConfig(const TrainConfig &cfg) { fitConfig_ = cfg; }
    const TrainConfig &fitConfig() const { return fitConfig_; }

    // ---------------------------------------------------------------

    /**
     * Train the encoder trunk and pairwise head on dominance labels
     * derived from (accuracy, latency) true objectives.
     */
    void train(const std::vector<const nasbench::ArchRecord *> &train,
               const std::vector<const nasbench::ArchRecord *> &val,
               hw::PlatformId platform, const TrainConfig &cfg);

    /** P(a dominates b) for one pair (diagnostics / tests). */
    double dominanceProb(const nasbench::Architecture &a,
                         const nasbench::Architecture &b) const;

    hw::PlatformId platform() const { return platform_; }
    /** Reference anchors of the scalar score (frozen at train end). */
    const std::vector<nasbench::Architecture> &referenceArchs() const
    {
        return refArchs_;
    }

    /** Serialize the trained model to a binary checkpoint. */
    bool save(const std::string &path) const override;

    /** Restore from a checkpoint; nullptr on mismatch. */
    static std::unique_ptr<DominanceSurrogate>
    load(const std::string &path);

  protected:
    /**
     * Encode the chunk's rows, stack the per-anchor embedding
     * differences and run one pairwise-head pass, then average the
     * sigmoid per row (mean anchor-dominance probability, higher =
     * better). Bit-identical at any thread count and batch
     * composition. The trunk is the only declared part: the head is
     * two tiny GEMMs over referenceSize rows — the encoder dominates
     * the cost — so it stays fp64 on rankBatch() too, which is then
     * bit-identical to predictBatch() (tau = 1) and gains from
     * encoding memoization alone.
     */
    void chunk(const ChunkPass &pass, Matrix &out) const override;

  private:
    void buildModel(
        const std::vector<nasbench::Architecture> &scaler_fit);

    /** Re-encode the anchors with the current (final) weights. */
    void refreshReferenceEncodings();

    DominanceConfig cfg_;
    nasbench::DatasetId dataset_;
    TrainConfig fitConfig_;
    mutable Rng rng_;
    hw::PlatformId platform_ = hw::PlatformId::EdgeGpu;
    std::unique_ptr<ArchEncoder> encoder_;
    std::unique_ptr<nn::Mlp> head_;
    std::vector<nasbench::Architecture> refArchs_;
    /** Anchor encodings (referenceSize x dim), frozen at train end. */
    Matrix refEnc_;
    bool trained_ = false;
};

} // namespace hwpr::core

#endif // HWPR_CORE_DOMINANCE_H
