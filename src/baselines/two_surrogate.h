/**
 * @file
 * The "two surrogate models" baselines HW-PR-NAS is compared against
 * throughout the paper (Fig. 1, Fig. 6, Table III, Fig. 7): one GCN
 * accuracy predictor and one GCN latency predictor for the target
 * device, whose predictions the search combines by non-dominated
 * sorting.
 *
 * BRP-NAS (Dudziak et al., NeurIPS'20) and GATES (Ning et al.,
 * ECCV'20) share that structure and differ only in the constants of
 * TwoSurrogateMethod: their losses, whether latency is regressed in
 * log space, the output transform and the checkpoint identity.
 */

#ifndef HWPR_BASELINES_TWO_SURROGATE_H
#define HWPR_BASELINES_TWO_SURROGATE_H

#include <memory>
#include <span>

#include "core/predictor.h"
#include "core/surrogate.h"

namespace hwpr::baselines
{

/** What tells one two-predictor method from the other. */
struct TwoSurrogateMethod
{
    const char *name; ///< Surrogate::name()
    /** familyLabel() and checkpoint kind. */
    const char *kind;
    core::LossKind accLoss;
    core::LossKind latLoss;
    /** Hinge margin pinned for both predictors; 0 keeps the caller's. */
    double pinnedMargin;
    /**
     * Physical units: latency is regressed as log(ms) and rows are
     * (100 - accuracy %, latency ms). Otherwise both predictors are
     * unitless ranking scores and rows are (-accuracy score, latency
     * score). Both transforms are monotone per column.
     */
    bool physicalUnits;
    std::uint64_t accSalt; ///< accuracy predictor seed salt
    std::uint64_t latSalt; ///< latency predictor seed salt
};

/** BRP-NAS: MSE+hinge accuracy, MSE log-latency regression. */
extern const TwoSurrogateMethod kBrpNasMethod;
/** GATES: pure pairwise-hinge ranking predictors, margin 0.1. */
extern const TwoSurrogateMethod kGatesMethod;

/** Accuracy + latency predictor pair behind the Surrogate contract. */
class TwoSurrogateBaseline : public core::Surrogate
{
  public:
    TwoSurrogateBaseline(const TwoSurrogateMethod &method,
                         const core::EncoderConfig &enc_cfg,
                         nasbench::DatasetId dataset, std::uint64_t seed);

    // Surrogate interface -------------------------------------------

    std::string name() const override { return method_.name; }
    search::EvalKind evalKind() const override
    {
        return search::EvalKind::ObjectiveVector;
    }
    bool trained() const override { return accuracy_ && latency_; }

    /** Reseed from @p ctx and train both predictors. */
    void fit(const core::SurrogateDataset &data,
             ExecContext &ctx) override;

    // ---------------------------------------------------------------

    /** Train both predictors with the method's losses. */
    void train(const std::vector<const nasbench::ArchRecord *> &train,
               const std::vector<const nasbench::ArchRecord *> &val,
               hw::PlatformId platform,
               const core::PredictorTrainConfig &base_cfg = {});

    /** Accuracy predictions: percent, or a score (higher = better). */
    std::vector<double>
    predictAccuracy(std::span<const nasbench::Architecture> a) const;

    /** Latency predictions: ms, or a score (higher = slower). */
    std::vector<double>
    predictLatency(std::span<const nasbench::Architecture> a) const;

    hw::PlatformId platform() const { return platform_; }

    /** Atomic CRC-checked checkpoint of kind method.kind. */
    bool save(const std::string &path) const override;

    /**
     * Restore a baseline written by save() for @p method. Returns
     * nullptr on corruption, format or shape mismatch, and for
     * tree-ensemble predictors, which train() never builds.
     */
    static std::unique_ptr<TwoSurrogateBaseline>
    load(const std::string &path, const TwoSurrogateMethod &method);

  protected:
    /**
     * Both predictors per chunk: trunk and head 0 are the accuracy
     * predictor's, 1 the latency predictor's. Outputs are
     * denormalized, then transformed per the method's units.
     */
    void chunk(const core::ChunkPass &pass, Matrix &out) const override;

  private:
    /** Declare both predictors' encoders and heads as the model. */
    void declarePredictors();

    const TwoSurrogateMethod &method_;
    core::EncoderConfig encCfg_;
    nasbench::DatasetId dataset_;
    std::uint64_t seed_;
    hw::PlatformId platform_ = hw::PlatformId::EdgeGpu;
    std::unique_ptr<core::MetricPredictor> accuracy_;
    std::unique_ptr<core::MetricPredictor> latency_;
};

} // namespace hwpr::baselines

#endif // HWPR_BASELINES_TWO_SURROGATE_H
