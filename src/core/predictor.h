/**
 * @file
 * Single-metric performance predictor: encoder + regressor.
 *
 * This is the building block behind the paper's ablations:
 *  - Fig. 4 varies the encoding scheme with the regressor fixed to an
 *    MLP, trained with the hinge ranking loss (margin 0.1, following
 *    GATES) and evaluated by Kendall tau;
 *  - Table I varies the regressor (MLP / XGBoost / LGBoost) with the
 *    best encoding per metric, reporting RMSE and Kendall tau.
 * It also provides the per-objective surrogates of the baseline
 * methods (BRP-NAS, GATES).
 */

#ifndef HWPR_CORE_PREDICTOR_H
#define HWPR_CORE_PREDICTOR_H

#include <functional>
#include <memory>
#include <span>

#include "common/serialize.h"
#include "core/batch_plan.h"
#include "core/encoding.h"
#include "core/surrogate.h"
#include "core/train_util.h"
#include "gbdt/gbdt.h"
#include "nn/layers.h"
#include "nn/loss.h"

namespace hwpr::core
{

/** Regressor family (Table I axis). */
enum class RegressorKind
{
    Mlp,
    XGBoost,
    LGBoost,
};

/** Display name of a regressor. */
std::string regressorName(RegressorKind kind);

/** Loss used to train NN predictors. */
enum class LossKind
{
    Mse,      ///< pure regression (paper footnote 2 comparison)
    Hinge,    ///< pairwise ranking, margin 0.1 (GATES-style)
    MseHinge, ///< both combined (values + ranks)
};

/**
 * Training hyperparameters for one predictor. The schedule (cosine
 * annealing), weight decay and dropout are Table II constants (see
 * train_util.h).
 */
struct PredictorTrainConfig
{
    std::size_t epochs = 60;
    std::size_t patience = 10;
    double lr = 3e-4;
    std::size_t batchSize = 128;
    LossKind loss = LossKind::MseHinge;
    double hingeMargin = 0.1;
};

/** Extracts the training target from an oracle record. */
using TargetFn = std::function<double(const nasbench::ArchRecord &)>;

/** Encoder + regressor predictor for one performance metric. */
class MetricPredictor
{
  public:
    MetricPredictor(EncodingKind encoding, const EncoderConfig &enc_cfg,
                    RegressorKind regressor,
                    nasbench::DatasetId dataset, std::uint64_t seed);

    /**
     * Train on oracle records. NN predictors optimize the configured
     * loss with AdamW + cosine annealing and restore the best
     * validation epoch; GBDT regressors fit on AF + genome features
     * with validation-driven early stopping.
     */
    void train(const std::vector<const nasbench::ArchRecord *> &train,
               const std::vector<const nasbench::ArchRecord *> &val,
               const TargetFn &target,
               const PredictorTrainConfig &cfg);

    /**
     * Predict the metric (denormalized) for a batch. Runs one raw
     * matrix-level forward per chunk — no autodiff recording — with
     * chunks fanned out over the ExecContext pool (NN path) or the
     * tree traversals parallelized over rows (GBDT path).
     */
    std::vector<double>
    predict(std::span<const nasbench::Architecture> archs) const;

    /**
     * Serialize the trained predictor (configuration, scalers and
     * either the encoder+head parameters or the tree ensemble) into
     * an enclosing checkpoint stream.
     */
    void saveTo(BinaryWriter &w) const;

    /**
     * Restore a predictor written by saveTo(). Returns nullptr on any
     * corruption (bad enums, size mismatches, truncation).
     */
    static std::unique_ptr<MetricPredictor> loadFrom(BinaryReader &r);

    RegressorKind regressor() const { return regressor_; }
    EncodingKind encoding() const { return encoding_; }

    /// @name The NN regressor's trunk, head and target scaler, which
    /// the two-predictor baselines declare as their own (NN
    /// regressors only, once trained or loaded).
    /// @{
    const ArchEncoder &encoder() const { return *encoder_; }
    const nn::Mlp &head() const { return *head_; }
    const TargetScaler &targetScaler() const { return targetScaler_; }
    /// @}

  private:
    /** Dense feature rows for the GBDT regressors. */
    Matrix
    gbdtFeatures(std::span<const nasbench::Architecture> archs) const;

    EncodingKind encoding_;
    EncoderConfig encCfg_;
    RegressorKind regressor_;
    nasbench::DatasetId dataset_;
    Rng rng_;
    std::unique_ptr<ArchEncoder> encoder_;
    std::unique_ptr<nn::Mlp> head_;
    std::unique_ptr<gbdt::Gbdt> trees_;
    nasbench::FeatureScaler gbdtScaler_;
    TargetScaler targetScaler_;
    bool trained_ = false;
    /** encoder_ and head_, for predict()'s chunk loop. */
    TrunkHeads model_;
};

/** Kendall tau + RMSE of a predictor on held-out records. */
struct PredictorQuality
{
    double kendall = 0.0;
    double rmse = 0.0;
};

/** Evaluate a trained predictor against held-out oracle records. */
PredictorQuality
evaluatePredictor(const MetricPredictor &predictor,
                  const std::vector<const nasbench::ArchRecord *> &test,
                  const TargetFn &target);

} // namespace hwpr::core

#endif // HWPR_CORE_PREDICTOR_H
