/**
 * @file
 * The scalable HW-PR-NAS variant (paper Sec. III-F, Fig. 5).
 *
 * To add objectives without retraining the whole system, the encoding
 * becomes the concatenation of all three schemes (AF + GNN + LSTM) and
 * a single MLP replaces the two branch predictors, emitting the Pareto
 * score directly without predicting the objectives. Adding a metric
 * (e.g. energy) re-labels the Pareto ranks with the extra objective
 * and fine-tunes only the MLP for a few epochs while the encoders stay
 * frozen (the paper fine-tunes 5 epochs for the energy experiment of
 * Fig. 9).
 */

#ifndef HWPR_CORE_SCALABLE_H
#define HWPR_CORE_SCALABLE_H

#include <memory>
#include <span>

#include "core/encoding.h"
#include "core/hwprnas.h"
#include "core/surrogate.h"
#include "nn/layers.h"

namespace hwpr::core
{

/** Configuration of the scalable model. */
struct ScalableConfig
{
    EncoderConfig encoder = EncoderConfig::fast();
    std::vector<std::size_t> mlpHidden = {64, 32};
};

/** Scalable Pareto-score surrogate over any objective set. */
class ScalableHwPrNas : public Surrogate
{
  public:
    ScalableHwPrNas(const ScalableConfig &cfg,
                    nasbench::DatasetId dataset, std::uint64_t seed);

    // Surrogate interface -------------------------------------------

    std::string name() const override { return "Scalable HW-PR-NAS"; }
    search::EvalKind evalKind() const override
    {
        return search::EvalKind::ParetoScore;
    }
    std::size_t numObjectives() const override
    {
        return energyAware_ ? 3 : 2;
    }

    /**
     * Reseed from @p ctx and train on the dataset with fitConfig().
     * Equal seeds (at any thread count) give identical models.
     */
    void fit(const SurrogateDataset &data, ExecContext &ctx) override;

    bool trained() const override { return trained_; }

    /** Training hyperparameters used by fit(). */
    void setFitConfig(const TrainConfig &cfg) { fitConfig_ = cfg; }
    const TrainConfig &fitConfig() const { return fitConfig_; }

    // ---------------------------------------------------------------

    /**
     * Initial training on (accuracy, latency) Pareto ranks, listwise
     * loss only (the model predicts no objective values).
     */
    void train(const std::vector<const nasbench::ArchRecord *> &train,
               const std::vector<const nasbench::ArchRecord *> &val,
               hw::PlatformId platform, const TrainConfig &cfg);

    /**
     * Add energy as a third objective: re-label Pareto ranks with
     * (accuracy, latency, energy) and fine-tune the MLP only, with
     * the encoder frozen.
     */
    void addEnergyObjective(
        const std::vector<const nasbench::ArchRecord *> &train,
        std::size_t epochs = 5, double lr = 3e-4,
        std::size_t batch_size = 128);

    bool energyAware() const { return energyAware_; }
    hw::PlatformId platform() const { return platform_; }

    /** Serialize the trained model to a binary checkpoint. */
    bool save(const std::string &path) const override;

    /** Restore from a checkpoint; nullptr on mismatch. */
    static std::unique_ptr<ScalableHwPrNas>
    load(const std::string &path);

  protected:
    /** The score MLP over the concatenated encoding: one score per
     *  row (int8 on rankBatch()). */
    void chunk(const ChunkPass &pass, Matrix &out) const override;

  private:
    void buildModel(
        const std::vector<nasbench::Architecture> &scaler_fit);

    ScalableConfig cfg_;
    nasbench::DatasetId dataset_;
    TrainConfig fitConfig_;
    mutable Rng rng_;
    hw::PlatformId platform_ = hw::PlatformId::EdgeGpu;
    std::unique_ptr<ArchEncoder> encoder_;
    std::unique_ptr<nn::Mlp> mlp_;
    bool trained_ = false;
    bool energyAware_ = false;
};

} // namespace hwpr::core

#endif // HWPR_CORE_SCALABLE_H
