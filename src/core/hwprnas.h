/**
 * @file
 * HW-PR-NAS: the Pareto rank-preserving surrogate model (paper
 * Sec. III, Fig. 3).
 *
 * Architecture: two branch predictors feed one combiner.
 *  - Accuracy branch: GCN encoding (+ architecture features) -> MLP,
 *    the best accuracy configuration of the Fig. 4 / Table I ablation.
 *  - Latency branch: LSTM encoding (+ AF) -> one MLP head per hardware
 *    platform (Sec. III-E, multi-platform predictor); the target
 *    platform id indexes the head.
 *  - Combiner: a dense layer over the two branch outputs producing a
 *    single Pareto score per architecture.
 *
 * Training (Sec. III-A/B, Table II): all components are trained
 * simultaneously with the listwise Pareto-rank loss (Eq. 4) on the
 * combiner output plus per-branch RMSE auxiliary losses, using AdamW,
 * cosine annealing and early stopping; the combiner is then fine-tuned
 * alone for a few epochs ("we further train the last dense layer one
 * last time").
 */

#ifndef HWPR_CORE_HWPRNAS_H
#define HWPR_CORE_HWPRNAS_H

#include <array>
#include <memory>
#include <span>

#include "common/serialize.h"
#include "core/encoding.h"
#include "core/surrogate.h"
#include "core/train_util.h"
#include "hw/platform.h"
#include "nn/layers.h"

namespace hwpr::core
{

/** Model-shape configuration. */
struct HwPrNasConfig
{
    EncoderConfig encoder = EncoderConfig::fast();
    /** Hidden widths of the two branch MLPs. */
    std::vector<std::size_t> headHidden = {64, 32};
    /**
     * Hidden widths of the combiner dense layer(s) over the two
     * branch outputs. Empty = a single linear layer (a pure weighted
     * sum, as drawn in Fig. 3); one small hidden layer lets the score
     * express curved Pareto level sets and is the default.
     */
    std::vector<std::size_t> combinerHidden = {16};
    /** Weight of the per-branch RMSE auxiliary losses. */
    double rmseWeight = 1.0;
};

/**
 * Training hyperparameters — paper Table II defaults. The schedule
 * (cosine annealing), weight decay and dropout are Table II constants
 * (see train_util.h).
 */
struct TrainConfig
{
    std::size_t epochs = 80;
    /** Early stopping patience in epochs (paper observes convergence
     *  around epoch 30 with the same mechanism). */
    std::size_t patience = 8;
    double learningRate = 3e-4;      ///< Table II: 0.0003
    std::size_t batchSize = 128;     ///< Table II
    /** Final combiner-only fine-tuning epochs. */
    std::size_t combinerEpochs = 5;
    /** Disable the listwise loss (RMSE-only ablation, footnote 2). */
    bool listwiseLoss = true;
};

/** The HW-PR-NAS surrogate model. */
class HwPrNas : public Surrogate
{
  public:
    HwPrNas(const HwPrNasConfig &cfg, nasbench::DatasetId dataset,
            std::uint64_t seed);

    // Surrogate interface -------------------------------------------

    std::string name() const override { return "HW-PR-NAS"; }
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

    /** Training hyperparameters used by fit(). */
    void setFitConfig(const TrainConfig &cfg) { fitConfig_ = cfg; }
    const TrainConfig &fitConfig() const { return fitConfig_; }

    // ---------------------------------------------------------------

    /**
     * Train on oracle records for one target platform: the
     * one-platform case of trainMultiPlatform(). Records carry true
     * accuracy and per-platform latency; Pareto ranks are computed per
     * batch (Sec. III-A).
     */
    void train(const std::vector<const nasbench::ArchRecord *> &train,
               const std::vector<const nasbench::ArchRecord *> &val,
               hw::PlatformId platform, const TrainConfig &cfg);

    /**
     * Joint multi-platform training (Sec. III-E): one shared
     * accuracy branch and encoder, one latency head per listed
     * platform, trained simultaneously on the mean over platforms of
     * train()'s loss (listwise + rmseWeight x (accuracy MSE + that
     * platform's latency MSE)); the combiner-only phase uses the mean
     * of the platforms' listwise losses. Platforms must be distinct.
     * After this call, predictBatch() scores against the first
     * platform; setActivePlatform() retargets it to any trained one.
     */
    void trainMultiPlatform(
        const std::vector<const nasbench::ArchRecord *> &train,
        const std::vector<const nasbench::ArchRecord *> &val,
        const std::vector<hw::PlatformId> &platforms,
        const TrainConfig &cfg);

    /** Latency predictions from a specific platform head, ms. */
    std::vector<double>
    predictLatencyFor(const std::vector<nasbench::Architecture> &archs,
                      hw::PlatformId platform) const;

    /** Retarget predictBatch()/rankBatch()/predictLatency() to
     *  another trained head. */
    void setActivePlatform(hw::PlatformId platform)
    {
        platform_ = platform;
    }

    /** Accuracy-branch predictions, percent. */
    std::vector<double>
    predictAccuracy(const std::vector<nasbench::Architecture> &archs)
        const;

    /** Latency-branch predictions for the trained platform, ms. */
    std::vector<double>
    predictLatency(const std::vector<nasbench::Architecture> &archs)
        const;

    hw::PlatformId platform() const { return platform_; }
    nasbench::DatasetId dataset() const { return dataset_; }

    /**
     * Per-epoch validation losses of the last train() /
     * trainMultiPlatform() call, in epoch order. Used by bench_train
     * and the reproducibility tests to assert that the same-seed loss
     * trajectory is bit-identical across thread counts.
     */
    const std::vector<double> &valLossHistory() const
    {
        return valLossHistory_;
    }

    /** All trainable parameters. */
    std::vector<nn::Tensor> params() const;

    /**
     * Serialize the trained model (configuration, scalers and all
     * parameters) to a binary checkpoint. The write is atomic
     * (temp file + fsync + rename) and the file carries a CRC32
     * footer that load() verifies.
     * @return false when the file cannot be written.
     */
    bool save(const std::string &path) const override;

    /**
     * Restore a model from a checkpoint written by save(). Returns
     * nullptr on corruption, format or shape mismatch.
     */
    static std::unique_ptr<HwPrNas> load(const std::string &path);
    /** load() of a body readVerified() returned. */
    static std::unique_ptr<HwPrNas>
    fromVerified(const std::string &body);

  protected:
    /**
     * Accuracy and active latency head over their trunks, then the
     * combiner over the two branch outputs: one score per row.
     */
    void chunk(const ChunkPass &pass, Matrix &out) const override;

  private:
    /**
     * Normalized accuracy and latency-head @p head outputs of one
     * chunk, gathered into the (len x 2) combiner input @p branches.
     */
    void branchChunk(const ChunkPass &pass, std::size_t head,
                     Matrix &branches) const;

    /** Branch outputs (normalized accuracy, latency) of every row,
     *  through a per-call plan (the accuracy and latency accessors). */
    Matrix branchOutputs(std::span<const nasbench::Architecture> archs,
                         std::size_t head) const;

    /** Checkpoint body (header + config + scalers + params). */
    void writeBody(BinaryWriter &w) const;

    /**
     * Instantiate encoders, heads and the combiner. @p scaler_fit
     * provides the architectures the AF scaler is fitted on
     * (checkpoint loading replaces the scalers afterwards).
     */
    void buildModel(const std::vector<nasbench::Architecture> &
                        scaler_fit);

    HwPrNasConfig cfg_;
    nasbench::DatasetId dataset_;
    TrainConfig fitConfig_;
    mutable Rng rng_;
    hw::PlatformId platform_ = hw::PlatformId::EdgeGpu;

    std::unique_ptr<ArchEncoder> accEncoder_;
    std::unique_ptr<ArchEncoder> latEncoder_;
    std::unique_ptr<nn::Mlp> accHead_;
    /** Multi-platform latency predictor: one head per platform,
     *  indexed by hw::platformIndex. */
    std::vector<std::unique_ptr<nn::Mlp>> latHeads_;
    std::unique_ptr<nn::Mlp> combiner_;

    TargetScaler accScaler_;
    /** Per-platform latency scalers (index = hw::platformIndex). */
    std::array<TargetScaler, hw::kNumPlatforms> latScalers_;
    std::vector<double> valLossHistory_;
    bool trained_ = false;
};

} // namespace hwpr::core

#endif // HWPR_CORE_HWPRNAS_H
