/**
 * @file
 * Architecture encoders (paper Sec. III-C).
 *
 * Three base encoding schemes are ablated in Fig. 4:
 *  - AF: the manually extracted Architecture Features;
 *  - LSTM: the architecture string tokenized and run through a 2-layer
 *    LSTM;
 *  - GCN: the architecture graph through a 2-layer GCN with a global
 *    node.
 * Combined schemes concatenate AF with a learned encoding; the
 * scalable model (Fig. 5) concatenates all three.
 *
 * ArchEncoder owns the trainable encoder modules and a feature scaler
 * and produces one (n x dim) tensor per batch of architectures.
 */

#ifndef HWPR_CORE_ENCODING_H
#define HWPR_CORE_ENCODING_H

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "nasbench/dataset.h"
#include "nasbench/features.h"
#include "nn/gcn.h"
#include "nn/lstm.h"
#include "nn/scratch.h"

namespace hwpr::core
{

/** Encoding scheme (Fig. 4 ablation axes). */
enum class EncodingKind
{
    AF,      ///< architecture features only
    LSTM,    ///< LSTM over the architecture string
    GCN,     ///< GCN over the architecture graph
    LSTM_AF, ///< LSTM encoding concatenated with AF
    GCN_AF,  ///< GCN encoding concatenated with AF
    ALL,     ///< AF + LSTM + GCN (scalable model, Fig. 5)
};

/** Display name of an encoding scheme. */
std::string encodingName(EncodingKind kind);

/** Size hyperparameters of the learned encoders. */
struct EncoderConfig
{
    std::size_t gcnHidden = 64;
    std::size_t gcnLayers = 2;
    std::size_t lstmHidden = 64;
    std::size_t lstmLayers = 2;
    std::size_t embedDim = 24;
    /** Read out the GCN's global node (BRP-NAS style); false = mean
     *  pooling over node embeddings (ablation). */
    bool gcnGlobalNode = true;

    /** The paper's sizes (GCN 600x2, LSTM 225x2). */
    static EncoderConfig paper();
    /** Reduced sizes used by default so benches run in seconds. */
    static EncoderConfig fast();
};

/**
 * Deterministic per-architecture encoder inputs, computed once per
 * fit() by ArchEncoder::buildCache() and reused every epoch. Holds the
 * scaled AF feature rows, the tokenized architecture strings and the
 * normalized GCN graph inputs — everything encode() would otherwise
 * recompute per step. The trainable encoder passes (LSTM/GCN forward)
 * are NOT cached, so encodeCached() is bit-identical to encode() on
 * the same architectures at every training step.
 */
struct EncoderCache
{
    /** Scaled AF rows (n x kNumArchFeatures; 0x0 when AF unused). */
    Matrix af;
    /** Token sequences for the LSTM branch (empty when unused). */
    std::vector<std::vector<std::size_t>> tokens;
    /** Normalized graph inputs for the GCN branch (empty when unused). */
    std::vector<nn::GraphInput> graphs;
    /** Number of cached architectures. */
    std::size_t size = 0;
};

/** Trainable encoder front-end producing (n x dim) batch encodings. */
class ArchEncoder : public nn::Module
{
  public:
    /**
     * @param kind which encodings to produce/concatenate.
     * @param dataset dataset whose input size parameterizes AF.
     * @param scaler_fit architectures used to fit the AF scaler.
     */
    ArchEncoder(EncodingKind kind, const EncoderConfig &cfg,
                nasbench::DatasetId dataset,
                const std::vector<nasbench::Architecture> &scaler_fit,
                Rng &rng);

    /** Encode a batch of architectures. */
    nn::Tensor
    encode(const std::vector<nasbench::Architecture> &archs) const;

    /** Precompute the deterministic encoder inputs of @p archs. */
    EncoderCache
    buildCache(std::span<const nasbench::Architecture> archs) const;

    /**
     * Encode cache entries @p batch (indices into the cached set).
     * Bit-identical to encode() on the same architectures.
     */
    nn::Tensor encodeCached(const EncoderCache &cache,
                            const std::vector<std::size_t> &batch) const;

    /**
     * Inference-only encoding on raw matrices: the whole batch is
     * written into one (n x dim) matrix, each sub-encoding (AF / LSTM
     * / GCN) filling its column span. The output and every LSTM/GCN
     * intermediate come from @p scratch, so a plan-driven pass reuses
     * the same buffers call after call. The returned reference points
     * at scratch memory valid until the next scratch reset. No
     * autodiff graph is recorded; matches encode() bit-for-bit.
     */
    const Matrix &
    encodeBatchInto(std::span<const nasbench::Architecture> archs,
                    nn::PredictScratch &scratch) const;

    /** Output dimensionality. */
    std::size_t dim() const { return dim_; }

    EncodingKind encodingKind() const { return kind_; }

    std::vector<nn::Tensor> params() const override;

    /** AF feature scaler (identity-sized when AF is unused). */
    const nasbench::FeatureScaler &scaler() const { return scaler_; }

    /**
     * Replace the AF scaler (checkpoint loading). Returns false, and
     * keeps the current scaler, when the mean or std length differs
     * from the features this encoder reads: kNumArchFeatures with AF,
     * none without.
     */
    bool setScaler(nasbench::FeatureScaler scaler);

    /** Build a normalized GCN GraphInput for one architecture. */
    static nn::GraphInput
    graphInput(const nasbench::Architecture &arch);

  private:
    bool usesAf() const;
    bool usesLstm() const;
    bool usesGcn() const;

    EncodingKind kind_;
    nasbench::DatasetId dataset_;
    nasbench::FeatureScaler scaler_;
    std::unique_ptr<nn::LstmEncoder> lstm_;
    std::unique_ptr<nn::GcnEncoder> gcn_;
    std::size_t dim_ = 0;
};

/// @name Checkpoint I/O of model shapes, shared by every format.
/// The readers bound what they accept before anything is allocated
/// from it: widths and hidden sizes at most 2^16, layer and width
/// counts at most 64, hidden widths nonzero. They return false on
/// truncation or a field out of bounds.
/// @{

/**
 * Encoder sizes in field order gcnHidden, gcnLayers, lstmHidden,
 * lstmLayers, embedDim, then gcnGlobalNode when @p global_node_field
 * (HW-PR-NAS v2 files predate that field).
 */
void writeEncoderConfig(BinaryWriter &w, const EncoderConfig &cfg,
                        bool global_node_field = true);
bool readEncoderConfig(BinaryReader &r, EncoderConfig &cfg,
                       bool global_node_field = true);

/** A hidden-width list: count, then one width each. */
void writeWidths(BinaryWriter &w, const std::vector<std::size_t> &widths);
bool readWidths(BinaryReader &r, std::vector<std::size_t> &widths);

/** Feature-scaler moments (mean, then std). */
void writeFeatureScaler(BinaryWriter &w,
                        const nasbench::FeatureScaler &scaler);
nasbench::FeatureScaler readFeatureScaler(BinaryReader &r);

/** A parameter list: count, then each value matrix in order. */
void writeParams(BinaryWriter &w, const std::vector<nn::Tensor> &params);
/**
 * Overwrite the values of @p params (a freshly built skeleton's) from
 * a list writeParams() wrote. False on truncation, a count mismatch
 * or any matrix whose shape differs from its skeleton parameter.
 */
bool readParams(BinaryReader &r, const std::vector<nn::Tensor> &params);
/// @}

} // namespace hwpr::core

#endif // HWPR_CORE_ENCODING_H
