#include "core/encoding.h"

#include "common/logging.h"
#include "common/obs.h"
#include "nasbench/space.h"

namespace hwpr::core
{

std::string
encodingName(EncodingKind kind)
{
    switch (kind) {
      case EncodingKind::AF:
        return "AF";
      case EncodingKind::LSTM:
        return "LSTM";
      case EncodingKind::GCN:
        return "GCN";
      case EncodingKind::LSTM_AF:
        return "LSTM+AF";
      case EncodingKind::GCN_AF:
        return "GCN+AF";
      case EncodingKind::ALL:
        return "AF+LSTM+GCN";
    }
    panic("unknown EncodingKind");
}

EncoderConfig
EncoderConfig::paper()
{
    EncoderConfig cfg;
    cfg.gcnHidden = 600;
    cfg.lstmHidden = 225;
    cfg.embedDim = 32;
    return cfg;
}

EncoderConfig
EncoderConfig::fast()
{
    return EncoderConfig{};
}

bool
ArchEncoder::usesAf() const
{
    return kind_ == EncodingKind::AF || kind_ == EncodingKind::LSTM_AF ||
           kind_ == EncodingKind::GCN_AF || kind_ == EncodingKind::ALL;
}

bool
ArchEncoder::usesLstm() const
{
    return kind_ == EncodingKind::LSTM ||
           kind_ == EncodingKind::LSTM_AF || kind_ == EncodingKind::ALL;
}

bool
ArchEncoder::usesGcn() const
{
    return kind_ == EncodingKind::GCN || kind_ == EncodingKind::GCN_AF ||
           kind_ == EncodingKind::ALL;
}

ArchEncoder::ArchEncoder(
    EncodingKind kind, const EncoderConfig &cfg,
    nasbench::DatasetId dataset,
    const std::vector<nasbench::Architecture> &scaler_fit, Rng &rng)
    : kind_(kind), dataset_(dataset)
{
    if (usesAf()) {
        HWPR_CHECK(!scaler_fit.empty(),
                   "AF encoding needs architectures to fit the scaler");
        std::vector<std::vector<double>> feats;
        feats.reserve(scaler_fit.size());
        for (const auto &a : scaler_fit)
            feats.push_back(nasbench::archFeatures(a, dataset_));
        scaler_ = nasbench::FeatureScaler::fit(feats);
        dim_ += nasbench::kNumArchFeatures;
    }
    if (usesLstm()) {
        nn::LstmConfig lc;
        lc.vocab = nasbench::category::kNumCategories;
        lc.embedDim = cfg.embedDim;
        lc.hidden = cfg.lstmHidden;
        lc.layers = cfg.lstmLayers;
        lstm_ = std::make_unique<nn::LstmEncoder>(lc, rng);
        dim_ += cfg.lstmHidden;
    }
    if (usesGcn()) {
        nn::GcnConfig gc;
        gc.featDim = nasbench::category::kNumCategories;
        gc.hidden = cfg.gcnHidden;
        gc.layers = cfg.gcnLayers;
        gc.useGlobalNode = cfg.gcnGlobalNode;
        gcn_ = std::make_unique<nn::GcnEncoder>(gc, rng);
        dim_ += cfg.gcnHidden;
    }
    HWPR_CHECK(dim_ > 0, "encoder produces no features");
}

nn::GraphInput
ArchEncoder::graphInput(const nasbench::Architecture &arch)
{
    const auto graph = nasbench::spaceFor(arch.space).toGraph(arch);
    nn::GraphInput g;
    g.adjacency = nn::GcnEncoder::normalizeAdjacency(graph.adjacency);
    g.globalNode = graph.globalNode;
    g.features = Matrix(graph.nodeCategories.size(),
                        nasbench::category::kNumCategories);
    for (std::size_t i = 0; i < graph.nodeCategories.size(); ++i)
        g.features(i, std::size_t(graph.nodeCategories[i])) = 1.0;
    return g;
}

nn::Tensor
ArchEncoder::encode(
    const std::vector<nasbench::Architecture> &archs) const
{
    HWPR_CHECK(!archs.empty(), "empty encoding batch");
    nn::Tensor out;

    if (usesAf()) {
        Matrix af(archs.size(), nasbench::kNumArchFeatures);
        for (std::size_t i = 0; i < archs.size(); ++i) {
            const auto scaled = scaler_.apply(
                nasbench::archFeatures(archs[i], dataset_));
            for (std::size_t j = 0; j < scaled.size(); ++j)
                af(i, j) = scaled[j];
        }
        out = nn::Tensor::constant(std::move(af), "af");
    }
    if (usesLstm()) {
        std::vector<std::vector<std::size_t>> seqs;
        seqs.reserve(archs.size());
        for (const auto &a : archs)
            seqs.push_back(nasbench::spaceFor(a.space).tokenize(a));
        nn::Tensor enc = lstm_->forward(seqs);
        out = out.valid() ? nn::concatCols(out, enc) : enc;
    }
    if (usesGcn()) {
        std::vector<nn::GraphInput> graphs;
        graphs.reserve(archs.size());
        for (const auto &a : archs)
            graphs.push_back(graphInput(a));
        nn::Tensor enc = gcn_->forward(graphs);
        out = out.valid() ? nn::concatCols(out, enc) : enc;
    }
    return out;
}

EncoderCache
ArchEncoder::buildCache(
    std::span<const nasbench::Architecture> archs) const
{
    EncoderCache cache;
    cache.size = archs.size();
    if (usesAf()) {
        cache.af = Matrix(archs.size(), nasbench::kNumArchFeatures);
        for (std::size_t i = 0; i < archs.size(); ++i) {
            const auto scaled = scaler_.apply(
                nasbench::archFeatures(archs[i], dataset_));
            for (std::size_t j = 0; j < scaled.size(); ++j)
                cache.af(i, j) = scaled[j];
        }
    }
    if (usesLstm()) {
        cache.tokens.reserve(archs.size());
        for (const auto &a : archs)
            cache.tokens.push_back(
                nasbench::spaceFor(a.space).tokenize(a));
    }
    if (usesGcn()) {
        cache.graphs.reserve(archs.size());
        for (const auto &a : archs)
            cache.graphs.push_back(graphInput(a));
    }
    if (obs::metricsEnabled()) {
        static auto &builds = obs::Registry::global().counter(
            "train.encoder_cache.builds");
        static auto &bytes_g = obs::Registry::global().gauge(
            "train.encoder_cache.bytes");
        builds.add();
        std::uint64_t bytes = cache.af.size() * sizeof(double);
        for (const auto &t : cache.tokens)
            bytes += t.size() * sizeof(std::size_t);
        for (const auto &g : cache.graphs)
            bytes += (g.adjacency.size() + g.features.size()) *
                     sizeof(double);
        bytes_g.set(double(bytes));
    }
    return cache;
}

nn::Tensor
ArchEncoder::encodeCached(const EncoderCache &cache,
                          const std::vector<std::size_t> &batch) const
{
    HWPR_CHECK(!batch.empty(), "empty encoding batch");
    if (obs::metricsEnabled()) {
        static auto &rows = obs::Registry::global().counter(
            "train.encoder_cache.rows_served");
        rows.add(batch.size());
    }
    nn::Tensor out;

    if (usesAf()) {
        Matrix af(batch.size(), nasbench::kNumArchFeatures);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            HWPR_ASSERT(batch[i] < cache.size, "cache index OOB");
            for (std::size_t j = 0; j < nasbench::kNumArchFeatures;
                 ++j)
                af(i, j) = cache.af(batch[i], j);
        }
        out = nn::Tensor::constant(std::move(af), "af");
    }
    if (usesLstm()) {
        std::vector<const std::vector<std::size_t> *> seqs;
        seqs.reserve(batch.size());
        for (std::size_t idx : batch)
            seqs.push_back(&cache.tokens[idx]);
        nn::Tensor enc = lstm_->forward(seqs);
        out = out.valid() ? nn::concatCols(out, enc) : enc;
    }
    if (usesGcn()) {
        std::vector<const nn::GraphInput *> graphs;
        graphs.reserve(batch.size());
        for (std::size_t idx : batch)
            graphs.push_back(&cache.graphs[idx]);
        nn::Tensor enc = gcn_->forward(graphs);
        out = out.valid() ? nn::concatCols(out, enc) : enc;
    }
    return out;
}

Matrix
ArchEncoder::encodeBatch(
    std::span<const nasbench::Architecture> archs) const
{
    nn::PredictScratch scratch;
    return encodeBatchInto(archs, scratch);
}

const Matrix &
ArchEncoder::encodeBatchInto(
    std::span<const nasbench::Architecture> archs,
    nn::PredictScratch &scratch) const
{
    HWPR_CHECK(!archs.empty(), "empty encoding batch");
    HWPR_SPAN("surrogate.encode_batch",
              {{"rows", double(archs.size())}});
    static obs::Histogram &enc_hist = obs::Registry::global()
        .histogram("surrogate.encode_batch.us");
    obs::ScopedTimer enc_timer(enc_hist);
    if (obs::metricsEnabled()) {
        static obs::Counter &rows = obs::Registry::global().counter(
            "surrogate.encode_batch.rows");
        rows.add(archs.size());
    }
    const std::size_t n = archs.size();
    Matrix &out = scratch.acquire(n, dim_);
    std::size_t col = 0;

    if (usesAf()) {
        for (std::size_t i = 0; i < n; ++i) {
            const auto scaled = scaler_.apply(
                nasbench::archFeatures(archs[i], dataset_));
            for (std::size_t j = 0; j < scaled.size(); ++j)
                out(i, col + j) = scaled[j];
        }
        col += nasbench::kNumArchFeatures;
    }
    if (usesLstm()) {
        std::vector<std::vector<std::size_t>> seqs;
        seqs.reserve(n);
        for (const auto &a : archs)
            seqs.push_back(nasbench::spaceFor(a.space).tokenize(a));
        const Matrix &enc = lstm_->encodeBatchInto(seqs, scratch);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < enc.cols(); ++j)
                out(i, col + j) = enc(i, j);
        col += lstm_->config().hidden;
    }
    if (usesGcn()) {
        std::vector<nn::GraphInput> graphs;
        graphs.reserve(n);
        for (const auto &a : archs)
            graphs.push_back(graphInput(a));
        const Matrix &enc = gcn_->encodeBatchInto(graphs, scratch);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < enc.cols(); ++j)
                out(i, col + j) = enc(i, j);
        col += gcn_->config().hidden;
    }
    HWPR_ASSERT(col == dim_, "encoding column mismatch");
    return out;
}

std::vector<nn::Tensor>
ArchEncoder::params() const
{
    std::vector<nn::Tensor> out;
    if (lstm_)
        for (const auto &p : lstm_->params())
            out.push_back(p);
    if (gcn_)
        for (const auto &p : gcn_->params())
            out.push_back(p);
    return out;
}

} // namespace hwpr::core
