/**
 * @file
 * Graph Convolutional Network encoder for architecture DAGs.
 *
 * Follows BRP-NAS/GATES practice: each architecture is a small graph
 * whose nodes are operators (one-hot features), plus a *global node*
 * connected to every other node to aggregate graph-level information.
 * A GCN layer computes H' = act(Â H W + b) with Â the
 * degree-normalized adjacency (self loops included). Graphs in a batch
 * are processed as one vertically stacked feature matrix with
 * block-diagonal adjacency, so the (expensive) H W product is batched.
 */

#ifndef HWPR_NN_GCN_H
#define HWPR_NN_GCN_H

#include <cstddef>
#include <vector>

#include "nn/layers.h"
#include "nn/tensor.h"

namespace hwpr::nn
{

/** One architecture graph prepared for the GCN. */
struct GraphInput
{
    /** Degree-normalized adjacency with self loops (V x V). */
    Matrix adjacency;
    /** Node features, typically one-hot op types (V x featDim). */
    Matrix features;
    /** Index of the global aggregation node within this graph. */
    std::size_t globalNode = 0;
};

/** Configuration of a GcnEncoder. */
struct GcnConfig
{
    /** Node feature dimension. */
    std::size_t featDim = 0;
    /** Hidden units per layer (paper: 600). */
    std::size_t hidden = 600;
    /** Number of GCN layers (paper: 2). */
    std::size_t layers = 2;
    /** Whether to read out the global node (else mean over nodes). */
    bool useGlobalNode = true;
};

/**
 * Stacked GCN encoder producing one (1 x hidden) row per input graph
 * via global-node readout.
 */
class GcnEncoder : public Module
{
  public:
    GcnEncoder(const GcnConfig &cfg, Rng &rng);

    /** Encode a batch of graphs to a (batch x hidden) matrix. */
    Tensor forward(const std::vector<GraphInput> &graphs) const;

    /**
     * Same, over caller-owned graphs (the fit-time encoding cache
     * normalizes adjacencies once per fit and passes pointers per
     * batch). Pointers must stay valid for the duration of the call;
     * the recorded autodiff nodes copy what they need.
     */
    Tensor forward(const std::vector<const GraphInput *> &graphs) const;

    /**
     * Inference-only encoding on raw matrices: no autodiff graph is
     * recorded, all intermediates come from @p scratch, and message
     * passing runs over a flat edge list built once per call — the
     * batch's block-diagonal adjacency is scanned a single time
     * instead of once per layer, and the (graph, dst, src) edge order
     * preserves forward()'s accumulation order exactly. The returned
     * reference points at scratch memory valid until the next scratch
     * reset. Matches forward() bit-for-bit.
     */
    const Matrix &encodeBatchInto(const std::vector<GraphInput> &graphs,
                                  PredictScratch &scratch) const;

    std::vector<Tensor> params() const override;

    const GcnConfig &config() const { return cfg_; }

    /**
     * Symmetric degree normalization D^-1/2 (A + I) D^-1/2 of a raw
     * 0/1 adjacency matrix.
     */
    static Matrix normalizeAdjacency(const Matrix &raw);

  private:
    GcnConfig cfg_;
    std::vector<Linear> layers_;
};

} // namespace hwpr::nn

#endif // HWPR_NN_GCN_H
