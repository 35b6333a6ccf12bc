/**
 * @file
 * GATES-style baseline (Ning et al., ECCV'20): a graph-based encoding
 * through a GCN with predictors trained purely as *ranking* models
 * using the pairwise hinge loss with margin 0.1. The predicted scores
 * carry no unit — only their order matters — which is exactly what
 * non-dominated sorting consumes.
 */

#ifndef HWPR_BASELINES_GATES_H
#define HWPR_BASELINES_GATES_H

#include "baselines/two_surrogate.h"

namespace hwpr::baselines
{

/**
 * Pairwise-ranking GCN baseline. Rows are (-accuracy score, latency
 * score), both minimized by the search.
 */
class Gates : public TwoSurrogateBaseline
{
  public:
    Gates(const core::EncoderConfig &enc_cfg,
          nasbench::DatasetId dataset, std::uint64_t seed)
        : TwoSurrogateBaseline(kGatesMethod, enc_cfg, dataset, seed)
    {
    }
};

} // namespace hwpr::baselines

#endif // HWPR_BASELINES_GATES_H
