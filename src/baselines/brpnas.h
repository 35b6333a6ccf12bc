/**
 * @file
 * BRP-NAS-style baseline (Dudziak et al., NeurIPS'20): two independent
 * GCN-based surrogates — an accuracy predictor and a per-device
 * latency predictor — whose predictions are combined inside the search
 * by non-dominated sorting. This is the "two surrogate models"
 * configuration HW-PR-NAS is compared against throughout the paper
 * (Fig. 1, Fig. 6, Table III, Fig. 7).
 */

#ifndef HWPR_BASELINES_BRPNAS_H
#define HWPR_BASELINES_BRPNAS_H

#include "baselines/two_surrogate.h"

namespace hwpr::baselines
{

/**
 * Two-surrogate BRP-NAS baseline. Accuracy uses the
 * binary-relation-style ranking objective (hinge) plus MSE; latency is
 * an MSE regression of log(ms), as BRP-NAS trains a GCN regressor per
 * device. Rows are (100 - predicted accuracy %, predicted latency ms).
 */
class BrpNas : public TwoSurrogateBaseline
{
  public:
    BrpNas(const core::EncoderConfig &enc_cfg,
           nasbench::DatasetId dataset, std::uint64_t seed)
        : TwoSurrogateBaseline(kBrpNasMethod, enc_cfg, dataset, seed)
    {
    }
};

} // namespace hwpr::baselines

#endif // HWPR_BASELINES_BRPNAS_H
