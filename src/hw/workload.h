/**
 * @file
 * Operator-level workload description.
 *
 * An architecture lowers to a sequence of OpWorkloads (stem, cell ops,
 * classifier). The hardware cost model consumes these to produce
 * per-platform latency and energy; the feature extractor consumes them
 * to produce the paper's Architecture Features (FLOPs, params, ...).
 */

#ifndef HWPR_HW_WORKLOAD_H
#define HWPR_HW_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

namespace hwpr::hw
{

/** Kinds of primitive operators the search spaces emit. */
enum class OpKind
{
    Conv,          ///< (grouped) convolution; groups == cin => depthwise
    AvgPool,       ///< average pooling (kernel x kernel)
    Skip,          ///< identity connection
    Zero,          ///< zeroize: drops the edge entirely
    Add,           ///< elementwise addition of two feature maps
    GlobalAvgPool, ///< global average pooling
    Linear,        ///< fully connected layer
};

/** Human-readable operator name. */
std::string opKindName(OpKind kind);

/** One primitive operator instance with its tensor shapes. */
struct OpWorkload
{
    OpKind kind = OpKind::Skip;
    /** Input spatial size. */
    int h = 0, w = 0;
    /** Input and output channels. */
    int cin = 0, cout = 0;
    /** Square kernel size (convs and pools). */
    int kernel = 1;
    /** Stride (output spatial = ceil(h / stride)). */
    int stride = 1;
    /** Convolution groups; groups == cin is a depthwise conv. */
    int groups = 1;

    /** Output spatial height/width. */
    int outH() const { return (h + stride - 1) / stride; }
    int outW() const { return (w + stride - 1) / stride; }

    /** Multiply-accumulate count. */
    double macs() const;
    /** FLOPs (2 * macs for convs/linear; elementwise for the rest). */
    double flops() const;
    /** Trainable parameter count. */
    double params() const;
    /** Input activation element count. */
    double inputElems() const;
    /** Output activation element count. */
    double outputElems() const;
    /** Weight element count (== params). */
    double weightElems() const { return params(); }
    /** True when this is a depthwise convolution. */
    bool isDepthwise() const
    {
        return kind == OpKind::Conv && groups == cin && cin > 1;
    }
};

} // namespace hwpr::hw

#endif // HWPR_HW_WORKLOAD_H
