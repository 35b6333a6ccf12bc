/**
 * @file
 * Recycled matrix scratch for the fused inference path.
 *
 * PredictScratch hands out Matrix buffers by acquisition order: the
 * k-th acquire() since reset() gets buffer k, reshaped in place
 * (Matrix::reshape), whatever shape it held before. A buffer's
 * storage grows only when a pass asks it for more than any pass
 * before, so each position settles at the largest buffer ever
 * requested there. That is a constant of the model and the chunk
 * grain, not of the traffic: once every position has seen its
 * largest buffer, allocation stops for good, whatever batch sizes,
 * cache-miss counts or GCN node totals come next.
 *
 * It is not thread-local: the caller owns one PredictScratch per
 * parallel chunk slot (see core::BatchPlan), so concurrent chunks
 * never contend and the buffer a given chunk sees depends only on
 * the chunk layout, never on which worker ran it. Predict and rank
 * passes draw on it alike: both run the fp64 kernels, the rank pass
 * over encodings gathered from its cache.
 */

#ifndef HWPR_NN_SCRATCH_H
#define HWPR_NN_SCRATCH_H

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <deque>
#include <vector>

#include "common/matrix.h"

namespace hwpr::nn
{

/** Acquisition-ordered pool of reusable inference scratch matrices. */
class PredictScratch
{
  public:
    /**
     * Check out a (rows x cols) buffer until the next reset(). With
     * @p zero the contents are zero-filled; otherwise they are
     * whatever an earlier user of the storage left, of any shape
     * (callers must overwrite fully). The reference stays valid
     * until the PredictScratch is destroyed, but after the next
     * reset() the buffer is reshaped for its next user.
     */
    Matrix &
    acquire(std::size_t rows, std::size_t cols, bool zero = false)
    {
        if (next_ == bufs_.size())
            bufs_.emplace_back();
        Matrix &m = bufs_[next_++];
        const std::uint64_t bytes =
            std::uint64_t(rows) * cols * sizeof(double);
        const std::size_t held = m.raw().capacity();
        m.reshape(rows, cols);
        const std::uint64_t grown =
            std::uint64_t(m.raw().capacity() - held) * sizeof(double);
        bytesAllocated_ += grown;
        bytesReused_ += bytes - std::min(bytes, grown);
        if (zero)
            m.fill(0.0);
        return m;
    }

    /** Hand buffers out from the first again; memory is kept. */
    void reset() { next_ = 0; }

    /** One weighted edge of the flattened GCN message-passing graph. */
    struct Edge
    {
        std::uint32_t dst; ///< destination row in the stacked batch
        std::uint32_t src; ///< source row in the stacked batch
        double w;          ///< normalized adjacency weight
    };

    /**
     * Reusable edge-list buffer for the batched sparse gather
     * (GcnEncoder::encodeBatchInto). Contents are call-scoped; the
     * capacity persists across reset().
     */
    std::vector<Edge> &edges() { return edges_; }

    /// @name Byte accounting (see DESIGN.md "Performance
    /// observatory"). Matrix buffers only; the auxiliary edge
    /// vector is an order of magnitude smaller.
    /// @{
    /** Bytes of buffer capacity growth over this scratch's life. */
    std::uint64_t bytesAllocated() const { return bytesAllocated_; }
    /** Bytes acquired from capacity already held. */
    std::uint64_t bytesReused() const { return bytesReused_; }
    /** Capacity bytes held by the buffers right now. */
    std::uint64_t
    pooledBytes() const
    {
        std::uint64_t total = 0;
        for (const Matrix &m : bufs_)
            total += std::uint64_t(m.raw().capacity()) * sizeof(double);
        return total;
    }
    /// @}

  private:
    /**
     * Buffer k serves the k-th acquire() since reset(). Deque, not
     * vector: acquire() hands out references that must survive later
     * growth.
     */
    std::deque<Matrix> bufs_;
    std::size_t next_ = 0;
    std::vector<Edge> edges_;
    std::uint64_t bytesAllocated_ = 0;
    std::uint64_t bytesReused_ = 0;
};

} // namespace hwpr::nn

#endif // HWPR_NN_SCRATCH_H
