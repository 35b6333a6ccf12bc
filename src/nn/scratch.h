/**
 * @file
 * Recycled matrix scratch for the fused inference path.
 *
 * PredictScratch is a shape-keyed pool of Matrix buffers that the
 * batched encode+predict kernels acquire instead of allocating per
 * call. A reset() marks every buffer free without releasing its
 * memory, so a pass that repeats the same shape sequence — every
 * chunk of every generation of a search does — allocates exactly
 * once and then recycles.
 *
 * It is not thread-local: the caller owns one PredictScratch per
 * parallel chunk slot (see core::BatchPlan), so concurrent chunks
 * never contend and the buffer a given chunk sees depends only on
 * the chunk layout, never on which worker ran it.
 */

#ifndef HWPR_NN_SCRATCH_H
#define HWPR_NN_SCRATCH_H

#include <cstdint>
#include <cstddef>
#include <deque>
#include <vector>

#include "common/matrix.h"

namespace hwpr::nn
{

/** Shape-keyed pool of reusable inference scratch matrices. */
class PredictScratch
{
  public:
    /**
     * Check out a (rows x cols) buffer until the next reset(). With
     * @p zero the contents are zero-filled; otherwise they are
     * whatever the previous user left (callers must overwrite fully).
     * References stay valid until the PredictScratch is destroyed —
     * slots are never deallocated, only recycled.
     */
    Matrix &
    acquire(std::size_t rows, std::size_t cols, bool zero = false)
    {
        const std::uint64_t bytes =
            std::uint64_t(rows) * cols * sizeof(double);
        for (auto &slot : slots_) {
            if (slot.busy || slot.m.rows() != rows ||
                slot.m.cols() != cols)
                continue;
            slot.busy = true;
            bytesReused_ += bytes;
            if (zero)
                slot.m.fill(0.0);
            return slot.m;
        }
        slots_.push_back({Matrix(rows, cols), true});
        bytesAllocated_ += bytes;
        return slots_.back().m;
    }

    /** Mark every buffer free; memory is kept for reuse. */
    void
    reset()
    {
        for (auto &slot : slots_)
            slot.busy = false;
    }

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

    /**
     * Reusable int16 row buffer for the quantized rank path
     * (QuantizedMlp::predictBatchInto): holds one layer's quantized
     * activations at a time. Call-scoped like edges(); grown to at
     * least @p n elements, capacity persists across reset().
     */
    std::vector<std::int16_t> &
    quantRows(std::size_t n)
    {
        if (qrows_.size() < n)
            qrows_.resize(n);
        return qrows_;
    }

    /** Per-row input scales of the quantized path (call-scoped). */
    std::vector<double> &
    quantScales(std::size_t n)
    {
        if (qscales_.size() < n)
            qscales_.resize(n);
        return qscales_;
    }

    /** Buffers currently pooled (diagnostics). */
    std::size_t numBuffers() const { return slots_.size(); }

    /// @name Byte accounting (see DESIGN.md "Performance
    /// observatory"). Matrix slots only; the auxiliary edge/quant
    /// vectors are an order of magnitude smaller.
    /// @{
    /** Bytes of fresh Matrix allocations over this scratch's life. */
    std::uint64_t bytesAllocated() const { return bytesAllocated_; }
    /** Bytes served from pooled slots instead of fresh allocation. */
    std::uint64_t bytesReused() const { return bytesReused_; }
    /** Bytes resident in pooled Matrix slots right now. */
    std::uint64_t
    pooledBytes() const
    {
        std::uint64_t total = 0;
        for (const auto &slot : slots_)
            total += std::uint64_t(slot.m.rows()) * slot.m.cols() *
                     sizeof(double);
        return total;
    }
    /// @}

  private:
    struct Slot
    {
        Matrix m;
        bool busy = false;
    };

    /**
     * Linear scan: passes hold a handful of shapes, never hundreds.
     * Deque, not vector — acquire() hands out references that must
     * survive later growth.
     */
    std::deque<Slot> slots_;
    std::vector<Edge> edges_;
    std::vector<std::int16_t> qrows_;
    std::vector<double> qscales_;
    std::uint64_t bytesAllocated_ = 0;
    std::uint64_t bytesReused_ = 0;
};

} // namespace hwpr::nn

#endif // HWPR_NN_SCRATCH_H
