/**
 * @file
 * Arena-backed batched inference plan (see DESIGN.md "Inference hot
 * path").
 *
 * A BatchPlan is the per-caller state of the fused encode+predict
 * pass: the output matrix plus one nn::PredictScratch per parallel
 * chunk slot. Callers that predict repeatedly — the search loop
 * evaluates populations every generation, a serving daemon answers
 * request after request — build one plan and reuse it. Every buffer
 * is reshaped in place and grows only past its largest earlier use,
 * so the plan's memory is bounded by the largest pass it has run
 * (per chunk slot: the largest buffer each acquisition position has
 * asked for), and allocation stops once every position has seen its
 * largest buffer, whatever the mix of batch sizes that follows.
 *
 * Determinism contract: the chunk layout (grain, boundaries, slot
 * numbering) is a pure function of the batch size, never of the
 * thread count, and every chunk writes disjoint output rows against
 * its own scratch partition. Combined with the kernel guarantees
 * (canonical GEMM accumulation order, row-aligned activation sweeps)
 * this keeps batched predictions bit-identical to scalar ones and
 * invariant to HWPR_THREADS; tests/prop/test_prop_predict.cc enforces
 * both per surrogate family.
 */

#ifndef HWPR_CORE_BATCH_PLAN_H
#define HWPR_CORE_BATCH_PLAN_H

#include <cstddef>
#include <functional>
#include <vector>

#include "common/matrix.h"
#include "nn/scratch.h"

namespace hwpr::core
{

/** Reusable fused-pass state: output matrix + per-chunk scratch. */
class BatchPlan
{
  public:
    /**
     * Size the plan for a batch of @p n rows and @p out_cols output
     * columns and return the output matrix. The matrix is reshaped
     * in place (Matrix::reshape): its storage grows only when
     * n * out_cols exceeds every earlier pass. Contents are stale
     * until a pass overwrites them.
     *
     * n == 0 is valid and prepares an empty (0 x out_cols) output
     * with zero chunks; the subsequent forEachChunk is a no-op. The
     * serving micro-batcher relies on this: a deadline flush can race
     * a size flush and find nothing queued.
     */
    Matrix &prepare(std::size_t n, std::size_t out_cols);

    /** Output of the most recent pass (n x out_cols). */
    Matrix &output() { return out_; }
    const Matrix &output() const { return out_; }

    /** Rows of the prepared batch. */
    std::size_t size() const { return n_; }

    /**
     * Chunk grain for a batch of @p n rows: pure function of n.
     * Small batches stay in one chunk (fan-out overhead dominates
     * below ~16 rows); large batches split into contiguous row
     * blocks, one scratch slot each, targeting kTargetChunks chunks
     * but never more than kMaxChunkRows rows per chunk — an uncapped
     * grain grows the per-slot scratch matrices past L2 at large n,
     * which is exactly the batch=1024 throughput droop BENCH_batch
     * used to show. Beyond kTargetChunks * kMaxChunkRows rows the
     * chunk *count* grows instead (prepare() sizes one scratch slot
     * per chunk, however many there are).
     */
    static std::size_t chunkGrain(std::size_t n);

    /** Preferred number of chunks (scratch partitions) per pass. */
    static constexpr std::size_t kTargetChunks = 16;

    /**
     * Cap on rows per chunk: keeps every per-slot activation /
     * encoding buffer L2-resident whatever the batch size. Swept
     * empirically over {32, 64, 128} on the family predict paths at
     * batch 1024: 64 maximizes the GCN-encoder families (scalable
     * drops ~10% at 32 and ~35% at 128, where the droop this cap
     * exists to fix reappears); the MLP-only families are flat
     * across the range.
     */
    static constexpr std::size_t kMaxChunkRows = 64;

    /**
     * Fan fn(scratch, row_begin, row_end) over the prepared batch on
     * the global ExecContext pool. Each chunk receives the scratch
     * partition owned by its slot (already reset), so chunks never
     * contend and buffer reuse is deterministic. Emits the
     * predict.fused_pass span and, when metrics are enabled, updates
     * the per-family ops/s gauge "predict.ops_per_s.<family>".
     */
    void forEachChunk(
        const char *family,
        const std::function<void(nn::PredictScratch &, std::size_t,
                                 std::size_t)> &fn);

  private:
    std::size_t n_ = 0;
    std::size_t grain_ = 1;
    Matrix out_;
    /** One scratch partition per chunk slot, indexed i0 / grain. */
    std::vector<nn::PredictScratch> scratch_;
};

} // namespace hwpr::core

#endif // HWPR_CORE_BATCH_PLAN_H
