#include "core/batch_plan.h"

#include <cstdint>
#include <string>

#include "common/obs.h"
#include "common/threadpool.h"

namespace hwpr::core
{

std::size_t
BatchPlan::chunkGrain(std::size_t n)
{
    // ceil(n / kTargetChunks), floored at 16 rows and capped at
    // kMaxChunkRows: pure function of n.
    const std::size_t per_chunk =
        (n + kTargetChunks - 1) / kTargetChunks;
    if (per_chunk < 16)
        return 16;
    return per_chunk > kMaxChunkRows ? kMaxChunkRows : per_chunk;
}

Matrix &
BatchPlan::prepare(std::size_t n, std::size_t out_cols)
{
    HWPR_SPAN("predict.plan_build", {{"rows", double(n)}});
    n_ = n;
    grain_ = chunkGrain(n);
    const std::size_t chunks = n == 0 ? 0 : (n + grain_ - 1) / grain_;
    if (scratch_.size() < chunks)
        scratch_.resize(chunks);
    out_.reshape(n, out_cols);
    return out_;
}

void
BatchPlan::forEachChunk(
    const char *family,
    const std::function<void(nn::PredictScratch &, std::size_t,
                             std::size_t)> &fn)
{
    // Empty batch is a well-defined no-op: the serving flush path
    // fires on deadline and can legitimately find zero queued rows.
    // No span, no pool hop, no metric churn.
    if (n_ == 0)
        return;
    HWPR_SPAN("predict.fused_pass", {{"rows", double(n_)}});
    const double t0 = obs::metricsEnabled() ? obs::nowMicros() : 0.0;
    ExecContext::global().pool->parallelFor(
        0, n_, grain_, [&](std::size_t i0, std::size_t i1) {
            nn::PredictScratch &scratch = scratch_[i0 / grain_];
            scratch.reset();
            fn(scratch, i0, i1);
        });
    if (obs::metricsEnabled() && n_ > 0) {
        const double us = obs::nowMicros() - t0;
        if (us > 0.0)
            obs::Registry::global()
                .gauge(std::string("predict.ops_per_s.") + family)
                .set(double(n_) * 1e6 / us);
        // Plan memory accounting: chunk-slot scratch capacity plus
        // the output matrix's. Gauges, not counters — this is the
        // steady-state footprint of the most recent pass.
        std::uint64_t scratch_bytes = 0, reused = 0, allocated = 0;
        for (const nn::PredictScratch &s : scratch_) {
            scratch_bytes += s.pooledBytes();
            reused += s.bytesReused();
            allocated += s.bytesAllocated();
        }
        static auto &chunks_g =
            obs::Registry::global().gauge("predict.plan.chunks");
        static auto &bytes_g =
            obs::Registry::global().gauge("predict.plan.scratch_bytes");
        static auto &alloc_g = obs::Registry::global().gauge(
            "predict.plan.bytes_allocated");
        static auto &reuse_g =
            obs::Registry::global().gauge("predict.plan.bytes_reused");
        chunks_g.set(double((n_ + grain_ - 1) / grain_));
        bytes_g.set(double(scratch_bytes +
                           std::uint64_t(out_.raw().capacity()) *
                               sizeof(double)));
        alloc_g.set(double(allocated));
        reuse_g.set(double(reused));
    }
}

} // namespace hwpr::core
