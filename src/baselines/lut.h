/**
 * @file
 * Layer-wise lookup-table (LUT) latency estimator — the classic
 * baseline the paper's related work criticizes (Sec. II): each
 * operator in the search space is benchmarked once in isolation, and
 * an architecture's end-to-end latency is estimated as the sum of its
 * operators' isolated latencies.
 *
 * The known limitation reproduces here: isolated per-op costs miss
 * the cross-operator pipeline overlap of real executions
 * (hw::CostModel::networkCost), so the LUT systematically
 * overestimates and mis-ranks architectures whose schedules overlap
 * differently — which is exactly why learned sequence models (the
 * LSTM latency predictor) outperform it.
 */

#ifndef HWPR_BASELINES_LUT_H
#define HWPR_BASELINES_LUT_H

#include <shared_mutex>
#include <span>
#include <unordered_map>

#include "core/rank_cache.h"
#include "core/surrogate.h"
#include "hw/cost_model.h"
#include "nasbench/dataset.h"

namespace hwpr::baselines
{

/** Layer-wise latency lookup table for one platform. */
class LatencyLut : public core::Surrogate
{
  public:
    LatencyLut(nasbench::DatasetId dataset, hw::PlatformId platform);

    // Surrogate interface -------------------------------------------

    std::string name() const override { return "LUT"; }
    search::EvalKind evalKind() const override
    {
        return search::EvalKind::ObjectiveVector;
    }
    std::size_t numObjectives() const override { return 1; }

    /**
     * Profile every operator of the training architectures. The
     * dataset's platform must match the one the LUT was built for.
     */
    void fit(const core::SurrogateDataset &data,
             ExecContext &ctx) override;

    /** Profiles on demand, so it can always predict. */
    bool trained() const override { return true; }

    // ---------------------------------------------------------------

    /**
     * Pre-profile every operator appearing in a calibration set of
     * architectures (one isolated measurement per unique signature).
     */
    void build(const std::vector<nasbench::Architecture> &calibration);

    /**
     * Estimated end-to-end latency (ms): sum of per-op LUT entries
     * plus the per-inference base latency. Unseen operators are
     * profiled on demand, as deployed LUT flows do.
     */
    double estimateMs(const nasbench::Architecture &arch) const;

    /** Number of distinct operator signatures profiled so far. */
    std::size_t numEntries() const
    {
        std::shared_lock lock(tableMu_);
        return table_.size();
    }

    hw::PlatformId platform() const { return platform_; }

    /**
     * Serialize the profiled table into an atomic CRC-checked
     * checkpoint (kind "lut"). Entries are written in sorted key
     * order, so equal tables produce byte-identical files.
     */
    bool save(const std::string &path) const override;

    /**
     * Restore a table written by save(). Returns nullptr on
     * corruption or format mismatch.
     */
    static std::unique_ptr<LatencyLut> load(const std::string &path);
    /** load() of a body readVerified() returned. */
    static std::unique_ptr<LatencyLut>
    fromVerified(const std::string &body);

  protected:
    /**
     * (estimated latency ms) rows; the LUT declares no trunk or head.
     * Chunks fan out over the pool like every other family; the
     * memoized op table is guarded by a shared mutex, and because
     * each entry is a pure function of the op signature the result is
     * invariant to which thread profiles an op first. A rank pass
     * memoizes the whole-architecture estimate in a width-1
     * core::EncodingCache (genome-checked, so a hash collision is a
     * miss), letting repeat scoring of a stable population skip the
     * per-op lowering and summation entirely. Values are
     * bitwise-identical to predictBatch() (same sum, just cached), so
     * ranking semantics are exact, not approximate.
     */
    void chunk(const core::ChunkPass &pass, Matrix &out) const override;

  private:
    /** Canonical signature of an operator workload. */
    static std::uint64_t key(const hw::OpWorkload &op);

    /** Isolated latency of one operator (memoized). */
    double opLatencySec(const hw::OpWorkload &op) const;

    nasbench::DatasetId dataset_;
    hw::PlatformId platform_;
    hw::CostModel model_;
    /**
     * Both memo tables are guarded for concurrent chunk access. Every
     * entry is a pure function of its key, so a lost insertion race
     * re-computes the identical value — results never depend on which
     * thread populated the cache.
     */
    mutable std::shared_mutex tableMu_;
    mutable std::unordered_map<std::uint64_t, double> table_;
    /** Whole-architecture estimates of the rank path. */
    mutable core::EncodingCache archMemo_;
};

} // namespace hwpr::baselines

#endif // HWPR_BASELINES_LUT_H
