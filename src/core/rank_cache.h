/**
 * @file
 * Frozen-encoder memoization for the rank pass.
 *
 * After a surrogate is fitted its encoder weights never change, so an
 * architecture's encoding is a pure function of the architecture. The
 * rank pass (Surrogate::rankBatch) exploits that: EncodingCache
 * memoizes encoding rows by architecture hash, and gatherEncodings()
 * fills a chunk's encoding matrix from the cache, batch-encoding only
 * the misses. The heads then run the same fp64 kernels as the predict
 * pass, so a warm rank pass skips the encoder, which dominates a cold
 * fp64 pass, and still returns predictBatch's bits (see DESIGN.md
 * "Rank path").
 *
 * Determinism: cached rows are bitwise identical to freshly encoded
 * ones (encodeBatchInto is bit-identical across batch compositions —
 * the batched-vs-scalar property), so results never depend on cache
 * state, insertion order, or which thread warmed an entry. The table
 * is guarded by a shared_mutex: chunk workers take shared locks on
 * lookup and an exclusive lock only to publish a miss.
 */

#ifndef HWPR_CORE_RANK_CACHE_H
#define HWPR_CORE_RANK_CACHE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/matrix.h"
#include "core/encoding.h"
#include "nasbench/arch.h"
#include "nn/scratch.h"

namespace hwpr::core
{

/** Thread-safe arch -> encoding-row memo table, keyed by hash with
 *  genome verification on every hit (hash collisions degrade to
 *  misses, never to wrong rows). */
class EncodingCache
{
  public:
    /**
     * Set the encoding width and capacity; clears any cached rows
     * and resets the hit/miss/eviction/collision counters. The
     * non-default @p capacity exists for tests that exercise eviction
     * without a million inserts, and @p key_bits (< 64) masks the
     * bucket key so tests can force two architectures into one bucket
     * — brute-forcing a real 64-bit FNV collision is infeasible.
     */
    void
    init(std::size_t width, std::size_t capacity = kMaxEntries,
         std::size_t key_bits = 64)
    {
        std::unique_lock lock(mu_);
        width_ = width;
        capacity_ = capacity == 0 ? 1 : capacity;
        keyMask_ = key_bits >= 64
                       ? ~std::uint64_t(0)
                       : ((std::uint64_t(1) << key_bits) - 1);
        rows_.clear();
        hits_.store(0, std::memory_order_relaxed);
        misses_.store(0, std::memory_order_relaxed);
        evictions_.store(0, std::memory_order_relaxed);
        collisions_.store(0, std::memory_order_relaxed);
    }

    std::size_t width() const { return width_; }

    /**
     * Copy the cached encoding of @p arch into @p dst (width()
     * doubles). Returns false on a miss. A bucket hit whose stored
     * genome differs from @p arch — a hash collision — counts as a
     * collision AND a miss: the caller re-encodes rather than being
     * served another architecture's row.
     */
    bool lookup(const nasbench::Architecture &arch, double *dst) const;

    /**
     * Publish an encoding row. At capacity an arbitrary resident row
     * is evicted first — safe because cached rows are bitwise equal
     * to fresh encodes, so which rows happen to be resident never
     * affects results, only the hit rate. A bucket already held by a
     * *different* architecture (hash collision) is overwritten —
     * most-recent wins, the displaced row degrades to future misses.
     */
    void insert(const nasbench::Architecture &arch, const double *row);

    /** Cached rows (diagnostics). */
    std::size_t
    size() const
    {
        std::shared_lock lock(mu_);
        return rows_.size();
    }

    /// @name Accounting (see DESIGN.md "Performance observatory").
    /// Mirrored into the global metrics registry when metrics are
    /// enabled ("predict.rank_cache.{hits,misses,evictions}" counters
    /// and the "predict.rank_cache.size" gauge).
    /// @{
    std::uint64_t
    hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }
    std::uint64_t
    misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }
    std::uint64_t
    evictions() const
    {
        return evictions_.load(std::memory_order_relaxed);
    }
    /** Bucket hits whose stored genome differed from the probe —
     *  i.e. detected hash collisions ("predict.rank_cache.collisions"
     *  in the metrics registry). */
    std::uint64_t
    collisions() const
    {
        return collisions_.load(std::memory_order_relaxed);
    }
    /// @}

    /**
     * Default capacity cap: a million encodings is far past any
     * search footprint, so eviction is a correctness backstop, not a
     * working-set policy.
     */
    static constexpr std::size_t kMaxEntries = 1u << 20;

  private:
    /** Cached row plus the architecture that produced it. The genome
     *  is the authority on identity — the 64-bit key is only a bucket
     *  address, and two architectures can share it. */
    struct Entry
    {
        nasbench::Architecture arch;
        std::vector<double> row;
    };

    std::uint64_t
    keyOf(const nasbench::Architecture &arch) const
    {
        // Fixed salt decorrelates from other hash users of arch.
        return arch.hash(0x9a7e5c0de5a17ull) & keyMask_;
    }

    mutable std::shared_mutex mu_;
    std::unordered_map<std::uint64_t, Entry> rows_;
    std::size_t width_ = 0;
    std::size_t capacity_ = kMaxEntries;
    std::uint64_t keyMask_ = ~std::uint64_t(0);
    /** Atomics: bumped under the *shared* lock by chunk workers. */
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
    mutable std::atomic<std::uint64_t> collisions_{0};
};

/**
 * Fill @p dst (archs.size() x cache.width()) with the encodings of
 * @p archs: cache hits are copied, misses are batch-encoded through
 * @p enc into @p scratch, written back to @p dst and published to the
 * cache. @p dst must be acquired from @p scratch (or otherwise owned
 * by the caller) before the call.
 */
void gatherEncodings(const ArchEncoder &enc,
                     std::span<const nasbench::Architecture> archs,
                     EncodingCache &cache, nn::PredictScratch &scratch,
                     Matrix &dst);

} // namespace hwpr::core

#endif // HWPR_CORE_RANK_CACHE_H
