/**
 * @file
 * Per-PC cycle profiling: attributes every one of the ten
 * `Core::CycleBucket`s to the instruction (I-line PC) that was
 * committing or stalling when the cycle was charged, so reports can
 * answer "which instructions cause ffifo_full back-pressure, fabric
 * freezes, and bus waits" at instruction granularity.
 *
 * Attribution rule (Core::attributionPc()): a cycle spent waiting on a
 * *fetch* (I-miss or its bus queueing) charges the PC being fetched;
 * every other cycle charges the in-flight commit packet's PC — the
 * instruction currently executing, stalling, or draining. The profiler
 * maintains a running total so Core::tick() can debug-assert, in O(1)
 * every cycle, that the profile sums to `core.cycles` exactly — the
 * same invariant contract as the bucket counters themselves
 * (docs/observability.md). End-to-end, per-bucket sums are verified
 * against the ten counters in tests/test_profile.cc.
 *
 * Storage is a flat `(text words + 1) x 10` table indexed by
 * `(pc - base) >> 2`, with the final row collecting any out-of-text PC
 * (e.g. a wild branch target), so add() is two adds and no hashing —
 * cheap enough that profiling composes with the interpreter hot loop.
 */

#ifndef FLEXCORE_CORE_PROFILE_H_
#define FLEXCORE_CORE_PROFILE_H_

#include <string>
#include <vector>

#include "core/core.h"

namespace flexcore {

class PcProfile
{
  public:
    static constexpr unsigned kNumBuckets =
        static_cast<unsigned>(Core::CycleBucket::kNumBuckets);

    /** Reset and size the table for a loaded program's text segment.
     * System::load() calls this; @p size_bytes is rounded up to words. */
    void onProgramLoad(Addr base, u32 size_bytes);

    /** Charge @p n cycles of @p bucket to @p pc. */
    void
    add(Addr pc, Core::CycleBucket bucket, u64 n = 1)
    {
        cells_[index(pc) * kNumBuckets +
               static_cast<unsigned>(bucket)] += n;
        total_ += n;
    }

    /** Total charged cycles; equals core.cycles when attached from
     * cycle zero (debug-asserted every tick). */
    u64 total() const { return total_; }

    /** Sum of one bucket's column across all PCs. */
    u64 bucketTotal(Core::CycleBucket bucket) const;

    /** All cycles charged to @p pc, across buckets. */
    u64 pcTotal(Addr pc) const;

    /** Cycles of @p bucket charged to @p pc. */
    u64
    cyclesAt(Addr pc, Core::CycleBucket bucket) const
    {
        return cells_[index(pc) * kNumBuckets +
                      static_cast<unsigned>(bucket)];
    }

    /** Cycles charged to PCs outside [base, base + words*4). */
    u64 overflowTotal() const;

    Addr base() const { return base_; }
    u32 words() const { return words_; }

    /**
     * Canonical single-line JSON hotspot report: total cycles,
     * per-bucket totals (equal to the stat counters), the top-N PCs
     * per bucket (cycles descending, PC ascending on ties), and
     * per-PC rows (PC ascending) with their nonzero buckets. Keys
     * sorted, byte-stable — the `--profile-json` document.
     */
    std::string json(u32 top_n = 10) const;

  private:
    size_t
    index(Addr pc) const
    {
        const u32 word = (pc - base_) >> 2;
        return word < words_ ? word : words_;   // last row = overflow
    }

    Addr base_ = 0;
    u32 words_ = 0;
    std::vector<u64> cells_;   //!< (words_ + 1) x kNumBuckets
    u64 total_ = 0;
};

}  // namespace flexcore

#endif  // FLEXCORE_CORE_PROFILE_H_
