/**
 * @file
 * Timing-only set-associative cache with true-LRU replacement. Holds
 * tags and per-line dirty bits, never data (the functional image lives
 * in Memory). Serves both the Leon3 L1 caches (write-through,
 * no-allocate: dirty bits unused) and, via the dirty-bit support, the
 * write-back meta-data cache.
 */

#ifndef FLEXCORE_MEMORY_CACHE_H_
#define FLEXCORE_MEMORY_CACHE_H_

#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace flexcore {

struct CacheParams
{
    u32 size_bytes = 32 * 1024;
    u32 line_bytes = 32;
    u32 assoc = 4;
};

class Cache
{
  public:
    Cache(StatGroup *parent, const std::string &name, CacheParams params);

    /**
     * Result of a fill: which line slot now holds the new line, and
     * whether a valid (and possibly dirty) victim was displaced.
     */
    struct FillResult
    {
        bool evicted_valid = false;   //!< a valid line was displaced
        bool evicted_dirty = false;   //!< ...and it needs a writeback
        Addr victim_addr = 0;         //!< line address of the victim
        u32 slot = 0;                 //!< line slot (set * assoc + way)
    };

    /**
     * Look up @p addr; updates LRU and the line's dirty bit on a hit.
     * Counts the access in the hit/miss statistics. On a hit,
     * lastSlot() reports the line slot that matched. Runs once per
     * fetched instruction, so it is defined inline.
     */
    bool
    access(Addr addr, bool set_dirty = false)
    {
        ++accesses_;
        const u32 set = setIndex(addr);
        const u32 tag = tagOf(addr);
        Line *base = &lines_[static_cast<size_t>(set) * params_.assoc];
        for (u32 way = 0; way < params_.assoc; ++way) {
            Line &line = base[way];
            if (line.valid && line.tag == tag) {
                line.lru = ++use_clock_;
                line.dirty = line.dirty || set_dirty;
                last_slot_ = set * params_.assoc + way;
                ++hits_;
                return true;
            }
        }
        ++misses_;
        return false;
    }

    /**
     * Credit @p n accesses that all hit the line most recently touched
     * by access(). Used by the threaded burst engine, which performs
     * one real access() when it enters an I-line and batches the
     * remaining same-line hits: since repeated hits on one line only
     * bump that line's LRU stamp, the relative LRU order of all lines
     * is unchanged by folding them into the single real access.
     */
    void addBatchedHits(u64 n)
    {
        accesses_ += n;
        hits_ += n;
    }

    /** Probe without updating LRU or statistics. */
    bool contains(Addr addr) const;

    /**
     * Probe for @p addr without touching LRU or statistics; on a hit,
     * stores the matching line slot into @p slot. Lets side structures
     * keyed by line slot (the core's pre-decoded µop cache) find the
     * entry backing an address.
     */
    bool probeSlot(Addr addr, u32 *slot) const;

    /** Line slot touched by the most recent access() hit or fill(). */
    u32 lastSlot() const { return last_slot_; }

    /** Total line slots (sets × associativity). */
    u32 numLineSlots() const { return num_sets_ * params_.assoc; }

    /**
     * Allocate a line for @p addr (after a miss was serviced),
     * evicting the LRU way. @p dirty marks the new line dirty
     * (write-allocate stores).
     */
    FillResult fill(Addr addr, bool dirty = false);

    /** Invalidate everything (used between benchmark runs). */
    void invalidateAll();

    /**
     * Coherence hook: drop the line covering @p addr if present,
     * without touching LRU state or the hit/miss statistics. Returns
     * true when a line was invalidated. Used by the multi-core
     * write-through coherence point — a remote store to a shared
     * address invalidates the local copy, so the next local access
     * misses and refills over the bus (docs/multicore.md).
     */
    bool
    invalidateLine(Addr addr)
    {
        const u32 set = setIndex(addr);
        const u32 tag = tagOf(addr);
        Line *base = &lines_[static_cast<size_t>(set) * params_.assoc];
        for (u32 way = 0; way < params_.assoc; ++way) {
            Line &line = base[way];
            if (line.valid && line.tag == tag) {
                line.valid = false;
                line.dirty = false;
                return true;
            }
        }
        return false;
    }

    u64 hits() const { return hits_.value(); }
    u64 misses() const { return misses_.value(); }

    const CacheParams &params() const { return params_; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        u32 tag = 0;
        u64 lru = 0;    // larger == more recently used
    };

    u32 setIndex(Addr addr) const
    {
        return (addr >> line_shift_) & (num_sets_ - 1);
    }
    u32 tagOf(Addr addr) const { return addr >> tag_shift_; }

    CacheParams params_;
    u32 num_sets_;
    u32 line_shift_;
    u32 tag_shift_;   //!< line_shift_ + log2(num_sets_), precomputed
    std::vector<Line> lines_;   // num_sets_ * assoc, set-major
    u64 use_clock_ = 0;
    u32 last_slot_ = 0;

    StatGroup stats_;
    Counter accesses_;
    Counter hits_;
    Counter misses_;
    Counter writebacks_;
    Formula miss_rate_;
};

}  // namespace flexcore

#endif  // FLEXCORE_MEMORY_CACHE_H_
