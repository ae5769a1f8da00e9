#include "memory/cache.h"

#include "common/bitutil.h"
#include "common/log.h"

namespace flexcore {

Cache::Cache(StatGroup *parent, const std::string &name, CacheParams params)
    : params_(params),
      stats_(name, parent),
      accesses_(&stats_, "accesses", "total lookups"),
      hits_(&stats_, "hits", "lookups that hit"),
      misses_(&stats_, "misses", "lookups that missed"),
      writebacks_(&stats_, "writebacks", "dirty lines evicted"),
      miss_rate_(&stats_, "miss_rate", "misses / accesses",
                 [this]() {
                     return static_cast<double>(misses_.value()) /
                            static_cast<double>(accesses_.value());
                 })
{
    if (!isPowerOfTwo(params_.size_bytes) ||
        !isPowerOfTwo(params_.line_bytes) || params_.assoc == 0 ||
        params_.size_bytes % (params_.line_bytes * params_.assoc) != 0) {
        FLEX_FATAL("bad cache geometry: size=", params_.size_bytes,
                   " line=", params_.line_bytes, " assoc=", params_.assoc);
    }
    num_sets_ = params_.size_bytes / (params_.line_bytes * params_.assoc);
    line_shift_ = log2Exact(params_.line_bytes);
    tag_shift_ = line_shift_ + log2Exact(num_sets_);
    lines_.resize(static_cast<size_t>(num_sets_) * params_.assoc);
}

bool
Cache::probeSlot(Addr addr, u32 *slot) const
{
    const u32 set = setIndex(addr);
    const u32 tag = tagOf(addr);
    const Line *base = &lines_[static_cast<size_t>(set) * params_.assoc];
    for (u32 way = 0; way < params_.assoc; ++way) {
        if (base[way].valid && base[way].tag == tag) {
            *slot = set * params_.assoc + way;
            return true;
        }
    }
    return false;
}

bool
Cache::contains(Addr addr) const
{
    const u32 set = setIndex(addr);
    const u32 tag = tagOf(addr);
    const Line *base = &lines_[static_cast<size_t>(set) * params_.assoc];
    for (u32 way = 0; way < params_.assoc; ++way) {
        if (base[way].valid && base[way].tag == tag)
            return true;
    }
    return false;
}

Cache::FillResult
Cache::fill(Addr addr, bool dirty)
{
    const u32 set = setIndex(addr);
    const u32 tag = tagOf(addr);
    Line *base = &lines_[static_cast<size_t>(set) * params_.assoc];

    // Refilling a line that is already present (e.g. two misses to the
    // same line raced) just refreshes it.
    for (u32 way = 0; way < params_.assoc; ++way) {
        if (base[way].valid && base[way].tag == tag) {
            base[way].lru = ++use_clock_;
            base[way].dirty = base[way].dirty || dirty;
            FillResult refreshed;
            refreshed.slot = set * params_.assoc + way;
            last_slot_ = refreshed.slot;
            return refreshed;
        }
    }

    Line *victim = base;
    for (u32 way = 1; way < params_.assoc; ++way) {
        Line &line = base[way];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (victim->valid && line.lru < victim->lru)
            victim = &line;
    }

    FillResult result;
    if (victim->valid) {
        result.evicted_valid = true;
        result.victim_addr =
            (static_cast<Addr>(victim->tag) << tag_shift_) |
            (set << line_shift_);
        if (victim->dirty) {
            result.evicted_dirty = true;
            ++writebacks_;
        }
    }
    victim->valid = true;
    victim->dirty = dirty;
    victim->tag = tag;
    victim->lru = ++use_clock_;
    result.slot = static_cast<u32>(victim - lines_.data());
    last_slot_ = result.slot;
    return result;
}

void
Cache::invalidateAll()
{
    for (Line &line : lines_)
        line = Line{};
}

}  // namespace flexcore
