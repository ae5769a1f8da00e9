/**
 * @file
 * The dedicated meta-data L1 cache (§III-D). Write-back/write-allocate
 * with bit-granularity write enables: a tag update smaller than a word
 * completes in a single cache access. The ablation mode (bit-mask
 * writes disabled) models the paper's observation that without this
 * feature every sub-word update costs an explicit read followed by an
 * explicit write.
 */

#ifndef FLEXCORE_MEMORY_META_CACHE_H_
#define FLEXCORE_MEMORY_META_CACHE_H_

#include "memory/cache.h"

namespace flexcore {

class MetaCache
{
  public:
    MetaCache(StatGroup *parent, CacheParams params,
              bool bit_mask_writes = true);

    /**
     * Timing lookup for a meta-data access. Returns true on a hit.
     * Writes mark the line dirty on a hit; on a miss the caller
     * refills via fill() once the bus transaction completes.
     */
    bool access(Addr meta_addr, bool is_write);

    /** Allocate after a serviced miss; may evict a dirty victim. */
    Cache::FillResult fill(Addr meta_addr, bool dirty);

    /**
     * Number of cache accesses a sub-word tag *write* costs: 1 with
     * bit-granularity write enables, 2 (read-modify-write) without.
     */
    u32 writeAccessCost() const { return bit_mask_writes_ ? 1 : 2; }

    bool bitMaskWrites() const { return bit_mask_writes_; }

    void invalidateAll() { cache_.invalidateAll(); }

    u64 hits() const { return cache_.hits(); }
    u64 misses() const { return cache_.misses(); }

    /**
     * Byte address of the meta-data for the data word containing
     * @p data_addr, given @p tag_bits_per_word (1, 4, or 8) and the
     * meta-data region base. Multiple data words share one meta byte
     * when tags are narrower than 8 bits.
     */
    static Addr metaByteAddr(Addr meta_base, Addr data_addr,
                             unsigned tag_bits_per_word);

  private:
    Cache cache_;
    bool bit_mask_writes_;
};

}  // namespace flexcore

#endif  // FLEXCORE_MEMORY_META_CACHE_H_
