#include "memory/meta_cache.h"

#include "common/log.h"

namespace flexcore {

MetaCache::MetaCache(StatGroup *parent, CacheParams params,
                     bool bit_mask_writes)
    : cache_(parent, "meta_cache", params),
      bit_mask_writes_(bit_mask_writes)
{
}

bool
MetaCache::access(Addr meta_addr, bool is_write)
{
    return cache_.access(meta_addr, is_write);
}

Cache::FillResult
MetaCache::fill(Addr meta_addr, bool dirty)
{
    return cache_.fill(meta_addr, dirty);
}

Addr
MetaCache::metaByteAddr(Addr meta_base, Addr data_addr,
                        unsigned tag_bits_per_word)
{
    const Addr word_index = data_addr >> 2;
    switch (tag_bits_per_word) {
      case 1: return meta_base + (word_index >> 3);
      case 4: return meta_base + (word_index >> 1);
      case 8: return meta_base + word_index;
      default:
        FLEX_PANIC("unsupported tag width ", tag_bits_per_word);
    }
}

}  // namespace flexcore
