/**
 * @file
 * Functional backing memory: a sparse, page-allocated flat byte store
 * covering the full 32-bit physical address space. Big-endian accessors
 * match the SPARC ISA.
 */

#ifndef FLEXCORE_MEMORY_MEMORY_H_
#define FLEXCORE_MEMORY_MEMORY_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace flexcore {

class Memory
{
  public:
    static constexpr u32 kPageShift = 12;
    static constexpr u32 kPageSize = 1u << kPageShift;

    u8 read8(Addr addr) const;
    u16 read16(Addr addr) const;    // addr must be 2-byte aligned
    u32 read32(Addr addr) const;    // addr must be 4-byte aligned

    void write8(Addr addr, u8 value);
    void write16(Addr addr, u16 value);
    void write32(Addr addr, u32 value);

    /** Bulk copy-in used by the program loader. */
    void writeBlock(Addr addr, const u8 *data, u32 size);

    /** Bulk copy-out used by tests and golden-model checks. */
    void readBlock(Addr addr, u8 *data, u32 size) const;

    /**
     * Fault-injection hook: flip one bit of the byte at @p addr.
     * Callers that may hit decoded text must also invalidate the
     * core's µop cache (Core::invalidateUopsAt).
     */
    void
    flipBit(Addr addr, u32 bit)
    {
        write8(addr, read8(addr) ^ static_cast<u8>(1u << (bit & 7)));
    }

    /** Number of pages that have been touched. */
    size_t allocatedPages() const { return pages_.size(); }

    /**
     * Alias @p size bytes at @p base (both page-aligned) onto
     * @p backing's storage: accesses in the window read and write the
     * backing memory's pages, so every Memory sharing one backing sees
     * the same bytes there. This is the multi-core coherent window
     * (docs/multicore.md); single-core systems never set one and pay
     * nothing on the cached-page fast path.
     */
    void setSharedWindow(Memory *backing, Addr base, u32 size);

  private:
    u8 *pageFor(Addr addr);
    const u8 *pageForRead(Addr addr) const;

    Memory *shared_ = nullptr;   //!< backing store for the window
    Addr shared_base_ = 0;
    u32 shared_size_ = 0;

    std::unordered_map<u32, std::unique_ptr<u8[]>> pages_;
    // One-entry page cache: consecutive accesses overwhelmingly land in
    // the same 4 KB page, so the common case skips the hash lookup.
    // Only ever points at an *allocated* page (never kZeroPage — a
    // later write could allocate the page behind a cached zero page),
    // and pages are never freed, so it needs no invalidation. The page
    // payloads are stable heap blocks, so rehashing is harmless too.
    mutable u32 last_page_idx_ = ~u32{0};
    mutable u8 *last_page_ = nullptr;
    static const u8 kZeroPage[kPageSize];
};

}  // namespace flexcore

#endif  // FLEXCORE_MEMORY_MEMORY_H_
