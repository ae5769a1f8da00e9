#include "memory/memory.h"

#include <cstring>

#include "common/log.h"

namespace flexcore {

const u8 Memory::kZeroPage[Memory::kPageSize] = {};

void
Memory::setSharedWindow(Memory *backing, Addr base, u32 size)
{
    if ((base & (kPageSize - 1)) != 0 || (size & (kPageSize - 1)) != 0)
        FLEX_PANIC("shared window must be page-aligned");
    shared_ = backing;
    shared_base_ = base;
    shared_size_ = size;
}

u8 *
Memory::pageFor(Addr addr)
{
    const u32 page = addr >> kPageShift;
    if (page == last_page_idx_)
        return last_page_;
    if (shared_ && addr - shared_base_ < shared_size_) {
        // Shared-window pages live in (and are owned by) the backing
        // memory; they are stable heap blocks, so caching one in this
        // memory's one-entry page cache is safe.
        u8 *block = shared_->pageFor(addr);
        last_page_idx_ = page;
        last_page_ = block;
        return block;
    }
    auto it = pages_.find(page);
    if (it == pages_.end()) {
        auto storage = std::make_unique<u8[]>(kPageSize);
        std::memset(storage.get(), 0, kPageSize);
        it = pages_.emplace(page, std::move(storage)).first;
    }
    last_page_idx_ = page;
    last_page_ = it->second.get();
    return last_page_;
}

const u8 *
Memory::pageForRead(Addr addr) const
{
    const u32 page = addr >> kPageShift;
    if (page == last_page_idx_)
        return last_page_;
    const Memory *owner =
        (shared_ && addr - shared_base_ < shared_size_) ? shared_ : this;
    const auto it = owner->pages_.find(page);
    if (it == owner->pages_.end())
        return kZeroPage;   // uncached: a write may allocate it later
    last_page_idx_ = page;
    last_page_ = it->second.get();
    return last_page_;
}

u8
Memory::read8(Addr addr) const
{
    return pageForRead(addr)[addr & (kPageSize - 1)];
}

u16
Memory::read16(Addr addr) const
{
    if (addr & 1)
        FLEX_PANIC("unaligned 16-bit read at ", addr);
    const u8 *page = pageForRead(addr);
    const u32 off = addr & (kPageSize - 1);
    return static_cast<u16>((page[off] << 8) | page[off + 1]);
}

u32
Memory::read32(Addr addr) const
{
    if (addr & 3)
        FLEX_PANIC("unaligned 32-bit read at ", addr);
    const u8 *page = pageForRead(addr);
    const u32 off = addr & (kPageSize - 1);
    return (u32{page[off]} << 24) | (u32{page[off + 1]} << 16) |
           (u32{page[off + 2]} << 8) | u32{page[off + 3]};
}

void
Memory::write8(Addr addr, u8 value)
{
    pageFor(addr)[addr & (kPageSize - 1)] = value;
}

void
Memory::write16(Addr addr, u16 value)
{
    if (addr & 1)
        FLEX_PANIC("unaligned 16-bit write at ", addr);
    u8 *page = pageFor(addr);
    const u32 off = addr & (kPageSize - 1);
    page[off] = static_cast<u8>(value >> 8);
    page[off + 1] = static_cast<u8>(value);
}

void
Memory::write32(Addr addr, u32 value)
{
    if (addr & 3)
        FLEX_PANIC("unaligned 32-bit write at ", addr);
    u8 *page = pageFor(addr);
    const u32 off = addr & (kPageSize - 1);
    page[off] = static_cast<u8>(value >> 24);
    page[off + 1] = static_cast<u8>(value >> 16);
    page[off + 2] = static_cast<u8>(value >> 8);
    page[off + 3] = static_cast<u8>(value);
}

void
Memory::writeBlock(Addr addr, const u8 *data, u32 size)
{
    for (u32 i = 0; i < size; ++i)
        write8(addr + i, data[i]);
}

void
Memory::readBlock(Addr addr, u8 *data, u32 size) const
{
    for (u32 i = 0; i < size; ++i)
        data[i] = read8(addr + i);
}

}  // namespace flexcore
