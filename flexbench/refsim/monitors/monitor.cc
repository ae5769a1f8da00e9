#include "monitors/monitor.h"

namespace flexcore {

u8 *
TagStore::findPage(u32 page) const
{
    if (slots_.empty())
        return nullptr;
    const u32 mask = static_cast<u32>(slots_.size()) - 1;
    for (u32 i = hashPage(page) & mask;; i = (i + 1) & mask) {
        const Slot &slot = slots_[i];
        if (slot.key == page) {
            last_page_ = page;
            last_tags_ = slot.tags.get();
            return slot.tags.get();
        }
        if (slot.key == kNoPage)
            return nullptr;
    }
}

u8 *
TagStore::createPage(u32 page)
{
    if (slots_.empty() || used_ * 2 >= slots_.size())
        grow();
    const u32 mask = static_cast<u32>(slots_.size()) - 1;
    u32 i = hashPage(page) & mask;
    while (slots_[i].key != kNoPage)
        i = (i + 1) & mask;
    Slot &slot = slots_[i];
    slot.key = page;
    slot.tags = std::make_unique<u8[]>(kWordsPerPage);
    ++used_;
    last_page_ = page;
    last_tags_ = slot.tags.get();
    return slot.tags.get();
}

void
TagStore::grow()
{
    const size_t capacity = slots_.empty() ? 64 : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(capacity);
    const u32 mask = static_cast<u32>(capacity) - 1;
    for (Slot &slot : old) {
        if (slot.key == kNoPage)
            continue;
        u32 i = hashPage(slot.key) & mask;
        while (slots_[i].key != kNoPage)
            i = (i + 1) & mask;
        slots_[i] = std::move(slot);
    }
}

void
TagStore::clear()
{
    slots_.clear();
    used_ = 0;
    last_page_ = kNoPage;
    last_tags_ = nullptr;
}

Monitor::Monitor() = default;

void
Monitor::onProgramLoad(Addr /*base*/, u32 /*size*/)
{
}

void
Monitor::reset()
{
    mem_tags_.clear();
    reg_tags_.clear();
    meta_base_ = kDefaultMetaBase;
    policy_ = 1;
    last_trap_reason_.clear();
}

}  // namespace flexcore
