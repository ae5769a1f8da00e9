#include "assembler/program.h"

#include "common/log.h"

namespace flexcore {

void
Program::appendWord(u32 word)
{
    image_.push_back(static_cast<u8>(word >> 24));
    image_.push_back(static_cast<u8>(word >> 16));
    image_.push_back(static_cast<u8>(word >> 8));
    image_.push_back(static_cast<u8>(word));
}

void
Program::patchWord(Addr addr, u32 word)
{
    if (addr < base_ || addr + 4 > end())
        FLEX_PANIC("patchWord outside image: ", addr);
    const u32 off = addr - base_;
    image_[off + 0] = static_cast<u8>(word >> 24);
    image_[off + 1] = static_cast<u8>(word >> 16);
    image_[off + 2] = static_cast<u8>(word >> 8);
    image_[off + 3] = static_cast<u8>(word);
}

u32
Program::wordAt(Addr addr) const
{
    if (addr < base_ || addr + 4 > end())
        FLEX_PANIC("wordAt outside image: ", addr);
    const u32 off = addr - base_;
    return (u32{image_[off]} << 24) | (u32{image_[off + 1]} << 16) |
           (u32{image_[off + 2]} << 8) | u32{image_[off + 3]};
}

void
Program::padTo(Addr addr)
{
    if (addr < end())
        FLEX_PANIC("padTo before current end");
    image_.resize(addr - base_, 0);
}

bool
Program::defineSymbol(const std::string &name, u32 value)
{
    return symbols_.emplace(name, value).second;
}

bool
Program::lookupSymbol(const std::string &name, u32 *value) const
{
    const auto it = symbols_.find(name);
    if (it == symbols_.end())
        return false;
    *value = it->second;
    return true;
}

}  // namespace flexcore
