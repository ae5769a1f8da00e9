/**
 * @file
 * An assembled program image: a contiguous byte image with a base
 * address, an entry point, and a symbol table.
 */

#ifndef FLEXCORE_ASSEMBLER_PROGRAM_H_
#define FLEXCORE_ASSEMBLER_PROGRAM_H_

#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace flexcore {

class Program
{
  public:
    Program() = default;

    /** Base (load) address of the image. */
    Addr base() const { return base_; }
    void setBase(Addr base) { base_ = base; }

    /** Entry point; defaults to the base address or the _start label. */
    Addr entry() const { return entry_; }
    void setEntry(Addr entry) { entry_ = entry; }

    /** Raw image bytes, to be copied into simulated memory at base(). */
    const std::vector<u8> &image() const { return image_; }

    /** Size of the image in bytes. */
    u32 size() const { return static_cast<u32>(image_.size()); }

    /** Append one byte at the current end of the image. */
    void appendByte(u8 byte) { image_.push_back(byte); }

    /** Append a 32-bit big-endian word (SPARC is big-endian). */
    void appendWord(u32 word);

    /** Write a 32-bit big-endian word at an absolute address. */
    void patchWord(Addr addr, u32 word);

    /** Read back a 32-bit word at an absolute address. */
    u32 wordAt(Addr addr) const;

    /** Pad with zero bytes up to an absolute address. */
    void padTo(Addr addr);

    /** Current end address (base + size). */
    Addr end() const { return base_ + size(); }

    /** Define a symbol. Returns false if it already exists. */
    bool defineSymbol(const std::string &name, u32 value);

    /** Look up a symbol; returns false if undefined. */
    bool lookupSymbol(const std::string &name, u32 *value) const;

    const std::map<std::string, u32> &symbols() const { return symbols_; }

  private:
    Addr base_ = 0x1000;
    Addr entry_ = 0;
    std::vector<u8> image_;
    std::map<std::string, u32> symbols_;
};

}  // namespace flexcore

#endif  // FLEXCORE_ASSEMBLER_PROGRAM_H_
