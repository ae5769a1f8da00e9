/**
 * @file
 * The embedded meta-data (shadow) register file (§III-E): a dedicated
 * hardware block inside the reconfigurable fabric holding an 8-bit
 * shadow entry for every physical integer register of the main core,
 * addressed by the 9-bit register numbers carried in FFIFO packets.
 * Monitors store per-register tags here (DIFT uses 1 bit, BC 4 bits).
 */

#ifndef FLEXCORE_FLEXCORE_SHADOW_REGFILE_H_
#define FLEXCORE_FLEXCORE_SHADOW_REGFILE_H_

#include <array>

#include "common/types.h"
#include "isa/registers.h"

namespace flexcore {

class ShadowRegFile
{
  public:
    ShadowRegFile() { clear(); }

    /** Read the shadow entry for a physical register. %g0 is always 0. */
    u8
    read(u16 phys_reg) const
    {
        return phys_reg == 0 ? 0 : entries_[phys_reg % kNumPhysRegs];
    }

    /** Write the shadow entry for a physical register (%g0 ignored). */
    void
    write(u16 phys_reg, u8 value)
    {
        if (phys_reg != 0)
            entries_[phys_reg % kNumPhysRegs] = value;
    }

    void clear() { entries_.fill(0); }

    /**
     * Fault-injection hook: flip one bit of a shadow entry in place
     * (entry 0 is hard-wired zero and ignores flips).
     */
    void
    flipBit(u16 phys_reg, u32 bit)
    {
        if (phys_reg != 0)
            entries_[phys_reg % kNumPhysRegs] ^=
                static_cast<u8>(1u << (bit & 7));
    }

    /** Total storage bits (for the synthesis model). */
    static constexpr unsigned storageBits() { return kNumPhysRegs * 8; }

  private:
    std::array<u8, kNumPhysRegs> entries_;
};

}  // namespace flexcore

#endif  // FLEXCORE_FLEXCORE_SHADOW_REGFILE_H_
