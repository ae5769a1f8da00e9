/**
 * @file
 * SPARC V8 windowed integer register file: 8 globals plus 16 registers
 * per window, with the standard in/out overlap between adjacent
 * windows. %g0 reads as zero and ignores writes.
 */

#ifndef FLEXCORE_CORE_REGFILE_H_
#define FLEXCORE_CORE_REGFILE_H_

#include <array>

#include "common/types.h"
#include "isa/registers.h"

namespace flexcore {

class RegWindowFile
{
  public:
    RegWindowFile() { phys_.fill(0); }

    unsigned cwp() const { return cwp_; }

    /** SAVE decrements CWP (mod NWINDOWS). */
    void decrementCwp() { cwp_ = (cwp_ + kNumWindows - 1) % kNumWindows; }
    /** RESTORE increments CWP. */
    void incrementCwp() { cwp_ = (cwp_ + 1) % kNumWindows; }

    /** Physical index of an architectural register in window @p cwp. */
    static unsigned
    physIndex(unsigned cwp, unsigned arch_reg)
    {
        return physRegIndex(cwp, arch_reg);
    }

    /** Physical index in the current window. */
    unsigned physIndex(unsigned arch_reg) const
    {
        return physRegIndex(cwp_, arch_reg);
    }

    u32
    read(unsigned arch_reg) const
    {
        return arch_reg == 0 ? 0 : phys_[physIndex(arch_reg)];
    }

    void
    write(unsigned arch_reg, u32 value)
    {
        if (arch_reg != 0)
            phys_[physIndex(arch_reg)] = value;
    }

    u32 readPhys(unsigned phys) const
    {
        return phys == 0 ? 0 : phys_[phys];
    }

    void writePhys(unsigned phys, u32 value)
    {
        if (phys != 0)
            phys_[phys] = value;
    }

    /**
     * Fault-injection hook: flip one bit of a physical register in
     * place (%g0 is hard-wired and ignores flips). Only the fault
     * injector calls this; it is never on a simulation path.
     */
    void
    flipBitPhys(unsigned phys, unsigned bit)
    {
        if (phys != 0)
            phys_[phys % kNumPhysRegs] ^= 1u << (bit & 31);
    }

  private:
    std::array<u32, kNumPhysRegs> phys_;
    unsigned cwp_ = 0;
};

}  // namespace flexcore

#endif  // FLEXCORE_CORE_REGFILE_H_
