/**
 * @file
 * Architectural and physical (windowed) register naming for the SPARC
 * V8 subset. Architectural registers are %g0-%g7, %o0-%o7, %l0-%l7,
 * %i0-%i7 (indices 0-31). With NWINDOWS register windows the physical
 * file holds 8 globals plus 16 registers per window; the outs of window
 * w alias the ins of window w-1 (SAVE decrements CWP, RESTORE
 * increments it), exactly as in SPARC V8.
 */

#ifndef FLEXCORE_ISA_REGISTERS_H_
#define FLEXCORE_ISA_REGISTERS_H_

#include <string>

#include "common/types.h"

namespace flexcore {

/** Number of register windows (the Leon3 default). */
inline constexpr unsigned kNumWindows = 8;

/** Architectural register count visible at any instant. */
inline constexpr unsigned kNumArchRegs = 32;

/** Total physical integer registers: 8 globals + 16 per window. */
inline constexpr unsigned kNumPhysRegs = 8 + 16 * kNumWindows;

/** Well-known architectural register indices. */
inline constexpr unsigned kRegG0 = 0;
inline constexpr unsigned kRegO0 = 8;
inline constexpr unsigned kRegSp = 14;   // %o6
inline constexpr unsigned kRegO7 = 15;   // call return address
inline constexpr unsigned kRegL0 = 16;
inline constexpr unsigned kRegI0 = 24;
inline constexpr unsigned kRegFp = 30;   // %i6
inline constexpr unsigned kRegI7 = 31;

/**
 * Map an architectural register to its physical index for the given
 * current window pointer. Globals map to [0,8); windowed registers map
 * so that ins of window w coincide with outs of window (w+1) mod N.
 */
constexpr unsigned
physRegIndex(unsigned cwp, unsigned arch_reg)
{
    if (arch_reg < 8)
        return arch_reg;
    return 8 + (cwp * 16 + (arch_reg - 8)) % (16 * kNumWindows);
}

/** Canonical assembly name for an architectural register ("%o3"). */
std::string archRegName(unsigned arch_reg);

/**
 * Parse a register name. Accepts %g0-%g7/%o/%l/%i forms plus the
 * aliases %sp, %fp, and %r0-%r31. Returns false on failure.
 */
bool parseRegName(const std::string &name, unsigned *arch_reg);

}  // namespace flexcore

#endif  // FLEXCORE_ISA_REGISTERS_H_
