/**
 * @file
 * Trap/termination reasons reported by the core.
 */

#ifndef FLEXCORE_CORE_TRAP_H_
#define FLEXCORE_CORE_TRAP_H_

#include <string>
#include <string_view>

#include "common/types.h"

namespace flexcore {

enum class TrapKind : u8 {
    kNone = 0,
    kMonitor,          //!< TRAP asserted by the monitoring extension
    kDivByZero,
    kMemAlign,         //!< misaligned load/store/jump target
    kIllegalInstr,
    kWindowError,      //!< restore with no caller frame
    kBadSyscall,
};

struct TrapInfo
{
    TrapKind kind = TrapKind::kNone;
    Addr pc = 0;              //!< offending (or reporting) PC
    std::string detail;       //!< monitor-provided reason text

    bool pending() const { return kind != TrapKind::kNone; }
};

std::string_view trapKindName(TrapKind kind);

}  // namespace flexcore

#endif  // FLEXCORE_CORE_TRAP_H_
