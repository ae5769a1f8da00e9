/**
 * @file
 * Software-instrumentation monitoring models. Instead of forwarding a
 * trace to a fabric, each committed instruction is expanded in-line
 * with the bookkeeping instruction sequence a binary-instrumentation
 * implementation (LIFT / Purify class, §V-C) would execute on the same
 * core: extra ALU work plus tag loads/stores that go through the real
 * D-cache to a shadow memory region.
 */

#ifndef FLEXCORE_MONITORS_SOFTWARE_H_
#define FLEXCORE_MONITORS_SOFTWARE_H_

#include <string_view>
#include <vector>

#include "common/types.h"
#include "isa/instruction.h"

namespace flexcore {

/** One synthetic instrumentation instruction. */
struct SwMicroOp
{
    enum class Kind : u8 { kAlu, kLoad, kStore };
    Kind kind = Kind::kAlu;
    Addr addr = 0;   //!< effective address for kLoad/kStore
};

/** Interface the core consults at commit when software monitoring is on. */
class SoftwareMonitor
{
  public:
    virtual ~SoftwareMonitor() = default;

    virtual std::string_view name() const = 0;

    /**
     * Append the instrumentation expansion of one committed
     * instruction to @p out. @p effective_addr is valid for loads and
     * stores.
     */
    virtual void expand(const Instruction &inst, Addr effective_addr,
                        std::vector<SwMicroOp> *out) const = 0;
};

/** Shadow-memory base used by all software monitors. */
inline constexpr Addr kSwShadowBase = 0x30000000;

/** Factory: software DIFT (LIFT-class inline taint tracking). */
SoftwareMonitor *softwareDift();
/** Factory: software UMC (Purify-class initialization tracking). */
SoftwareMonitor *softwareUmc();
/** Factory: software bounds checking (color-table lookups). */
SoftwareMonitor *softwareBc();
/** Factory: software SEC (instruction duplication + compare). */
SoftwareMonitor *softwareSec();

}  // namespace flexcore

#endif  // FLEXCORE_MONITORS_SOFTWARE_H_
