/**
 * @file
 * The forwarding configuration register (CFGR): two bits of forwarding
 * policy per CFGR instruction class, 32 classes, packed into one 64-bit
 * register exactly as in Table II.
 */

#ifndef FLEXCORE_FLEXCORE_CFGR_H_
#define FLEXCORE_FLEXCORE_CFGR_H_

#include "common/types.h"
#include "isa/opcodes.h"

namespace flexcore {

/** The four per-class behaviors of §III-C. */
enum class ForwardPolicy : u8 {
    kIgnore = 0,      //!< never forward this class
    kIfNotFull = 1,   //!< forward unless the FIFO is full (may drop)
    kAlways = 2,      //!< forward; stall commit while the FIFO is full
    kWaitAck = 3,     //!< forward and stall commit until CACK
};

class Cfgr
{
  public:
    Cfgr() = default;

    ForwardPolicy
    policy(InstrType type) const
    {
        return static_cast<ForwardPolicy>((value_ >> (2 * type)) & 3);
    }

    void
    setPolicy(InstrType type, ForwardPolicy policy)
    {
        const unsigned shift = 2 * type;
        value_ = (value_ & ~(u64{3} << shift)) |
                 (static_cast<u64>(policy) << shift);
    }

    /** Apply one policy to every class. */
    void setAll(ForwardPolicy policy);

    /** Raw 64-bit register value (2 bits per class). */
    u64 value() const { return value_; }
    void setValue(u64 value) { value_ = value; }

  private:
    u64 value_ = 0;
};

}  // namespace flexcore

#endif  // FLEXCORE_FLEXCORE_CFGR_H_
