/**
 * @file
 * The main core's integer ALU, including SPARC condition-code
 * semantics, the Y register for multiply/divide, and a transient-fault
 * injection hook used to exercise the soft-error checker (SEC).
 */

#ifndef FLEXCORE_CORE_ALU_H_
#define FLEXCORE_CORE_ALU_H_

#include "common/rng.h"
#include "common/types.h"
#include "isa/opcodes.h"

namespace flexcore {

/** SPARC integer condition codes. */
struct Icc
{
    bool n = false, z = false, v = false, c = false;

    u8 packed() const
    {
        return static_cast<u8>((n << 3) | (z << 2) | (v << 1) |
                               (c << 0));
    }
};

/** Result of one ALU operation. */
struct AluResult
{
    u32 value = 0;
    Icc icc;           //!< valid only when the op writes icc
    u32 y_out = 0;     //!< new Y register value (mul/div ops)
    bool writes_y = false;
    bool div_by_zero = false;
};

class Alu
{
  public:
    /**
     * Execute @p op on operands @p a (rs1) and @p b (rs2/simm13).
     * @p y_in supplies the Y register for UMUL/SMUL/UDIV/SDIV.
     */
    AluResult execute(Op op, u32 a, u32 b, u32 y_in);

    /**
     * Enable transient-fault injection: each result bit-flips with
     * probability @p per_op_probability per operation.
     */
    void enableFaultInjection(double per_op_probability, u64 seed);

    /** Number of faults injected so far. */
    u64 faultsInjected() const { return faults_injected_; }

    /** Condition evaluation for Bicc/Ticc. */
    static bool evalCond(Cond cond, const Icc &icc);

  private:
    double fault_probability_ = 0.0;
    Rng fault_rng_;
    u64 faults_injected_ = 0;
};

}  // namespace flexcore

#endif  // FLEXCORE_CORE_ALU_H_
