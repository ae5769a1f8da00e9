/**
 * @file
 * Soft Error Check (SEC, §IV-D): verifies every ALU result from the
 * main core. Additions, subtractions, logic, and shifts are re-executed
 * bit-exactly; multiplications are verified with modular arithmetic
 * (mod the Mersenne number 7), and divisions by recomputation.
 *
 * On top of the paper's ALU check, this SEC keeps a 4-bit residue code
 * per physical register in the fabric's shadow register file: every
 * forwarded register write stores `valid | mod7(value)`, and every
 * forwarded operand is checked against its stored residue. A single
 * bit flip in the register file changes the value by 2^k, and
 * 2^k mod 7 ∈ {1, 2, 4} is never 0, so any single-bit register
 * corruption that is subsequently *used* is guaranteed to change the
 * residue and be detected. SEC needs no per-word memory meta-data and
 * no meta-data cache.
 */

#ifndef FLEXCORE_MONITORS_SEC_H_
#define FLEXCORE_MONITORS_SEC_H_

#include "core/alu.h"
#include "monitors/monitor.h"

namespace flexcore {

class SecMonitor : public Monitor
{
  public:
    std::string_view name() const override { return "sec"; }
    unsigned pipelineDepth() const override { return 6; }
    unsigned tagBitsPerWord() const override { return 0; }

    void process(const CommitPacket &packet,
                 MonitorResult *result) override;

    u64 checksPerformed() const { return checks_; }
    u64 errorsDetected() const { return errors_; }

    /** Residue of a value modulo the Mersenne number 2^3 - 1 = 7. */
    static u32 mod7(u32 value);

    /** Shadow-entry encoding: bit 3 = residue known, bits 0..2 = mod7. */
    static constexpr u8 kResidueValid = 0x8;

  private:
    /** True iff @p phys has a known residue that contradicts @p value. */
    bool operandCorrupted(u16 phys, u32 value) const;

    Alu checker_alu_;   //!< fault-free re-execution unit
    u64 checks_ = 0;
    u64 errors_ = 0;
};

}  // namespace flexcore

#endif  // FLEXCORE_MONITORS_SEC_H_
