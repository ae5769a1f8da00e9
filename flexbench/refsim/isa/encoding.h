/**
 * @file
 * Binary encode/decode between 32-bit SPARC V8 instruction words and
 * the decoded Instruction struct.
 *
 * The encodings follow the SPARC V8 manual for every instruction except
 * CPop1/CPop2, where we repurpose bits [13:9] as an i bit plus a 4-bit
 * function code and bits [8:0] as a signed 9-bit immediate so that
 * monitor-visible instructions can carry small offsets and tag values
 * (documented in DESIGN.md).
 */

#ifndef FLEXCORE_ISA_ENCODING_H_
#define FLEXCORE_ISA_ENCODING_H_

#include "common/types.h"
#include "isa/instruction.h"

namespace flexcore {

/** Decode a 32-bit instruction word; inst.valid = false on failure. */
Instruction decode(u32 word);

/**
 * Encode a decoded instruction back to its 32-bit word. The op, rd,
 * rs1, rs2, has_imm, simm/imm22/disp, cond, annul, and cpop_fn fields
 * must be populated; raw and type are ignored.
 */
u32 encode(const Instruction &inst);

}  // namespace flexcore

#endif  // FLEXCORE_ISA_ENCODING_H_
