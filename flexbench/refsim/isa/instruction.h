/**
 * @file
 * Decoded-instruction representation. The core's decode stage produces
 * this struct; the core-to-fabric interface forwards selected fields of
 * it (plus runtime values) in a CommitPacket.
 */

#ifndef FLEXCORE_ISA_INSTRUCTION_H_
#define FLEXCORE_ISA_INSTRUCTION_H_

#include "common/types.h"
#include "isa/opcodes.h"

namespace flexcore {

/** A fully decoded SPARC-subset instruction. */
struct Instruction
{
    u32 raw = 0;                     //!< original 32-bit encoding
    Op op = Op::kInvalid;            //!< mnemonic-level opcode
    InstrType type = kTypeNop;       //!< CFGR forwarding class
    Cond cond = Cond::kA;            //!< condition (Bicc/Ticc)
    bool annul = false;              //!< Bicc annul bit
    u8 rd = 0;                       //!< destination architectural reg
    u8 rs1 = 0;                      //!< source 1 architectural reg
    u8 rs2 = 0;                      //!< source 2 architectural reg
    bool has_imm = false;            //!< i bit: rs2 replaced by simm
    s32 simm = 0;                    //!< simm13 (simm9 for CPop)
    u32 imm22 = 0;                   //!< SETHI immediate
    s32 disp = 0;                    //!< branch/call displacement (words)
    CpopFn cpop_fn = CpopFn::kSetRegTag;  //!< CPop function field
    bool valid = false;              //!< decoded successfully

    // The operand predicates run for every committed instruction (and
    // once more at decode for the µop cache), so they live here where
    // every caller can inline them.

    /** True if this instruction reads rs1 as a register operand. */
    bool
    readsRs1() const
    {
        switch (op) {
          case Op::kSethi:
          case Op::kBicc:
          case Op::kCall:
          case Op::kRdy:
            return false;
          default:
            return valid;
        }
    }

    /** True if this instruction reads rs2 as a register operand. */
    bool
    readsRs2() const
    {
        if (has_imm)
            return false;
        switch (op) {
          case Op::kSethi:
          case Op::kBicc:
          case Op::kCall:
          case Op::kRdy:
          case Op::kWry:   // wr %rs1, %y in our subset (rs2 unused)
            return false;
          default:
            return valid;
        }
    }

    /** True if this instruction writes rd. */
    bool
    writesRd() const
    {
        switch (op) {
          case Op::kBicc:
          case Op::kTicc:
          case Op::kWry:
          case Op::kSt:
          case Op::kStb:
          case Op::kSth:
          case Op::kCpop2:
            return false;
          case Op::kCpop1:
            // only 'read from co-processor' writes a register
            return cpop_fn == CpopFn::kReadTag;
          case Op::kCall:
            return true;   // writes %o7
          default:
            return valid && rd != 0;
        }
    }
};

/** The canonical NOP (sethi 0, %g0). */
Instruction makeNop();

}  // namespace flexcore

#endif  // FLEXCORE_ISA_INSTRUCTION_H_
