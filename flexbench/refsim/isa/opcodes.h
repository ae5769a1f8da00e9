/**
 * @file
 * Opcode and instruction-class definitions for the SPARC V8 subset
 * implemented by the FlexCore simulator.
 *
 * The subset covers the integer instructions the Leon3 prototype in the
 * paper executes: ALU ops (with and without condition codes), SETHI,
 * loads/stores (word/half/byte), Bicc branches with annul bits and delay
 * slots, CALL/JMPL, SAVE/RESTORE with register windows, UMUL/SMUL/
 * UDIV/SDIV, RDY/WRY, Ticc software traps, and the two co-processor
 * opcode spaces (CPop1/CPop2) that carry monitor-visible instructions.
 */

#ifndef FLEXCORE_ISA_OPCODES_H_
#define FLEXCORE_ISA_OPCODES_H_

#include <string_view>

#include "common/types.h"

namespace flexcore {

/** Mnemonic-level opcodes. */
enum class Op : u8 {
    // Format 2
    kSethi,
    kBicc,      // all conditional branches; condition in Instruction::cond
    // Format 1
    kCall,
    // Format 3 arithmetic/logic (op = 2)
    kAdd, kAddcc,
    kSub, kSubcc,
    kAnd, kAndcc,
    kOr, kOrcc,
    kXor, kXorcc,
    kAndn, kOrn, kXnor,
    kSll, kSrl, kSra,
    kUmul, kSmul, kUmulcc, kSmulcc,
    kUdiv, kSdiv,
    kJmpl,
    kSave, kRestore,
    kRdy, kWry,
    kTicc,      // software trap (used for exit/putchar syscalls)
    kCpop1, kCpop2,
    // Format 3 memory (op = 3)
    kLd, kLdub, kLduh,
    kSt, kStb, kSth,
    kInvalid,
    kNumOps,
};

/**
 * CFGR instruction classes. The forwarding configuration register holds
 * two bits of policy per class (32 classes in the SPARC prototype,
 * Table II). Several Op values fold into one class (e.g. ADD and ADDcc
 * are both kTypeAluAdd).
 */
enum InstrType : u8 {
    kTypeNop = 0,
    kTypeAluAdd,
    kTypeAluSub,
    kTypeAluLogic,
    kTypeAluShift,
    kTypeSethi,
    kTypeMul,
    kTypeDiv,
    kTypeLoadWord,
    kTypeLoadByte,
    kTypeLoadHalf,
    kTypeStoreWord,
    kTypeStoreByte,
    kTypeStoreHalf,
    kTypeBranch,
    kTypeCall,
    kTypeIndirectJump,
    kTypeSave,
    kTypeRestore,
    kTypeReadY,
    kTypeWriteY,
    kTypeCpop1,
    kTypeCpop2,
    kTypeTrap,
    kNumUsedInstrTypes,
    kNumInstrTypes = 32,
};

/** Bicc condition field values (SPARC V8 encoding). */
enum class Cond : u8 {
    kN = 0x0,     // never
    kE = 0x1,     // equal (Z)
    kLe = 0x2,
    kL = 0x3,
    kLeu = 0x4,
    kCs = 0x5,    // carry set (unsigned <)
    kNeg = 0x6,
    kVs = 0x7,
    kA = 0x8,     // always
    kNe = 0x9,
    kG = 0xa,
    kGe = 0xb,
    kGu = 0xc,
    kCc = 0xd,    // carry clear (unsigned >=)
    kPos = 0xe,
    kVc = 0xf,
};

/**
 * Co-processor (CPop1) functions understood by the monitoring
 * extensions. The encoding deviates slightly from SPARC's CPop format
 * to make room for a signed 9-bit immediate: fn lives in bits [12:9].
 */
enum class CpopFn : u8 {
    kSetRegTag = 0,   // tag value in rd field; target reg = rs1
    kClearRegTag = 1,
    kSetMemTag = 2,   // addr = R[rs1] + simm9; tag value in rd field
    kClearMemTag = 3,
    kSetPolicy = 4,   // policy word = R[rs1] + simm9 (rs1 usually %g0)
    kReadTag = 5,     // 'read from co-processor': BFIFO value -> rd
    kSetBase = 6,     // meta-data base address = R[rs1]
    kNumFns,
};

/** Software trap numbers used with `ta` (trap always). */
enum class SysTrap : u8 {
    kExit = 0,       // halt simulation; exit code in %o0
    kPutChar = 1,    // console output of the low byte of %o0
    kPutInt = 2,     // console output of %o0 as decimal
    kCoreId = 3,     // %o0 = this core's index (0 on single-core)
};

/** Human-readable mnemonic for an opcode. */
std::string_view opName(Op op);

/** Human-readable name of a CFGR instruction class. */
std::string_view instrTypeName(InstrType type);

/** Human-readable branch-condition suffix ("a", "ne", ...). */
std::string_view condName(Cond cond);

/** The CFGR class an opcode belongs to. */
InstrType classOf(Op op);

// The opcode predicates below run on the per-commit hot path, so they
// are defined inline here.

/** True for LD/LDUB/LDUH. */
inline bool
isLoad(Op op)
{
    return op == Op::kLd || op == Op::kLdub || op == Op::kLduh;
}

/** True for ST/STB/STH. */
inline bool
isStore(Op op)
{
    return op == Op::kSt || op == Op::kStb || op == Op::kSth;
}

/** True for any ALU op (add/sub/logic/shift, with or without cc). */
inline bool
isAlu(Op op)
{
    switch (op) {
      case Op::kAdd: case Op::kAddcc:
      case Op::kSub: case Op::kSubcc:
      case Op::kAnd: case Op::kAndcc:
      case Op::kOr: case Op::kOrcc:
      case Op::kXor: case Op::kXorcc:
      case Op::kAndn: case Op::kOrn: case Op::kXnor:
      case Op::kSll: case Op::kSrl: case Op::kSra:
        return true;
      default:
        return false;
    }
}

/** True if the op writes the integer condition codes. */
inline bool
writesIcc(Op op)
{
    switch (op) {
      case Op::kAddcc: case Op::kSubcc:
      case Op::kAndcc: case Op::kOrcc: case Op::kXorcc:
      case Op::kUmulcc: case Op::kSmulcc:
        return true;
      default:
        return false;
    }
}

/** True for control transfers with a delay slot (Bicc, CALL, JMPL). */
inline bool
hasDelaySlot(Op op)
{
    return op == Op::kBicc || op == Op::kCall || op == Op::kJmpl;
}

}  // namespace flexcore

#endif  // FLEXCORE_ISA_OPCODES_H_
