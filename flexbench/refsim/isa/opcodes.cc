#include "isa/opcodes.h"

#include "common/log.h"

namespace flexcore {

std::string_view
opName(Op op)
{
    switch (op) {
      case Op::kSethi: return "sethi";
      case Op::kBicc: return "b";
      case Op::kCall: return "call";
      case Op::kAdd: return "add";
      case Op::kAddcc: return "addcc";
      case Op::kSub: return "sub";
      case Op::kSubcc: return "subcc";
      case Op::kAnd: return "and";
      case Op::kAndcc: return "andcc";
      case Op::kOr: return "or";
      case Op::kOrcc: return "orcc";
      case Op::kXor: return "xor";
      case Op::kXorcc: return "xorcc";
      case Op::kAndn: return "andn";
      case Op::kOrn: return "orn";
      case Op::kXnor: return "xnor";
      case Op::kSll: return "sll";
      case Op::kSrl: return "srl";
      case Op::kSra: return "sra";
      case Op::kUmul: return "umul";
      case Op::kSmul: return "smul";
      case Op::kUmulcc: return "umulcc";
      case Op::kSmulcc: return "smulcc";
      case Op::kUdiv: return "udiv";
      case Op::kSdiv: return "sdiv";
      case Op::kJmpl: return "jmpl";
      case Op::kSave: return "save";
      case Op::kRestore: return "restore";
      case Op::kRdy: return "rd";
      case Op::kWry: return "wr";
      case Op::kTicc: return "ta";
      case Op::kCpop1: return "cpop1";
      case Op::kCpop2: return "cpop2";
      case Op::kLd: return "ld";
      case Op::kLdub: return "ldub";
      case Op::kLduh: return "lduh";
      case Op::kSt: return "st";
      case Op::kStb: return "stb";
      case Op::kSth: return "sth";
      case Op::kInvalid: return "<invalid>";
      default: return "<?>";
    }
}

std::string_view
instrTypeName(InstrType type)
{
    switch (type) {
      case kTypeNop: return "nop";
      case kTypeAluAdd: return "alu_add";
      case kTypeAluSub: return "alu_sub";
      case kTypeAluLogic: return "alu_logic";
      case kTypeAluShift: return "alu_shift";
      case kTypeSethi: return "sethi";
      case kTypeMul: return "mul";
      case kTypeDiv: return "div";
      case kTypeLoadWord: return "load_word";
      case kTypeLoadByte: return "load_byte";
      case kTypeLoadHalf: return "load_half";
      case kTypeStoreWord: return "store_word";
      case kTypeStoreByte: return "store_byte";
      case kTypeStoreHalf: return "store_half";
      case kTypeBranch: return "branch";
      case kTypeCall: return "call";
      case kTypeIndirectJump: return "indirect_jump";
      case kTypeSave: return "save";
      case kTypeRestore: return "restore";
      case kTypeReadY: return "rdy";
      case kTypeWriteY: return "wry";
      case kTypeCpop1: return "cpop1";
      case kTypeCpop2: return "cpop2";
      case kTypeTrap: return "trap";
      default: return "reserved";
    }
}

std::string_view
condName(Cond cond)
{
    switch (cond) {
      case Cond::kN: return "n";
      case Cond::kE: return "e";
      case Cond::kLe: return "le";
      case Cond::kL: return "l";
      case Cond::kLeu: return "leu";
      case Cond::kCs: return "cs";
      case Cond::kNeg: return "neg";
      case Cond::kVs: return "vs";
      case Cond::kA: return "a";
      case Cond::kNe: return "ne";
      case Cond::kG: return "g";
      case Cond::kGe: return "ge";
      case Cond::kGu: return "gu";
      case Cond::kCc: return "cc";
      case Cond::kPos: return "pos";
      case Cond::kVc: return "vc";
      default: return "?";
    }
}

InstrType
classOf(Op op)
{
    switch (op) {
      case Op::kSethi: return kTypeSethi;
      case Op::kBicc: return kTypeBranch;
      case Op::kCall: return kTypeCall;
      case Op::kAdd:
      case Op::kAddcc: return kTypeAluAdd;
      case Op::kSub:
      case Op::kSubcc: return kTypeAluSub;
      case Op::kAnd:
      case Op::kAndcc:
      case Op::kOr:
      case Op::kOrcc:
      case Op::kXor:
      case Op::kXorcc:
      case Op::kAndn:
      case Op::kOrn:
      case Op::kXnor: return kTypeAluLogic;
      case Op::kSll:
      case Op::kSrl:
      case Op::kSra: return kTypeAluShift;
      case Op::kUmul:
      case Op::kSmul:
      case Op::kUmulcc:
      case Op::kSmulcc: return kTypeMul;
      case Op::kUdiv:
      case Op::kSdiv: return kTypeDiv;
      case Op::kJmpl: return kTypeIndirectJump;
      case Op::kSave: return kTypeSave;
      case Op::kRestore: return kTypeRestore;
      case Op::kRdy: return kTypeReadY;
      case Op::kWry: return kTypeWriteY;
      case Op::kTicc: return kTypeTrap;
      case Op::kCpop1: return kTypeCpop1;
      case Op::kCpop2: return kTypeCpop2;
      case Op::kLd: return kTypeLoadWord;
      case Op::kLdub: return kTypeLoadByte;
      case Op::kLduh: return kTypeLoadHalf;
      case Op::kSt: return kTypeStoreWord;
      case Op::kStb: return kTypeStoreByte;
      case Op::kSth: return kTypeStoreHalf;
      default: return kTypeNop;
    }
}

}  // namespace flexcore
