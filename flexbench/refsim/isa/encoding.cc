#include "isa/encoding.h"

#include "common/bitutil.h"
#include "common/log.h"

namespace flexcore {

namespace {

// op3 field values for format-3 (op = 2) instructions.
enum Op3Arith : u32 {
    kOp3Add = 0x00, kOp3And = 0x01, kOp3Or = 0x02, kOp3Xor = 0x03,
    kOp3Sub = 0x04, kOp3Andn = 0x05, kOp3Orn = 0x06, kOp3Xnor = 0x07,
    kOp3Umul = 0x0a, kOp3Smul = 0x0b, kOp3Udiv = 0x0e, kOp3Sdiv = 0x0f,
    kOp3Addcc = 0x10, kOp3Andcc = 0x11, kOp3Orcc = 0x12, kOp3Xorcc = 0x13,
    kOp3Subcc = 0x14, kOp3Umulcc = 0x1a, kOp3Smulcc = 0x1b,
    kOp3Sll = 0x25, kOp3Srl = 0x26, kOp3Sra = 0x27,
    kOp3Rdy = 0x28, kOp3Wry = 0x30,
    kOp3Cpop1 = 0x36, kOp3Cpop2 = 0x37,
    kOp3Jmpl = 0x38, kOp3Ticc = 0x3a,
    kOp3Save = 0x3c, kOp3Restore = 0x3d,
};

// op3 field values for format-3 memory (op = 3) instructions.
enum Op3Mem : u32 {
    kOp3Ld = 0x00, kOp3Ldub = 0x01, kOp3Lduh = 0x02,
    kOp3St = 0x04, kOp3Stb = 0x05, kOp3Sth = 0x06,
};

Op
arithOpFromOp3(u32 op3)
{
    switch (op3) {
      case kOp3Add: return Op::kAdd;
      case kOp3And: return Op::kAnd;
      case kOp3Or: return Op::kOr;
      case kOp3Xor: return Op::kXor;
      case kOp3Sub: return Op::kSub;
      case kOp3Andn: return Op::kAndn;
      case kOp3Orn: return Op::kOrn;
      case kOp3Xnor: return Op::kXnor;
      case kOp3Umul: return Op::kUmul;
      case kOp3Smul: return Op::kSmul;
      case kOp3Udiv: return Op::kUdiv;
      case kOp3Sdiv: return Op::kSdiv;
      case kOp3Addcc: return Op::kAddcc;
      case kOp3Andcc: return Op::kAndcc;
      case kOp3Orcc: return Op::kOrcc;
      case kOp3Xorcc: return Op::kXorcc;
      case kOp3Subcc: return Op::kSubcc;
      case kOp3Umulcc: return Op::kUmulcc;
      case kOp3Smulcc: return Op::kSmulcc;
      case kOp3Sll: return Op::kSll;
      case kOp3Srl: return Op::kSrl;
      case kOp3Sra: return Op::kSra;
      case kOp3Rdy: return Op::kRdy;
      case kOp3Wry: return Op::kWry;
      case kOp3Cpop1: return Op::kCpop1;
      case kOp3Cpop2: return Op::kCpop2;
      case kOp3Jmpl: return Op::kJmpl;
      case kOp3Ticc: return Op::kTicc;
      case kOp3Save: return Op::kSave;
      case kOp3Restore: return Op::kRestore;
      default: return Op::kInvalid;
    }
}

u32
op3FromArithOp(Op op)
{
    switch (op) {
      case Op::kAdd: return kOp3Add;
      case Op::kAnd: return kOp3And;
      case Op::kOr: return kOp3Or;
      case Op::kXor: return kOp3Xor;
      case Op::kSub: return kOp3Sub;
      case Op::kAndn: return kOp3Andn;
      case Op::kOrn: return kOp3Orn;
      case Op::kXnor: return kOp3Xnor;
      case Op::kUmul: return kOp3Umul;
      case Op::kSmul: return kOp3Smul;
      case Op::kUdiv: return kOp3Udiv;
      case Op::kSdiv: return kOp3Sdiv;
      case Op::kAddcc: return kOp3Addcc;
      case Op::kAndcc: return kOp3Andcc;
      case Op::kOrcc: return kOp3Orcc;
      case Op::kXorcc: return kOp3Xorcc;
      case Op::kSubcc: return kOp3Subcc;
      case Op::kUmulcc: return kOp3Umulcc;
      case Op::kSmulcc: return kOp3Smulcc;
      case Op::kSll: return kOp3Sll;
      case Op::kSrl: return kOp3Srl;
      case Op::kSra: return kOp3Sra;
      case Op::kRdy: return kOp3Rdy;
      case Op::kWry: return kOp3Wry;
      case Op::kCpop1: return kOp3Cpop1;
      case Op::kCpop2: return kOp3Cpop2;
      case Op::kJmpl: return kOp3Jmpl;
      case Op::kTicc: return kOp3Ticc;
      case Op::kSave: return kOp3Save;
      case Op::kRestore: return kOp3Restore;
      default: FLEX_PANIC("op3FromArithOp: not an arith op");
    }
}

Op
memOpFromOp3(u32 op3)
{
    switch (op3) {
      case kOp3Ld: return Op::kLd;
      case kOp3Ldub: return Op::kLdub;
      case kOp3Lduh: return Op::kLduh;
      case kOp3St: return Op::kSt;
      case kOp3Stb: return Op::kStb;
      case kOp3Sth: return Op::kSth;
      default: return Op::kInvalid;
    }
}

u32
op3FromMemOp(Op op)
{
    switch (op) {
      case Op::kLd: return kOp3Ld;
      case Op::kLdub: return kOp3Ldub;
      case Op::kLduh: return kOp3Lduh;
      case Op::kSt: return kOp3St;
      case Op::kStb: return kOp3Stb;
      case Op::kSth: return kOp3Sth;
      default: FLEX_PANIC("op3FromMemOp: not a memory op");
    }
}

}  // namespace

Instruction
decode(u32 word)
{
    Instruction inst;
    inst.raw = word;
    const u32 op = bits(word, 31, 30);

    switch (op) {
      case 0: {  // format 2: SETHI / Bicc
        const u32 op2 = bits(word, 24, 22);
        if (op2 == 0x4) {  // SETHI
            inst.op = Op::kSethi;
            inst.rd = static_cast<u8>(bits(word, 29, 25));
            inst.imm22 = bits(word, 21, 0);
            inst.valid = true;
            // The canonical NOP is sethi 0, %g0; give it its own
            // CFGR class so filters can ignore it cheaply.
            inst.type = (inst.rd == 0 && inst.imm22 == 0)
                ? kTypeNop : kTypeSethi;
            return inst;
        }
        if (op2 == 0x2) {  // Bicc
            inst.op = Op::kBicc;
            inst.annul = bit(word, 29) != 0;
            inst.cond = static_cast<Cond>(bits(word, 28, 25));
            inst.disp = signExtend(bits(word, 21, 0), 22);
            inst.valid = true;
            inst.type = kTypeBranch;
            return inst;
        }
        return inst;  // invalid
      }
      case 1: {  // format 1: CALL
        inst.op = Op::kCall;
        inst.disp = signExtend(bits(word, 29, 0), 30);
        inst.rd = 15;  // CALL writes %o7
        inst.valid = true;
        inst.type = kTypeCall;
        return inst;
      }
      case 2: {  // format 3: arithmetic / control / cpop
        const u32 op3 = bits(word, 24, 19);
        inst.op = arithOpFromOp3(op3);
        if (inst.op == Op::kInvalid)
            return inst;
        inst.rd = static_cast<u8>(bits(word, 29, 25));
        inst.rs1 = static_cast<u8>(bits(word, 18, 14));
        inst.has_imm = bit(word, 13) != 0;
        if (inst.op == Op::kCpop1 || inst.op == Op::kCpop2) {
            inst.cpop_fn = static_cast<CpopFn>(bits(word, 12, 9));
            if (inst.has_imm)
                inst.simm = signExtend(bits(word, 8, 0), 9);
            else
                inst.rs2 = static_cast<u8>(bits(word, 4, 0));
        } else if (inst.has_imm) {
            inst.simm = signExtend(bits(word, 12, 0), 13);
        } else {
            inst.rs2 = static_cast<u8>(bits(word, 4, 0));
        }
        if (inst.op == Op::kTicc)
            inst.cond = static_cast<Cond>(bits(word, 28, 25));
        inst.valid = true;
        inst.type = classOf(inst.op);
        return inst;
      }
      case 3: {  // format 3: memory
        const u32 op3 = bits(word, 24, 19);
        inst.op = memOpFromOp3(op3);
        if (inst.op == Op::kInvalid)
            return inst;
        inst.rd = static_cast<u8>(bits(word, 29, 25));
        inst.rs1 = static_cast<u8>(bits(word, 18, 14));
        inst.has_imm = bit(word, 13) != 0;
        if (inst.has_imm)
            inst.simm = signExtend(bits(word, 12, 0), 13);
        else
            inst.rs2 = static_cast<u8>(bits(word, 4, 0));
        inst.valid = true;
        inst.type = classOf(inst.op);
        return inst;
      }
    }
    return inst;
}

u32
encode(const Instruction &inst)
{
    switch (inst.op) {
      case Op::kSethi: {
        u32 word = 0;
        word = insertBits(word, 29, 25, inst.rd);
        word = insertBits(word, 24, 22, 0x4);
        word = insertBits(word, 21, 0, inst.imm22);
        return word;
      }
      case Op::kBicc: {
        u32 word = 0;
        word = insertBits(word, 29, 29, inst.annul ? 1 : 0);
        word = insertBits(word, 28, 25, static_cast<u32>(inst.cond));
        word = insertBits(word, 24, 22, 0x2);
        word = insertBits(word, 21, 0, static_cast<u32>(inst.disp));
        return word;
      }
      case Op::kCall: {
        u32 word = insertBits(0, 31, 30, 1);
        word = insertBits(word, 29, 0, static_cast<u32>(inst.disp));
        return word;
      }
      case Op::kLd: case Op::kLdub: case Op::kLduh:
      case Op::kSt: case Op::kStb: case Op::kSth: {
        u32 word = insertBits(0, 31, 30, 3);
        word = insertBits(word, 29, 25, inst.rd);
        word = insertBits(word, 24, 19, op3FromMemOp(inst.op));
        word = insertBits(word, 18, 14, inst.rs1);
        word = insertBits(word, 13, 13, inst.has_imm ? 1 : 0);
        if (inst.has_imm)
            word = insertBits(word, 12, 0, static_cast<u32>(inst.simm));
        else
            word = insertBits(word, 4, 0, inst.rs2);
        return word;
      }
      case Op::kInvalid:
      case Op::kNumOps:
        FLEX_PANIC("encode of invalid instruction");
      default: {  // format-3 arithmetic / control / cpop
        u32 word = insertBits(0, 31, 30, 2);
        word = insertBits(word, 29, 25, inst.rd);
        word = insertBits(word, 24, 19, op3FromArithOp(inst.op));
        word = insertBits(word, 18, 14, inst.rs1);
        word = insertBits(word, 13, 13, inst.has_imm ? 1 : 0);
        if (inst.op == Op::kCpop1 || inst.op == Op::kCpop2) {
            word = insertBits(word, 12, 9,
                              static_cast<u32>(inst.cpop_fn));
            if (inst.has_imm)
                word = insertBits(word, 8, 0, static_cast<u32>(inst.simm));
            else
                word = insertBits(word, 4, 0, inst.rs2);
        } else if (inst.has_imm) {
            word = insertBits(word, 12, 0, static_cast<u32>(inst.simm));
        } else {
            word = insertBits(word, 4, 0, inst.rs2);
        }
        if (inst.op == Op::kTicc) {
            word = insertBits(word, 28, 25, static_cast<u32>(inst.cond));
        }
        return word;
      }
    }
}

}  // namespace flexcore
