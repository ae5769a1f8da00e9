#include "assembler/assembler.h"

#include <sstream>
#include <unordered_map>

#include "common/bitutil.h"
#include "common/log.h"
#include "isa/encoding.h"
#include "isa/registers.h"

namespace flexcore {

namespace {

/** Three-operand ALU mnemonics that share the `op rs1, ri, rd` shape. */
const std::unordered_map<std::string, Op> kAluMnemonics = {
    {"add", Op::kAdd}, {"addcc", Op::kAddcc},
    {"sub", Op::kSub}, {"subcc", Op::kSubcc},
    {"and", Op::kAnd}, {"andcc", Op::kAndcc},
    {"or", Op::kOr}, {"orcc", Op::kOrcc},
    {"xor", Op::kXor}, {"xorcc", Op::kXorcc},
    {"andn", Op::kAndn}, {"orn", Op::kOrn}, {"xnor", Op::kXnor},
    {"sll", Op::kSll}, {"srl", Op::kSrl}, {"sra", Op::kSra},
    {"umul", Op::kUmul}, {"smul", Op::kSmul},
    {"umulcc", Op::kUmulcc}, {"smulcc", Op::kSmulcc},
    {"udiv", Op::kUdiv}, {"sdiv", Op::kSdiv},
    {"save", Op::kSave}, {"restore", Op::kRestore},
};

const std::unordered_map<std::string, Op> kLoadMnemonics = {
    {"ld", Op::kLd}, {"ldub", Op::kLdub}, {"lduh", Op::kLduh},
};

const std::unordered_map<std::string, Op> kStoreMnemonics = {
    {"st", Op::kSt}, {"stb", Op::kStb}, {"sth", Op::kSth},
};

const std::unordered_map<std::string, Cond> kBranchMnemonics = {
    {"ba", Cond::kA}, {"bn", Cond::kN},
    {"be", Cond::kE}, {"bz", Cond::kE},
    {"bne", Cond::kNe}, {"bnz", Cond::kNe},
    {"bg", Cond::kG}, {"ble", Cond::kLe},
    {"bge", Cond::kGe}, {"bl", Cond::kL},
    {"bgu", Cond::kGu}, {"bleu", Cond::kLeu},
    {"bcc", Cond::kCc}, {"bgeu", Cond::kCc},
    {"bcs", Cond::kCs}, {"blu", Cond::kCs},
    {"bpos", Cond::kPos}, {"bneg", Cond::kNeg},
    {"bvc", Cond::kVc}, {"bvs", Cond::kVs},
};

const std::unordered_map<std::string, Cond> kTrapMnemonics = {
    {"ta", Cond::kA}, {"tn", Cond::kN},
    {"te", Cond::kE}, {"tz", Cond::kE},
    {"tne", Cond::kNe}, {"tnz", Cond::kNe},
    {"tg", Cond::kG}, {"tle", Cond::kLe},
    {"tge", Cond::kGe}, {"tl", Cond::kL},
    {"tgu", Cond::kGu}, {"tleu", Cond::kLeu},
    {"tcc", Cond::kCc}, {"tgeu", Cond::kCc},
    {"tcs", Cond::kCs}, {"tlu", Cond::kCs},
    {"tpos", Cond::kPos}, {"tneg", Cond::kNeg},
    {"tvc", Cond::kVc}, {"tvs", Cond::kVs},
};

const std::unordered_map<std::string, CpopFn> kMonitorMnemonics = {
    {"m.settag", CpopFn::kSetRegTag},
    {"m.clrtag", CpopFn::kClearRegTag},
    {"m.setmtag", CpopFn::kSetMemTag},
    {"m.clrmtag", CpopFn::kClearMemTag},
    {"m.policy", CpopFn::kSetPolicy},
    {"m.read", CpopFn::kReadTag},
    {"m.base", CpopFn::kSetBase},
};

bool
fitsSigned(s64 value, unsigned bits_wide)
{
    const s64 lo = -(s64{1} << (bits_wide - 1));
    const s64 hi = (s64{1} << (bits_wide - 1)) - 1;
    return value >= lo && value <= hi;
}

}  // namespace

void
Assembler::addError(int line, std::string message)
{
    errors_.push_back({line, std::move(message)});
}

std::string
Assembler::errorText() const
{
    std::ostringstream oss;
    for (const AsmError &err : errors_)
        oss << "line " << err.line << ": " << err.message << "\n";
    return oss.str();
}

bool
Assembler::isDirective(const std::string &mnemonic)
{
    return !mnemonic.empty() && mnemonic[0] == '.';
}

unsigned
Assembler::instrByteSize(const ParsedLine &parsed)
{
    // `set` always expands to sethi+or; everything else is one word.
    return parsed.mnemonic == "set" ? 8 : 4;
}

bool
Assembler::resolve(const ExprRef &expr, const Program &prog, int line,
                   u32 *value)
{
    s64 result = expr.addend;
    if (!expr.symbol.empty()) {
        u32 symval;
        if (!prog.lookupSymbol(expr.symbol, &symval)) {
            addError(line, "undefined symbol '" + expr.symbol + "'");
            return false;
        }
        result += symval;
    }
    u32 word = static_cast<u32>(result);
    switch (expr.mod) {
      case ExprRef::Mod::kHi:
        word = (word >> 10) & 0x3fffff;
        break;
      case ExprRef::Mod::kLo:
        word = word & 0x3ff;
        break;
      case ExprRef::Mod::kNone:
        break;
    }
    *value = word;
    return true;
}

bool
Assembler::runDirective(const ParsedLine &parsed, int line, Program *out)
{
    const std::string &d = parsed.mnemonic;
    auto constArg = [&](size_t idx, u32 *value) -> bool {
        if (idx >= parsed.operands.size() ||
            parsed.operands[idx].kind != Operand::Kind::kImm) {
            addError(line, d + ": expected immediate operand");
            return false;
        }
        // Directive arguments referencing labels are handled through
        // fixups (only for .word); others must be constant.
        const ExprRef &expr = parsed.operands[idx].expr;
        if (!expr.isConstant()) {
            addError(line, d + ": operand must be a constant");
            return false;
        }
        *value = static_cast<u32>(expr.addend);
        return true;
    };

    if (d == ".org") {
        u32 addr;
        if (!constArg(0, &addr))
            return false;
        if (!emitted_anything_ && out->size() == 0) {
            out->setBase(addr);
        } else if (addr < out->end()) {
            addError(line, ".org moves backwards");
            return false;
        } else {
            out->padTo(addr);
        }
        return true;
    }
    if (d == ".align") {
        u32 align;
        if (!constArg(0, &align))
            return false;
        if (!isPowerOfTwo(align)) {
            addError(line, ".align: not a power of two");
            return false;
        }
        out->padTo(alignUp(out->end(), align));
        return true;
    }
    if (d == ".word") {
        for (const Operand &op : parsed.operands) {
            if (op.kind != Operand::Kind::kImm) {
                addError(line, ".word: expected expression");
                return false;
            }
            if (op.expr.isConstant()) {
                out->appendWord(static_cast<u32>(op.expr.addend));
            } else {
                fixups_.push_back({out->end(), line, op.expr});
                out->appendWord(0);
            }
        }
        return true;
    }
    if (d == ".half") {
        for (const Operand &op : parsed.operands) {
            u32 value = 0;
            if (op.kind != Operand::Kind::kImm ||
                !op.expr.isConstant()) {
                addError(line, ".half: expected constant");
                return false;
            }
            value = static_cast<u32>(op.expr.addend);
            out->appendByte(static_cast<u8>(value >> 8));
            out->appendByte(static_cast<u8>(value));
        }
        return true;
    }
    if (d == ".byte") {
        for (const Operand &op : parsed.operands) {
            if (op.kind != Operand::Kind::kImm ||
                !op.expr.isConstant()) {
                addError(line, ".byte: expected constant");
                return false;
            }
            out->appendByte(static_cast<u8>(op.expr.addend));
        }
        return true;
    }
    if (d == ".asciz" || d == ".ascii") {
        if (parsed.string_args.empty()) {
            addError(line, d + ": expected string literal");
            return false;
        }
        for (const std::string &s : parsed.string_args) {
            for (char c : s)
                out->appendByte(static_cast<u8>(c));
            if (d == ".asciz")
                out->appendByte(0);
        }
        return true;
    }
    if (d == ".space") {
        u32 count;
        if (!constArg(0, &count))
            return false;
        for (u32 i = 0; i < count; ++i)
            out->appendByte(0);
        return true;
    }
    if (d == ".equ") {
        // .equ NAME, value — the name parses as the first operand's
        // symbol reference.
        if (parsed.operands.size() != 2 ||
            parsed.operands[0].kind != Operand::Kind::kImm ||
            parsed.operands[0].expr.symbol.empty() ||
            parsed.operands[1].kind != Operand::Kind::kImm ||
            !parsed.operands[1].expr.isConstant()) {
            addError(line, ".equ: expected NAME, constant");
            return false;
        }
        const std::string &name = parsed.operands[0].expr.symbol;
        if (!out->defineSymbol(
                name, static_cast<u32>(parsed.operands[1].expr.addend))) {
            addError(line, "duplicate symbol '" + name + "'");
            return false;
        }
        return true;
    }
    if (d == ".global" || d == ".text" || d == ".data")
        return true;  // accepted for source compatibility; no effect

    addError(line, "unknown directive '" + d + "'");
    return false;
}

bool
Assembler::assemble(const std::string &source, Program *out)
{
    errors_.clear();
    pending_.clear();
    fixups_.clear();
    emitted_anything_ = false;
    const Addr base = out->base();
    *out = Program{};
    out->setBase(base);

    // ---- Pass 1: layout, labels, data. ----
    std::istringstream stream(source);
    std::string line_text;
    int line_no = 0;
    while (std::getline(stream, line_text)) {
        ++line_no;
        std::vector<Token> tokens;
        std::string lex_error;
        if (!tokenizeLine(line_text, &tokens, &lex_error)) {
            addError(line_no, lex_error);
            continue;
        }
        ParsedLine parsed;
        std::string parse_error;
        if (!parseLine(tokens, &parsed, &parse_error)) {
            addError(line_no, parse_error);
            continue;
        }
        for (const std::string &label : parsed.labels) {
            if (!out->defineSymbol(label, out->end()))
                addError(line_no, "duplicate label '" + label + "'");
        }
        if (parsed.mnemonic.empty())
            continue;
        if (isDirective(parsed.mnemonic)) {
            runDirective(parsed, line_no, out);
            emitted_anything_ = emitted_anything_ || out->size() > 0;
            continue;
        }
        // Instruction: reserve space now, encode in pass 2.
        const Addr addr = out->end();
        if (addr % 4 != 0) {
            addError(line_no, "instruction at unaligned address");
            continue;
        }
        pending_.push_back({addr, line_no, std::move(parsed)});
        const unsigned size = instrByteSize(pending_.back().parsed);
        for (unsigned i = 0; i < size; i += 4)
            out->appendWord(0);
        emitted_anything_ = true;
    }

    // ---- Pass 2: encode instructions and patch data fixups. ----
    for (const Pending &pending : pending_)
        encodeStatement(pending, out);
    for (const DataFixup &fixup : fixups_) {
        u32 value;
        if (resolve(fixup.expr, *out, fixup.line, &value))
            out->patchWord(fixup.addr, value);
    }

    u32 entry;
    out->setEntry(out->lookupSymbol("_start", &entry) ? entry
                                                      : out->base());
    return errors_.empty();
}

void
Assembler::encodeStatement(const Pending &pending, Program *out)
{
    const ParsedLine &p = pending.parsed;
    const int line = pending.line;
    const Addr addr = pending.addr;
    const std::string &m = p.mnemonic;

    auto emit = [&](const Instruction &inst) {
        out->patchWord(addr, encode(inst));
    };
    auto emitSecond = [&](const Instruction &inst) {
        out->patchWord(addr + 4, encode(inst));
    };
    auto err = [&](const std::string &message) {
        addError(line, m + ": " + message);
    };
    auto wantReg = [&](size_t idx, unsigned *reg) -> bool {
        if (idx >= p.operands.size() ||
            p.operands[idx].kind != Operand::Kind::kReg) {
            err("expected register operand " + std::to_string(idx + 1));
            return false;
        }
        *reg = p.operands[idx].reg;
        return true;
    };
    auto wantImmValue = [&](size_t idx, u32 *value) -> bool {
        if (idx >= p.operands.size() ||
            p.operands[idx].kind != Operand::Kind::kImm) {
            err("expected immediate operand " + std::to_string(idx + 1));
            return false;
        }
        return resolve(p.operands[idx].expr, *out, line, value);
    };

    // Fill rs2-or-simm13 for the common reg/imm source slot.
    auto fillRegOrImm = [&](size_t idx, Instruction *inst) -> bool {
        if (idx >= p.operands.size()) {
            err("missing operand " + std::to_string(idx + 1));
            return false;
        }
        const Operand &op = p.operands[idx];
        if (op.kind == Operand::Kind::kReg) {
            inst->rs2 = static_cast<u8>(op.reg);
            return true;
        }
        if (op.kind == Operand::Kind::kImm) {
            u32 value;
            if (!resolve(op.expr, *out, line, &value))
                return false;
            const s32 simm = static_cast<s32>(value);
            if (!fitsSigned(simm, 13)) {
                err("immediate does not fit in simm13");
                return false;
            }
            inst->has_imm = true;
            inst->simm = simm;
            return true;
        }
        err("bad source operand");
        return false;
    };

    // Fill rs1 + (rs2|simm13) from a kMem operand.
    auto fillMem = [&](size_t idx, Instruction *inst) -> bool {
        if (idx >= p.operands.size() ||
            p.operands[idx].kind != Operand::Kind::kMem) {
            err("expected memory operand");
            return false;
        }
        const Operand &op = p.operands[idx];
        inst->rs1 = static_cast<u8>(op.reg);
        if (op.mem_has_index_reg) {
            inst->rs2 = static_cast<u8>(op.index_reg);
            return true;
        }
        u32 value;
        if (!resolve(op.expr, *out, line, &value))
            return false;
        const s32 simm = static_cast<s32>(value);
        if (!fitsSigned(simm, 13)) {
            err("offset does not fit in simm13");
            return false;
        }
        inst->has_imm = true;
        inst->simm = simm;
        return true;
    };

    Instruction inst;

    // ---- Plain ALU / save / restore ----
    if (auto it = kAluMnemonics.find(m); it != kAluMnemonics.end()) {
        inst.op = it->second;
        if (m == "restore" && p.operands.empty()) {
            // bare `restore` == restore %g0, %g0, %g0
            inst.has_imm = false;
            emit(inst);
            return;
        }
        unsigned rs1, rd;
        if (!wantReg(0, &rs1) || !fillRegOrImm(1, &inst) ||
            !wantReg(2, &rd))
            return;
        inst.rs1 = static_cast<u8>(rs1);
        inst.rd = static_cast<u8>(rd);
        emit(inst);
        return;
    }

    // ---- Loads / stores ----
    if (auto it = kLoadMnemonics.find(m); it != kLoadMnemonics.end()) {
        inst.op = it->second;
        unsigned rd;
        if (!fillMem(0, &inst) || !wantReg(1, &rd))
            return;
        inst.rd = static_cast<u8>(rd);
        emit(inst);
        return;
    }
    if (auto it = kStoreMnemonics.find(m); it != kStoreMnemonics.end()) {
        inst.op = it->second;
        unsigned rd;
        if (!wantReg(0, &rd) || !fillMem(1, &inst))
            return;
        inst.rd = static_cast<u8>(rd);
        emit(inst);
        return;
    }

    // ---- Branches ----
    if (auto it = kBranchMnemonics.find(m); it != kBranchMnemonics.end()) {
        inst.op = Op::kBicc;
        inst.cond = it->second;
        inst.annul = p.annul;
        u32 target;
        if (!wantImmValue(0, &target))
            return;
        const s64 delta = static_cast<s64>(target) - static_cast<s64>(addr);
        if (delta % 4 != 0) {
            err("branch target not word-aligned");
            return;
        }
        const s64 disp = delta / 4;
        if (!fitsSigned(disp, 22)) {
            err("branch target out of range");
            return;
        }
        inst.disp = static_cast<s32>(disp);
        emit(inst);
        return;
    }

    // ---- Traps: t<cond> [%rs1,] reg-or-imm ----
    if (auto it = kTrapMnemonics.find(m); it != kTrapMnemonics.end()) {
        inst.op = Op::kTicc;
        inst.cond = it->second;
        size_t src = 0;
        if (p.operands.size() > 1) {
            unsigned rs1;
            if (!wantReg(0, &rs1))
                return;
            inst.rs1 = static_cast<u8>(rs1);
            src = 1;
        }
        if (!fillRegOrImm(src, &inst))
            return;
        emit(inst);
        return;
    }

    // ---- Monitor (CPop1) pseudo-ops ----
    if (auto it = kMonitorMnemonics.find(m); it != kMonitorMnemonics.end()) {
        inst.op = Op::kCpop1;
        inst.cpop_fn = it->second;
        inst.has_imm = true;
        inst.simm = 0;
        switch (it->second) {
          case CpopFn::kSetRegTag: {
            unsigned rs1;
            u32 tag = 0;
            if (!wantReg(0, &rs1))
                return;
            if (p.operands.size() > 1 && !wantImmValue(1, &tag))
                return;
            inst.rs1 = static_cast<u8>(rs1);
            inst.rd = static_cast<u8>(tag & 31);
            break;
          }
          case CpopFn::kClearRegTag:
          case CpopFn::kSetBase: {
            unsigned rs1;
            if (!wantReg(0, &rs1))
                return;
            inst.rs1 = static_cast<u8>(rs1);
            break;
          }
          case CpopFn::kSetMemTag: {
            u32 tag = 0;
            if (!fillMem(0, &inst))
                return;
            if (p.operands.size() > 1 && !wantImmValue(1, &tag))
                return;
            if (!inst.has_imm || !fitsSigned(inst.simm, 9)) {
                err("offset does not fit in simm9");
                return;
            }
            inst.rd = static_cast<u8>(tag & 31);
            break;
          }
          case CpopFn::kClearMemTag: {
            if (!fillMem(0, &inst))
                return;
            if (!inst.has_imm || !fitsSigned(inst.simm, 9)) {
                err("offset does not fit in simm9");
                return;
            }
            break;
          }
          case CpopFn::kSetPolicy: {
            u32 value;
            if (!wantImmValue(0, &value))
                return;
            if (!fitsSigned(static_cast<s32>(value), 9)) {
                err("policy does not fit in simm9");
                return;
            }
            inst.simm = static_cast<s32>(value);
            break;
          }
          case CpopFn::kReadTag: {
            unsigned rd;
            u32 sel = 0;
            if (!wantReg(0, &rd))
                return;
            if (p.operands.size() > 1 && !wantImmValue(1, &sel))
                return;
            inst.rd = static_cast<u8>(rd);
            inst.simm = static_cast<s32>(sel & 0xff);
            break;
          }
          default:
            err("unsupported monitor op");
            return;
        }
        emit(inst);
        return;
    }

    // ---- Everything else, alphabetized ----
    if (m == "call") {
        inst.op = Op::kCall;
        u32 target;
        if (!wantImmValue(0, &target))
            return;
        const s64 delta = static_cast<s64>(target) - static_cast<s64>(addr);
        if (delta % 4 != 0) {
            err("call target not word-aligned");
            return;
        }
        inst.disp = static_cast<s32>(delta / 4);
        emit(inst);
        return;
    }
    if (m == "clr") {
        if (!p.operands.empty() &&
            p.operands[0].kind == Operand::Kind::kMem) {
            inst.op = Op::kSt;
            inst.rd = 0;
            if (!fillMem(0, &inst))
                return;
            emit(inst);
            return;
        }
        unsigned rd;
        if (!wantReg(0, &rd))
            return;
        inst.op = Op::kOr;
        inst.rs1 = 0;
        inst.has_imm = true;
        inst.simm = 0;
        inst.rd = static_cast<u8>(rd);
        emit(inst);
        return;
    }
    if (m == "cmp") {
        inst.op = Op::kSubcc;
        unsigned rs1;
        if (!wantReg(0, &rs1) || !fillRegOrImm(1, &inst))
            return;
        inst.rs1 = static_cast<u8>(rs1);
        inst.rd = 0;
        emit(inst);
        return;
    }
    if (m == "dec" || m == "inc") {
        inst.op = m == "inc" ? Op::kAdd : Op::kSub;
        unsigned rd;
        u32 amount = 1;
        if (p.operands.size() == 2) {
            if (!wantImmValue(0, &amount) || !wantReg(1, &rd))
                return;
        } else if (!wantReg(0, &rd)) {
            return;
        }
        inst.rs1 = static_cast<u8>(rd);
        inst.rd = static_cast<u8>(rd);
        inst.has_imm = true;
        inst.simm = static_cast<s32>(amount);
        emit(inst);
        return;
    }
    if (m == "jmp" || m == "jmpl") {
        inst.op = Op::kJmpl;
        if (p.operands.empty()) {
            err("expected address operand");
            return;
        }
        size_t idx = 0;
        const Operand &op0 = p.operands[0];
        if (op0.kind == Operand::Kind::kMem) {
            if (!fillMem(0, &inst))
                return;
        } else if (op0.kind == Operand::Kind::kReg) {
            inst.rs1 = static_cast<u8>(op0.reg);
            inst.has_imm = true;
            inst.simm = 0;
        } else {
            err("expected address operand");
            return;
        }
        idx = 1;
        if (m == "jmpl") {
            unsigned rd;
            if (!wantReg(idx, &rd))
                return;
            inst.rd = static_cast<u8>(rd);
        } else {
            inst.rd = 0;
        }
        emit(inst);
        return;
    }
    if (m == "mov") {
        inst.op = Op::kOr;
        inst.rs1 = 0;
        unsigned rd;
        if (!fillRegOrImm(0, &inst) || !wantReg(1, &rd))
            return;
        inst.rd = static_cast<u8>(rd);
        emit(inst);
        return;
    }
    if (m == "neg") {
        unsigned rd;
        if (!wantReg(0, &rd))
            return;
        inst.op = Op::kSub;
        inst.rs1 = 0;
        inst.rs2 = static_cast<u8>(rd);
        inst.rd = static_cast<u8>(rd);
        emit(inst);
        return;
    }
    if (m == "nop") {
        emit(makeNop());
        return;
    }
    if (m == "not") {
        unsigned rd;
        if (!wantReg(0, &rd))
            return;
        inst.op = Op::kXnor;
        inst.rs1 = static_cast<u8>(rd);
        inst.rs2 = 0;
        inst.rd = static_cast<u8>(rd);
        emit(inst);
        return;
    }
    if (m == "rd") {
        // rd %y, %rd
        if (p.operands.empty() ||
            p.operands[0].kind != Operand::Kind::kSpecialY) {
            err("expected %y source");
            return;
        }
        unsigned rd;
        if (!wantReg(1, &rd))
            return;
        inst.op = Op::kRdy;
        inst.rd = static_cast<u8>(rd);
        emit(inst);
        return;
    }
    if (m == "ret" || m == "retl") {
        inst.op = Op::kJmpl;
        inst.rs1 = m == "ret" ? 31 : 15;  // %i7 or %o7
        inst.has_imm = true;
        inst.simm = 8;
        inst.rd = 0;
        emit(inst);
        return;
    }
    if (m == "set") {
        u32 value;
        unsigned rd;
        if (!wantImmValue(0, &value) || !wantReg(1, &rd))
            return;
        Instruction hi;
        hi.op = Op::kSethi;
        hi.rd = static_cast<u8>(rd);
        hi.imm22 = (value >> 10) & 0x3fffff;
        emit(hi);
        Instruction lo;
        lo.op = Op::kOr;
        lo.rs1 = static_cast<u8>(rd);
        lo.rd = static_cast<u8>(rd);
        lo.has_imm = true;
        lo.simm = static_cast<s32>(value & 0x3ff);
        emitSecond(lo);
        return;
    }
    if (m == "sethi") {
        unsigned rd;
        u32 value;
        if (!wantImmValue(0, &value) || !wantReg(1, &rd))
            return;
        inst.op = Op::kSethi;
        inst.rd = static_cast<u8>(rd);
        // %hi(x) has already been shifted during resolve(); plain
        // constants are used verbatim as the 22-bit field.
        inst.imm22 = value & 0x3fffff;
        emit(inst);
        return;
    }
    if (m == "tst") {
        unsigned rs;
        if (!wantReg(0, &rs))
            return;
        inst.op = Op::kOrcc;
        inst.rs1 = 0;
        inst.rs2 = static_cast<u8>(rs);
        inst.rd = 0;
        emit(inst);
        return;
    }
    if (m == "wr") {
        // wr %rs1, %y
        unsigned rs1;
        if (!wantReg(0, &rs1))
            return;
        if (p.operands.size() < 2 ||
            p.operands[1].kind != Operand::Kind::kSpecialY) {
            err("expected %y destination");
            return;
        }
        inst.op = Op::kWry;
        inst.rs1 = static_cast<u8>(rs1);
        emit(inst);
        return;
    }

    addError(line, "unknown mnemonic '" + m + "'");
}

Program
Assembler::assembleOrDie(const std::string &source, Addr base)
{
    Assembler as;
    Program prog;
    prog.setBase(base);
    if (!as.assemble(source, &prog))
        FLEX_FATAL("assembly failed:\n", as.errorText());
    return prog;
}

}  // namespace flexcore
