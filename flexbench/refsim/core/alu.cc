#include "core/alu.h"

#include "common/log.h"

namespace flexcore {

namespace {

Icc
addFlags(u32 a, u32 b, u32 result)
{
    Icc icc;
    icc.n = (result >> 31) != 0;
    icc.z = result == 0;
    icc.v = (~(a ^ b) & (a ^ result) & 0x80000000u) != 0;
    icc.c = result < a;
    return icc;
}

Icc
subFlags(u32 a, u32 b, u32 result)
{
    Icc icc;
    icc.n = (result >> 31) != 0;
    icc.z = result == 0;
    icc.v = ((a ^ b) & (a ^ result) & 0x80000000u) != 0;
    icc.c = b > a;   // borrow
    return icc;
}

Icc
logicFlags(u32 result)
{
    Icc icc;
    icc.n = (result >> 31) != 0;
    icc.z = result == 0;
    return icc;
}

}  // namespace

AluResult
Alu::execute(Op op, u32 a, u32 b, u32 y_in)
{
    AluResult res;
    switch (op) {
      case Op::kAdd:
      case Op::kAddcc:
      case Op::kSave:
      case Op::kRestore:
        res.value = a + b;
        res.icc = addFlags(a, b, res.value);
        break;
      case Op::kSub:
      case Op::kSubcc:
        res.value = a - b;
        res.icc = subFlags(a, b, res.value);
        break;
      case Op::kAnd: case Op::kAndcc:
        res.value = a & b;
        res.icc = logicFlags(res.value);
        break;
      case Op::kOr: case Op::kOrcc:
        res.value = a | b;
        res.icc = logicFlags(res.value);
        break;
      case Op::kXor: case Op::kXorcc:
        res.value = a ^ b;
        res.icc = logicFlags(res.value);
        break;
      case Op::kAndn:
        res.value = a & ~b;
        res.icc = logicFlags(res.value);
        break;
      case Op::kOrn:
        res.value = a | ~b;
        res.icc = logicFlags(res.value);
        break;
      case Op::kXnor:
        res.value = ~(a ^ b);
        res.icc = logicFlags(res.value);
        break;
      case Op::kSll:
        res.value = a << (b & 31);
        break;
      case Op::kSrl:
        res.value = a >> (b & 31);
        break;
      case Op::kSra:
        res.value = static_cast<u32>(static_cast<s32>(a) >> (b & 31));
        break;
      case Op::kUmul: case Op::kUmulcc: {
        const u64 product = static_cast<u64>(a) * static_cast<u64>(b);
        res.value = static_cast<u32>(product);
        res.y_out = static_cast<u32>(product >> 32);
        res.writes_y = true;
        res.icc = logicFlags(res.value);
        break;
      }
      case Op::kSmul: case Op::kSmulcc: {
        const s64 product = static_cast<s64>(static_cast<s32>(a)) *
                            static_cast<s64>(static_cast<s32>(b));
        res.value = static_cast<u32>(product);
        res.y_out = static_cast<u32>(static_cast<u64>(product) >> 32);
        res.writes_y = true;
        res.icc = logicFlags(res.value);
        break;
      }
      case Op::kUdiv: {
        if (b == 0) {
            res.div_by_zero = true;
            break;
        }
        const u64 dividend = (static_cast<u64>(y_in) << 32) | a;
        u64 quotient = dividend / b;
        if (quotient > 0xffffffffull)
            quotient = 0xffffffffull;   // SPARC saturates on overflow
        res.value = static_cast<u32>(quotient);
        break;
      }
      case Op::kSdiv: {
        if (b == 0) {
            res.div_by_zero = true;
            break;
        }
        const s64 dividend =
            static_cast<s64>((static_cast<u64>(y_in) << 32) | a);
        s64 quotient = dividend / static_cast<s32>(b);
        if (quotient > 0x7fffffffll)
            quotient = 0x7fffffffll;
        if (quotient < -0x80000000ll)
            quotient = -0x80000000ll;
        res.value = static_cast<u32>(quotient);
        break;
      }
      default:
        FLEX_PANIC("Alu::execute on non-ALU op ", opName(op));
    }

    if (fault_probability_ > 0.0 &&
        fault_rng_.chance(fault_probability_)) {
        res.value ^= u32{1} << fault_rng_.below(32);
        ++faults_injected_;
    }
    return res;
}

void
Alu::enableFaultInjection(double per_op_probability, u64 seed)
{
    fault_probability_ = per_op_probability;
    fault_rng_ = Rng(seed);
}

bool
Alu::evalCond(Cond cond, const Icc &icc)
{
    switch (cond) {
      case Cond::kA: return true;
      case Cond::kN: return false;
      case Cond::kNe: return !icc.z;
      case Cond::kE: return icc.z;
      case Cond::kG: return !(icc.z || (icc.n != icc.v));
      case Cond::kLe: return icc.z || (icc.n != icc.v);
      case Cond::kGe: return icc.n == icc.v;
      case Cond::kL: return icc.n != icc.v;
      case Cond::kGu: return !(icc.c || icc.z);
      case Cond::kLeu: return icc.c || icc.z;
      case Cond::kCc: return !icc.c;
      case Cond::kCs: return icc.c;
      case Cond::kPos: return !icc.n;
      case Cond::kNeg: return icc.n;
      case Cond::kVc: return !icc.v;
      case Cond::kVs: return icc.v;
    }
    return false;
}

}  // namespace flexcore
