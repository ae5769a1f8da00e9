#include "isa/instruction.h"

namespace flexcore {

Instruction
makeNop()
{
    Instruction inst;
    inst.op = Op::kSethi;
    inst.type = kTypeNop;
    inst.rd = 0;
    inst.imm22 = 0;
    inst.valid = true;
    inst.raw = 0x01000000;  // sethi 0, %g0
    return inst;
}

}  // namespace flexcore
