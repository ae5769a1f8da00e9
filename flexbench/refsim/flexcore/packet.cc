#include "flexcore/packet.h"

namespace flexcore {

const std::array<PacketFieldSpec, 21> &
packetFieldSpecs()
{
    static const std::array<PacketFieldSpec, 21> kSpecs = {{
        {"CFGR", "FFIFO",
         "FIFO behavior per instruction type: ignore / accept-if-not-full"
         " / accept-and-proceed / accept-and-wait-for-ack (2b x 32 types)",
         64},
        {"CTRL", "PACK", "acknowledgement for a co-processor trap", 1},
        {"FFIFO", "PC", "program counter", 32},
        {"FFIFO", "INST", "undecoded instruction", 32},
        {"FFIFO", "ADDR", "address for a load/store", 32},
        {"FFIFO", "RES", "result of an instruction", 32},
        {"FFIFO", "SRCV1", "source operand 1 value", 32},
        {"FFIFO", "SRCV2", "source operand 2 value", 32},
        {"FFIFO", "COND", "condition codes", 4},
        {"FFIFO", "BRANCH", "computed branch direction", 1},
        {"FFIFO", "OPCODE", "decoded instruction opcode", 5},
        {"FFIFO", "DECODE", "miscellaneous decoded signals", 32},
        {"FFIFO", "EXTRA", "extra processor control signals", 32},
        {"FFIFO", "SRC1", "decoded source 1 register number", 9},
        {"FFIFO", "SRC2", "decoded source 2 register number", 9},
        {"FFIFO", "DEST", "decoded destination register number", 9},
        {"CTRL", "CACK", "acknowledgement for FFIFO", 1},
        {"CTRL", "EMPTY", "no pending instruction in the co-processor", 1},
        {"CTRL", "TRAP", "raise an exception", 1},
        {"BFIFO", "VAL", "return value for 'read from co-processor'", 32},
        {"CTRL", "-", "(reserved)", 0},
    }};
    return kSpecs;
}

unsigned
ffifoEntryBits()
{
    unsigned total = 0;
    for (const PacketFieldSpec &spec : packetFieldSpecs()) {
        if (spec.module == "FFIFO")
            total += spec.bits;
    }
    return total;
}

}  // namespace flexcore
