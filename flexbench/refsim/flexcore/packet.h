/**
 * @file
 * The forward-FIFO packet: one committed instruction's trace record,
 * with exactly the fields and widths of Table II in the paper. The
 * simulator additionally carries the decoded Instruction struct, which
 * stands in for the hardware's pre-decoded DECODE/EXTRA signal bundles
 * (the pre-decode ablation charges fabric cycles when monitors must
 * decode INST themselves).
 */

#ifndef FLEXCORE_FLEXCORE_PACKET_H_
#define FLEXCORE_FLEXCORE_PACKET_H_

#include <array>
#include <string_view>

#include "common/types.h"
#include "isa/instruction.h"

namespace flexcore {

/** Table II: one FFIFO entry. */
struct CommitPacket
{
    u32 pc = 0;        //!< PC (32 bits)
    u32 inst = 0;      //!< undecoded instruction (32 bits)
    u32 addr = 0;      //!< load/store effective address (32 bits)
    u32 res = 0;       //!< instruction result (32 bits)
    u32 srcv1 = 0;     //!< source operand 1 value (32 bits)
    u32 srcv2 = 0;     //!< source operand 2 value (32 bits)
    u8 cond = 0;       //!< condition codes NZVC (4 bits)
    bool branch = false;  //!< computed branch direction (1 bit)
    u8 opcode = 0;     //!< decoded opcode class, InstrType (5 bits)
    u32 decode = 0;    //!< miscellaneous decoded signals (32 bits)
    u32 extra = 0;     //!< extra processor control signals (32 bits)
    u16 src1 = 0;      //!< decoded source 1 physical register (9 bits)
    u16 src2 = 0;      //!< decoded source 2 physical register (9 bits)
    u16 dest = 0;      //!< decoded destination physical register (9 bits)

    /** Simulator-side convenience: the decoded instruction. */
    Instruction di;

    /** True if the fabric must acknowledge (CFGR wait-ack class). */
    bool wants_ack = false;

    /**
     * Issuing core index. Always 0 on single-core systems; on a shared
     * (time-multiplexed) fabric it routes CACK/BFIFO/TRAP responses and
     * selects the monitor's per-core shadow bank (docs/multicore.md).
     */
    u8 core = 0;
};

/** Description of one Table II field, for the interface report. */
struct PacketFieldSpec
{
    std::string_view module;   // "CFGR", "CTRL", "FFIFO", "BFIFO"
    std::string_view name;
    std::string_view desc;
    unsigned bits;
};

/** All interface fields of Table II, in the paper's order. */
const std::array<PacketFieldSpec, 21> &packetFieldSpecs();

/** Sum of FFIFO payload bits (one forward-FIFO entry's width). */
unsigned ffifoEntryBits();

}  // namespace flexcore

#endif  // FLEXCORE_FLEXCORE_PACKET_H_
