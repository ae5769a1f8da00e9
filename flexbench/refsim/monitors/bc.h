/**
 * @file
 * Color-based Array Bound Check (BC, §IV-C): a 4-bit color per
 * register and an 8-bit tag per memory word (low nibble = location
 * color, high nibble = color of a pointer stored at that word).
 * Pointer colors propagate through arithmetic; each memory access
 * checks the accessing pointer's color against the location color.
 */

#ifndef FLEXCORE_MONITORS_BC_H_
#define FLEXCORE_MONITORS_BC_H_

#include "monitors/monitor.h"

namespace flexcore {

class BcMonitor : public Monitor
{
  public:
    std::string_view name() const override { return "bc"; }
    unsigned pipelineDepth() const override { return 5; }
    unsigned tagBitsPerWord() const override { return 8; }

    void process(const CommitPacket &packet,
                 MonitorResult *result) override;

    /** Functional inspection for tests/examples. */
    u8 regColor(u16 phys_reg) const
    {
        return reg_tags_.read(phys_reg) & 0xf;
    }
    u8 memColor(Addr addr) const { return mem_tags_.read(addr) & 0xf; }
    u8 storedPtrColor(Addr addr) const
    {
        return (mem_tags_.read(addr) >> 4) & 0xf;
    }

  private:
    void handleCpop(const CommitPacket &packet, MonitorResult *result);

    /** Color of the pointer used for the access (base + index). */
    u8 accessColor(const CommitPacket &packet) const;
};

}  // namespace flexcore

#endif  // FLEXCORE_MONITORS_BC_H_
