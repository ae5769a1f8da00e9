/**
 * @file
 * Dynamic Information Flow Tracking (DIFT, §IV-B): one taint bit per
 * register and per memory word. Taint propagates through ALU ops
 * (OR of source tags), loads, and stores; indirect jumps through a
 * tainted register raise an exception. Software manages tags with the
 * m.settag/m.clrtag/m.setmtag/m.clrmtag/m.policy instructions.
 */

#ifndef FLEXCORE_MONITORS_DIFT_H_
#define FLEXCORE_MONITORS_DIFT_H_

#include "monitors/monitor.h"

namespace flexcore {

class DiftMonitor : public Monitor
{
  public:
    /** Policy register bits. */
    static constexpr u32 kCheckIndirectJumps = 1u << 0;

    /**
     * @param tag_bits taint tag width per register/word: 1 (the
     * prototype's boolean taint) or 4 (multi-source taint labels, the
     * variant discussed in the paper's footnote 2 — a bitmask of up to
     * four distinct input sources, OR-combined on propagation).
     */
    explicit DiftMonitor(unsigned tag_bits = 1);

    std::string_view name() const override { return "dift"; }
    unsigned pipelineDepth() const override { return 4; }
    unsigned tagBitsPerWord() const override { return tag_bits_; }

    void process(const CommitPacket &packet,
                 MonitorResult *result) override;

    /** Functional inspection for tests/examples. */
    bool regTainted(u16 phys_reg) const
    {
        return reg_tags_.read(phys_reg) != 0;
    }
    bool memTainted(Addr addr) const { return mem_tags_.read(addr) != 0; }

    /** Full label bitmask (meaningful with multi-bit tags). */
    u8 regLabel(u16 phys_reg) const { return reg_tags_.read(phys_reg); }
    u8 memLabel(Addr addr) const { return mem_tags_.read(addr); }

  private:
    void handleCpop(const CommitPacket &packet, MonitorResult *result);

    u8 tagMask() const
    {
        return static_cast<u8>((1u << tag_bits_) - 1);
    }

    unsigned tag_bits_;
};

}  // namespace flexcore

#endif  // FLEXCORE_MONITORS_DIFT_H_
