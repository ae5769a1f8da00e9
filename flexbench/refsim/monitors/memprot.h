/**
 * @file
 * MEMPROT: fine-grained (word-granular) memory protection in the
 * Mondrian style (§II-B cites Witchel et al.'s Mondrian memory
 * protection as a natural FlexCore extension). Each memory word
 * carries a permission tag; loads and stores are checked against it
 * and the extension traps on a violation. Software sets permissions
 * with `m.setmtag [addr], perm`.
 *
 * Permission encoding (4-bit tag, only 2 bits used):
 *   0 = default (read-write, the untagged state)
 *   1 = read-only
 *   2 = no-access
 *   3 = read-write (explicit)
 */

#ifndef FLEXCORE_MONITORS_MEMPROT_H_
#define FLEXCORE_MONITORS_MEMPROT_H_

#include "monitors/monitor.h"

namespace flexcore {

class MemProtMonitor : public Monitor
{
  public:
    enum Perm : u8 {
        kPermDefault = 0,
        kPermReadOnly = 1,
        kPermNoAccess = 2,
        kPermReadWrite = 3,
    };

    std::string_view name() const override { return "memprot"; }
    unsigned pipelineDepth() const override { return 3; }
    unsigned tagBitsPerWord() const override { return 4; }

    void process(const CommitPacket &packet,
                 MonitorResult *result) override;

    Perm permission(Addr addr) const
    {
        return static_cast<Perm>(mem_tags_.read(addr) & 0x3);
    }

  private:
    void handleCpop(const CommitPacket &packet, MonitorResult *result);
};

}  // namespace flexcore

#endif  // FLEXCORE_MONITORS_MEMPROT_H_
