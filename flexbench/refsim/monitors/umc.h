/**
 * @file
 * Uninitialized Memory Check (UMC, §IV-A): one init bit per memory
 * word, set on stores, checked on loads; software clears tags on
 * de-allocation with m.clrmtag.
 */

#ifndef FLEXCORE_MONITORS_UMC_H_
#define FLEXCORE_MONITORS_UMC_H_

#include "monitors/monitor.h"

namespace flexcore {

class UmcMonitor : public Monitor
{
  public:
    /**
     * @param byte_granular false (default): one init bit per word, as
     * in the paper's prototype. true: one init bit per *byte* (4-bit
     * tags), the Purify-style variant that also catches reads of
     * uninitialized bytes inside a partially written word.
     */
    explicit UmcMonitor(bool byte_granular = false)
        : byte_granular_(byte_granular)
    {
    }

    std::string_view name() const override { return "umc"; }
    unsigned pipelineDepth() const override { return 3; }
    unsigned tagBitsPerWord() const override
    {
        return byte_granular_ ? 4 : 1;
    }

    void process(const CommitPacket &packet,
                 MonitorResult *result) override;
    void onProgramLoad(Addr base, u32 size) override;

    /** Functional inspection for tests/examples. */
    bool
    initialized(Addr addr) const
    {
        if (!byte_granular_)
            return mem_tags_.read(addr) != 0;
        return (mem_tags_.read(addr) >> (addr & 3)) & 1;
    }

  private:
    void handleCpop(const CommitPacket &packet, MonitorResult *result);

    /** Bitmask of the bytes within the word an access touches. */
    static u8 byteMask(Op op, Addr addr);

    bool byte_granular_;
};

}  // namespace flexcore

#endif  // FLEXCORE_MONITORS_UMC_H_
