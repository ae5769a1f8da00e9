/**
 * @file
 * PROF: a custom performance-monitoring extension (§II-B: "the
 * co-processing model can support simple profiling applications such
 * as custom performance monitors and detailed analysis of software
 * characteristics"). It counts instruction-mix events and tracks the
 * program's memory working set with a touched-bit per word in the
 * meta-data space; software reads the counters back with `m.read`.
 *
 * Profiling tolerates sampling, so PROF uses the CFGR's
 * accept-if-not-full policy for the trace classes: when the FIFO is
 * full, packets are dropped instead of stalling the core — the
 * interface's policy (ii), unused by the paper's four extensions.
 */

#ifndef FLEXCORE_MONITORS_PROF_H_
#define FLEXCORE_MONITORS_PROF_H_

#include "monitors/monitor.h"

namespace flexcore {

class ProfMonitor : public Monitor
{
  public:
    /** `m.read %rd, sel` selectors. */
    enum Selector : u8 {
        kSelPackets = 0,
        kSelLoads = 1,
        kSelStores = 2,
        kSelAlu = 3,
        kSelBranchesTaken = 4,
        kSelTouchedWords = 5,
        kSelJumps = 6,
    };

    std::string_view name() const override { return "prof"; }
    unsigned pipelineDepth() const override { return 3; }
    unsigned tagBitsPerWord() const override { return 1; }

    void process(const CommitPacket &packet,
                 MonitorResult *result) override;
    void reset() override;

    u64 packets() const { return packets_; }
    u64 loads() const { return loads_; }
    u64 stores() const { return stores_; }
    u64 touchedWords() const { return touched_words_; }

  private:
    u64 packets_ = 0;
    u64 loads_ = 0;
    u64 stores_ = 0;
    u64 alu_ = 0;
    u64 branches_taken_ = 0;
    u64 jumps_ = 0;
    u64 touched_words_ = 0;
};

}  // namespace flexcore

#endif  // FLEXCORE_MONITORS_PROF_H_
