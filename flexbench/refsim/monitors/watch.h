/**
 * @file
 * WATCH: iWatcher-class hardware watchpoints (§II-B cites Zhou et
 * al.'s iWatcher as a FlexCore-suitable debugging extension). Software
 * marks words as watched (`m.setmtag [addr], mode`); the extension
 * counts every access to a watched word and, in trapping mode, stops
 * the program on the first access — without any code instrumentation
 * and at word granularity.
 *
 * Watch modes (4-bit tag):
 *   0 = not watched
 *   1 = count loads and stores (non-intrusive profiling of a variable)
 *   2 = trap on store (classic "who is corrupting this?" watchpoint)
 *   3 = trap on any access
 */

#ifndef FLEXCORE_MONITORS_WATCH_H_
#define FLEXCORE_MONITORS_WATCH_H_

#include "monitors/monitor.h"

namespace flexcore {

class WatchMonitor : public Monitor
{
  public:
    enum Mode : u8 {
        kNotWatched = 0,
        kCount = 1,
        kTrapStore = 2,
        kTrapAccess = 3,
    };

    /** `m.read` selectors. */
    enum Selector : u8 {
        kSelHits = 0,        //!< accesses to watched words
        kSelLoadHits = 1,
        kSelStoreHits = 2,
    };

    std::string_view name() const override { return "watch"; }
    unsigned pipelineDepth() const override { return 3; }
    unsigned tagBitsPerWord() const override { return 4; }

    void process(const CommitPacket &packet,
                 MonitorResult *result) override;
    void reset() override;

    Mode mode(Addr addr) const
    {
        return static_cast<Mode>(mem_tags_.read(addr) & 0x3);
    }
    u64 hits() const { return hits_; }

  private:
    u64 hits_ = 0;
    u64 load_hits_ = 0;
    u64 store_hits_ = 0;
};

}  // namespace flexcore

#endif  // FLEXCORE_MONITORS_WATCH_H_
