/**
 * @file
 * REFCNT: reference-counting support for garbage collection (§II-B
 * cites Joao et al.'s hardware reference-counting acceleration as a
 * natural parallel-bookkeeping extension). Unlike the checking
 * extensions, REFCNT never traps: it performs pure bookkeeping.
 *
 * Software declares pointer slots (`m.setmtag [slot], 1`) and object
 * headers (`m.settag %robj` is not needed — objects are identified by
 * their base address). On every store to a declared slot the extension
 * decrements the reference count of the slot's previous target and
 * increments the new target's count, maintaining its own shadow copy
 * of slot contents so the old pointer never has to be re-read from
 * memory. The collector reads counts back with `m.read %rd, 0` (count
 * of the object at the address in the preceding `m.base`-style query
 * packet's ADDR field — here simply ADDR of the m.read itself).
 */

#ifndef FLEXCORE_MONITORS_REFCOUNT_H_
#define FLEXCORE_MONITORS_REFCOUNT_H_

#include <unordered_map>

#include "monitors/monitor.h"

namespace flexcore {

class RefCountMonitor : public Monitor
{
  public:
    std::string_view name() const override { return "refcnt"; }
    unsigned pipelineDepth() const override { return 4; }
    unsigned tagBitsPerWord() const override { return 1; }

    void process(const CommitPacket &packet,
                 MonitorResult *result) override;
    void reset() override;

    /** Current reference count of the object at @p base (0 if none). */
    s32 refCount(Addr base) const;

    /** Number of objects whose count dropped to zero (collectable). */
    u64 zeroEvents() const { return zero_events_; }

  private:
    void adjust(Addr object, s32 delta);

    /** Shadow copy of declared pointer slots' contents. */
    std::unordered_map<Addr, Addr> slot_values_;
    /** Reference counts keyed by object base address. */
    std::unordered_map<Addr, s32> counts_;
    u64 zero_events_ = 0;
};

}  // namespace flexcore

#endif  // FLEXCORE_MONITORS_REFCOUNT_H_
