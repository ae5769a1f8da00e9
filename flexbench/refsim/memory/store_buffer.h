/**
 * @file
 * Write-through store buffer between the Leon3 core and the shared
 * bus. Stores retire into the buffer in one cycle; the buffer drains
 * one entry at a time through the bus. A full buffer stalls the core.
 */

#ifndef FLEXCORE_MEMORY_STORE_BUFFER_H_
#define FLEXCORE_MEMORY_STORE_BUFFER_H_

#include <deque>

#include "common/stats.h"
#include "common/types.h"
#include "memory/bus.h"

namespace flexcore {

class StoreBuffer
{
  public:
    StoreBuffer(StatGroup *parent, Bus *bus, u32 depth = 8);

    /** Bus arbitration port drains issue on (the owning core's port). */
    void setBusPort(u8 port) { bus_port_ = port; }

    /** True when no entry can be accepted this cycle. */
    bool full() const { return entries_.size() >= depth_; }
    bool empty() const { return entries_.empty() && !draining_; }

    /**
     * Accept a store. Returns false (and counts a stall) when full; the
     * core must retry next cycle.
     */
    bool push(Addr addr);

    /** Advance one cycle: issue the head entry to the bus if idle. */
    void
    tick()
    {
        // Called every system cycle; the buffer is empty for the vast
        // majority of them, so the no-op path must not leave the
        // header.
        if (!draining_ && !entries_.empty())
            issueHead();
    }

    /**
     * Fault-injection hook: flip one bit of a queued entry's address.
     * @p pick selects an entry modulo the current occupancy. Returns
     * false (nothing corrupted) when the buffer is empty. The store
     * buffer is a timing model (the functional store already hit
     * memory at execute), so this perturbs bus traffic, not data.
     */
    bool
    corruptEntry(u32 pick, u32 bit)
    {
        if (entries_.empty())
            return false;
        entries_[pick % entries_.size()] ^= Addr{1} << (bit & 31);
        return true;
    }

  private:
    /** Put the head entry on the bus (slow path of tick()). */
    void issueHead();

    Bus *bus_;
    u32 depth_;
    u8 bus_port_ = 0;
    std::deque<Addr> entries_;
    bool draining_ = false;   // head entry is on the bus

    StatGroup stats_;
    Counter stores_;
    Counter full_stalls_;
};

}  // namespace flexcore

#endif  // FLEXCORE_MEMORY_STORE_BUFFER_H_
