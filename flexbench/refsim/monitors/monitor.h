/**
 * @file
 * Base class for FlexCore monitoring extensions ("co-processors" in the
 * paper's terminology) plus the shared per-word tag store. A Monitor's
 * functional semantics run when the fabric dequeues its packet; the
 * fabric models timing (pipeline occupancy, meta-data cache misses)
 * around the MetaAccess list the monitor reports.
 */

#ifndef FLEXCORE_MONITORS_MONITOR_H_
#define FLEXCORE_MONITORS_MONITOR_H_

#include <array>
#include <cassert>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "flexcore/cfgr.h"
#include "flexcore/packet.h"
#include "flexcore/shadow_regfile.h"
#include "memory/meta_cache.h"

namespace flexcore {

/** Default meta-data region base (managed by the OS per §III-F). */
inline constexpr Addr kDefaultMetaBase = 0x40000000;

/** One meta-data cache access required by a packet. */
struct MetaAccess
{
    Addr addr = 0;
    bool is_write = false;
};

/** Functional outcome of processing one packet. */
struct MonitorResult
{
    std::array<MetaAccess, 2> ops;
    unsigned num_ops = 0;
    bool trap = false;
    const char *trap_reason = nullptr;
    bool has_bfifo = false;
    u32 bfifo = 0;

    void
    addOp(Addr addr, bool is_write)
    {
        // A packet never needs more than two meta accesses with the
        // current extensions. A third is a monitor bug — losing it
        // silently would skew the fabric timing model, so fail loudly
        // in debug builds instead of dropping it.
        assert(num_ops < ops.size() &&
               "MonitorResult::addOp: more meta accesses than "
               "MonitorResult can carry; widen MonitorResult::ops");
        if (num_ops >= ops.size())
            return;
        ops[num_ops].addr = addr;
        ops[num_ops].is_write = is_write;
        ++num_ops;
    }

    void
    setTrap(const char *reason)
    {
        trap = true;
        trap_reason = reason;
    }
};

/**
 * Per-word tag storage (functional meta-data state). Tags are keyed by
 * the *data* word address; widths up to 8 bits.
 *
 * Every forwarded load/store costs at least one TagStore lookup, so
 * this sits squarely on the simulator's hot path. The backing is an
 * open-addressed page table (power-of-two slots, linear probing) in
 * front of stable 1 KB tag pages, plus a one-entry last-page cache:
 * the common case — consecutive accesses landing in the same 4 KB data
 * page — resolves with one compare and one indexed load, no hashing.
 */
class TagStore
{
  public:
    static constexpr u32 kPageShift = 12;          // 4 KB of data words
    static constexpr u32 kWordsPerPage = 1u << (kPageShift - 2);

    u8
    read(Addr data_addr) const
    {
        const u32 page = data_addr >> kPageShift;
        if (page == last_page_)
            return last_tags_[wordIndex(data_addr)];
        if (shared_ && data_addr - shared_base_ < shared_size_)
            return shared_->read(data_addr);
        const u8 *tags = findPage(page);
        return tags ? tags[wordIndex(data_addr)] : 0;
    }

    void
    write(Addr data_addr, u8 tag)
    {
        const u32 page = data_addr >> kPageShift;
        if (page == last_page_) {
            last_tags_[wordIndex(data_addr)] = tag;
            return;
        }
        if (shared_ && data_addr - shared_base_ < shared_size_) {
            shared_->write(data_addr, tag);
            return;
        }
        u8 *tags = findPage(page);
        if (!tags) {
            if (tag == 0)
                return;   // absent pages read as all-zero anyway
            tags = createPage(page);
        }
        tags[wordIndex(data_addr)] = tag;
    }

    void clear();

    /**
     * Route tags for the multi-core coherent window to @p backing, so
     * every core's monitor sees one set of tags for shared data — the
     * meta-data leg of cross-core information flow (docs/multicore.md).
     * The local last-page cache never holds window pages (window
     * addresses are delegated before they reach findPage/createPage),
     * so the fast path above stays sound. Single-core systems never
     * set a window and only pay a null check after a last-page miss.
     */
    void
    setSharedWindow(TagStore *backing, Addr base, u32 size)
    {
        shared_ = backing;
        shared_base_ = base;
        shared_size_ = size;
    }

  private:
    /** Sentinel above any reachable page index (Addr is 32-bit, so
     * real page indices fit in 20 bits). */
    static constexpr u32 kNoPage = ~u32{0};

    static u32
    wordIndex(Addr data_addr)
    {
        return (data_addr >> 2) & (kWordsPerPage - 1);
    }

    static u32
    hashPage(u32 page)
    {
        return page * 0x9e3779b1u;   // Fibonacci hashing
    }

    /** Probe for @p page; updates the last-page cache on a hit. */
    u8 *findPage(u32 page) const;
    /** Insert a zero-filled page (grows at 50% load). */
    u8 *createPage(u32 page);
    void grow();

    struct Slot
    {
        u32 key = kNoPage;
        std::unique_ptr<u8[]> tags;   // kWordsPerPage bytes, stable
    };

    std::vector<Slot> slots_;
    size_t used_ = 0;
    TagStore *shared_ = nullptr;   //!< backing for the coherent window
    Addr shared_base_ = 0;
    u32 shared_size_ = 0;
    // Last-page cache. The tag arrays are heap blocks owned through
    // stable unique_ptrs, so growing the slot table never invalidates
    // the cached pointer.
    mutable u32 last_page_ = kNoPage;
    mutable u8 *last_tags_ = nullptr;
};

class Monitor
{
  public:
    Monitor();
    virtual ~Monitor() = default;

    virtual std::string_view name() const = 0;

    /** Pipeline depth in fabric cycles (§IV: 3 to 6 stages). */
    virtual unsigned pipelineDepth() const = 0;

    /** Meta-data width per data word (0 = stateless, e.g. SEC). */
    virtual unsigned tagBitsPerWord() const = 0;

    /** Functional semantics for one forwarded packet. */
    virtual void process(const CommitPacket &packet,
                         MonitorResult *result) = 0;

    /**
     * Hook invoked when a program image is loaded (models the OS
     * initializing meta-data for statically initialized memory).
     */
    virtual void onProgramLoad(Addr base, u32 size);

    /** Reset all meta-data state between runs. */
    virtual void reset();

    /** Human-readable reason of the most recent trap request. */
    const std::string &lastTrapReason() const { return last_trap_reason_; }
    void noteTrap(const char *reason) { last_trap_reason_ = reason; }

    Addr metaBase() const { return meta_base_; }
    void setMetaBase(Addr base) { meta_base_ = base; }

    u32 policy() const { return policy_; }
    void setPolicy(u32 policy) { policy_ = policy; }

    /**
     * Fault-injection access to the monitor's functional meta-data
     * state: the shadow register file and the per-word tag store.
     * The injector flips bits here to model soft errors in the
     * fabric's embedded meta-data storage (§III-E).
     */
    ShadowRegFile &regTags() { return reg_tags_; }
    TagStore &memTags() { return mem_tags_; }

    /** Meta-data byte address for a data address under this monitor. */
    Addr
    metaAddr(Addr data_addr) const
    {
        return MetaCache::metaByteAddr(meta_base_, data_addr,
                                       tagBitsPerWord());
    }

  protected:
    TagStore mem_tags_;
    ShadowRegFile reg_tags_;
    Addr meta_base_ = kDefaultMetaBase;
    u32 policy_ = 1;   //!< bit 0: checks raise traps
    std::string last_trap_reason_;
};

}  // namespace flexcore

#endif  // FLEXCORE_MONITORS_MONITOR_H_
