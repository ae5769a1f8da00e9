#include "monitors/refcount.h"

#include "extensions/builtin.h"
#include "extensions/registry.h"
#include "synth/extension_synth.h"

namespace flexcore {

void
registerRefCountExtension(ExtensionRegistry &registry)
{
    using K = Primitive::Kind;
    ExtensionDescriptor desc;
    desc.kind = MonitorKind::kRefCount;
    desc.name = "refcnt";
    desc.aliases = {"refcount"};
    desc.doc = "reference-counting GC support: per-object counts "
               "maintained from pointer stores";
    desc.make = [](const MonitorOptions &) -> std::unique_ptr<Monitor> {
        return std::make_unique<RefCountMonitor>();
    };
    desc.pipeline_depth = 4;
    desc.tag_bits_per_word = 1;
    desc.default_flex_period = 2;
    // Only stores mutate pointer slots; loads are irrelevant.
    desc.forwardClasses({kTypeStoreWord, kTypeCpop1, kTypeCpop2});
    desc.tapped_groups = 4;
    desc.build_fabric = [](const ExtensionDescriptor &d,
                           Inventory *fab) {
        // Bookkeeping-heavy: needs an adder for the count update and
        // wider state paths; counts and slot shadows live in meta-data
        // memory in a real implementation.
        fab->critical_levels = 4.5;
        fab->add(K::kAdder, 32, 2);       // inc/dec units
        fab->add(K::kAdder, 32);          // address translation
        fab->add(K::kMux, 32, 2);
        fab->add(K::kComparator, 32);     // zero detection
        fab->add(K::kRandomLogic, 220);
        fab->add(K::kRegister, 48, d.pipeline_depth);
    };
    registry.add(std::move(desc));
}

s32
RefCountMonitor::refCount(Addr base) const
{
    const auto it = counts_.find(base);
    return it == counts_.end() ? 0 : it->second;
}

void
RefCountMonitor::adjust(Addr object, s32 delta)
{
    if (object == 0)
        return;   // null pointers are not references
    s32 &count = counts_[object];
    count += delta;
    if (count <= 0) {
        ++zero_events_;
        counts_.erase(object);
    }
}

void
RefCountMonitor::process(const CommitPacket &packet,
                         MonitorResult *result)
{
    const Instruction &di = packet.di;

    if (di.op == Op::kCpop1 || di.op == Op::kCpop2) {
        switch (di.cpop_fn) {
          case CpopFn::kSetMemTag: {
            // Declare a pointer slot. Its current content (if the
            // program initialized it before declaring) is unknown to
            // us; slots are expected to be declared while null.
            mem_tags_.write(packet.addr, 1);
            slot_values_[packet.addr & ~3u] = 0;
            result->addOp(metaAddr(packet.addr), true);
            break;
          }
          case CpopFn::kClearMemTag: {
            // Retire a slot: its outgoing reference is dropped.
            const Addr slot = packet.addr & ~3u;
            const auto it = slot_values_.find(slot);
            if (it != slot_values_.end()) {
                adjust(it->second, -1);
                slot_values_.erase(it);
            }
            mem_tags_.write(packet.addr, 0);
            result->addOp(metaAddr(packet.addr), true);
            break;
          }
          case CpopFn::kReadTag:
            result->has_bfifo = true;
            result->bfifo =
                static_cast<u32>(refCount(packet.addr & ~3u));
            break;
          case CpopFn::kSetPolicy:
            policy_ = packet.addr;
            break;
          case CpopFn::kSetBase:
            meta_base_ = packet.res;
            break;
          default:
            break;
        }
        return;
    }

    if (di.op != Op::kSt)
        return;

    const Addr slot = packet.addr & ~3u;
    result->addOp(metaAddr(packet.addr), false);
    if (mem_tags_.read(packet.addr) == 0)
        return;   // not a declared pointer slot

    // RES carries the stored value: the new pointer target.
    auto &shadow = slot_values_[slot];
    adjust(shadow, -1);
    adjust(packet.res, +1);
    shadow = packet.res;
}

void
RefCountMonitor::reset()
{
    Monitor::reset();
    slot_values_.clear();
    counts_.clear();
    zero_events_ = 0;
}

}  // namespace flexcore
