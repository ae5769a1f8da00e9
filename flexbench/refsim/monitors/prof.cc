#include "monitors/prof.h"

#include "extensions/builtin.h"
#include "extensions/registry.h"
#include "synth/extension_synth.h"

namespace flexcore {

void
registerProfExtension(ExtensionRegistry &registry)
{
    using K = Primitive::Kind;
    ExtensionDescriptor desc;
    desc.kind = MonitorKind::kProf;
    desc.name = "prof";
    desc.doc = "working-set and instruction-mix profiler "
               "(droppable forwarding, counter bank on the fabric)";
    desc.make = [](const MonitorOptions &) -> std::unique_ptr<Monitor> {
        return std::make_unique<ProfMonitor>();
    };
    desc.pipeline_depth = 3;
    desc.tag_bits_per_word = 1;
    desc.default_flex_period = 2;
    // Trace classes may be sampled: drop rather than stall when full.
    desc.forwardClasses({kTypeAluAdd, kTypeAluSub, kTypeAluLogic,
                         kTypeAluShift, kTypeMul, kTypeDiv,
                         kTypeLoadWord, kTypeLoadByte, kTypeLoadHalf,
                         kTypeStoreWord, kTypeStoreByte, kTypeStoreHalf,
                         kTypeBranch, kTypeIndirectJump, kTypeCall},
                        ForwardPolicy::kIfNotFull);
    // Reads of the counters must not be dropped.
    desc.forwardClasses({kTypeCpop1, kTypeCpop2});
    desc.tapped_groups = 3;
    desc.build_fabric = [](const ExtensionDescriptor &d,
                           Inventory *fab) {
        // Working-set profiler: counters plus the touched-bit path.
        fab->critical_levels = 4.0;
        fab->add(K::kAdder, 32);          // tag address translation
        fab->add(K::kAdder, 32, 2);       // 32-bit event counters (inc)
        fab->add(K::kDecoder, 4);
        fab->add(K::kRandomLogic, 160);
        fab->add(K::kRegister, 32, 7);    // the counter bank
        fab->add(K::kRegister, 40, d.pipeline_depth);
    };
    registry.add(std::move(desc));
}

void
ProfMonitor::process(const CommitPacket &packet, MonitorResult *result)
{
    const Instruction &di = packet.di;

    if (di.op == Op::kCpop1 || di.op == Op::kCpop2) {
        if (di.cpop_fn == CpopFn::kReadTag) {
            result->has_bfifo = true;
            switch (static_cast<Selector>(di.simm & 0xff)) {
              case kSelPackets:
                result->bfifo = static_cast<u32>(packets_);
                break;
              case kSelLoads:
                result->bfifo = static_cast<u32>(loads_);
                break;
              case kSelStores:
                result->bfifo = static_cast<u32>(stores_);
                break;
              case kSelAlu:
                result->bfifo = static_cast<u32>(alu_);
                break;
              case kSelBranchesTaken:
                result->bfifo = static_cast<u32>(branches_taken_);
                break;
              case kSelTouchedWords:
                result->bfifo = static_cast<u32>(touched_words_);
                break;
              case kSelJumps:
                result->bfifo = static_cast<u32>(jumps_);
                break;
              default:
                result->bfifo = 0;
                break;
            }
        } else if (di.cpop_fn == CpopFn::kSetPolicy) {
            policy_ = packet.addr;
        } else if (di.cpop_fn == CpopFn::kSetBase) {
            meta_base_ = packet.res;
        }
        return;
    }

    ++packets_;
    if (isLoad(di.op) || isStore(di.op)) {
        if (isLoad(di.op))
            ++loads_;
        else
            ++stores_;
        // Working-set tracking: one touched bit per word.
        if (mem_tags_.read(packet.addr) == 0) {
            mem_tags_.write(packet.addr, 1);
            ++touched_words_;
            result->addOp(metaAddr(packet.addr), true);
        } else {
            result->addOp(metaAddr(packet.addr), false);
        }
        return;
    }
    switch (di.type) {
      case kTypeAluAdd: case kTypeAluSub: case kTypeAluLogic:
      case kTypeAluShift: case kTypeMul: case kTypeDiv:
        ++alu_;
        break;
      case kTypeBranch:
        branches_taken_ += packet.branch;
        break;
      case kTypeIndirectJump:
      case kTypeCall:
        ++jumps_;
        break;
      default:
        break;
    }
}

void
ProfMonitor::reset()
{
    Monitor::reset();
    packets_ = loads_ = stores_ = alu_ = 0;
    branches_taken_ = jumps_ = touched_words_ = 0;
}

}  // namespace flexcore
