#include "monitors/dift.h"

#include "common/log.h"
#include "extensions/builtin.h"
#include "extensions/registry.h"
#include "flexcore/shadow_regfile.h"
#include "synth/extension_synth.h"

namespace flexcore {

DiftMonitor::DiftMonitor(unsigned tag_bits)
    : tag_bits_(tag_bits)
{
    if (tag_bits != 1 && tag_bits != 4)
        FLEX_FATAL("DIFT supports 1- or 4-bit tags, not ", tag_bits);
}

void
registerDiftExtension(ExtensionRegistry &registry)
{
    using K = Primitive::Kind;
    ExtensionDescriptor desc;
    desc.kind = MonitorKind::kDift;
    desc.name = "dift";
    desc.doc = "dynamic information-flow tracking: taint propagates "
               "through ALU/memory ops, checked at indirect jumps";
    desc.make = [](const MonitorOptions &options)
        -> std::unique_ptr<Monitor> {
        return std::make_unique<DiftMonitor>(options.dift_tag_bits);
    };
    desc.pipeline_depth = 4;
    desc.tag_bits_per_word = 1;   // the default 1-bit boolean taint
    desc.default_flex_period = 2;
    desc.forwardClasses({kTypeAluAdd, kTypeAluSub, kTypeAluLogic,
                         kTypeAluShift, kTypeSethi, kTypeMul, kTypeDiv,
                         kTypeLoadWord, kTypeLoadByte, kTypeLoadHalf,
                         kTypeStoreWord, kTypeStoreByte, kTypeStoreHalf,
                         kTypeIndirectJump, kTypeCall, kTypeSave,
                         kTypeRestore, kTypeCpop1, kTypeCpop2});
    desc.tapped_groups = 9;   // values, regs, opcode, addr, ...
    desc.build_fabric = [](const ExtensionDescriptor &d,
                           Inventory *fab) {
        fab->critical_levels = 4.3;
        fab->add(K::kAdder, 32);          // tag address translation
        fab->add(K::kMux, 32);            // tag routing
        fab->add(K::kDecoder, 5);         // rule dispatch
        fab->add(K::kComparator, 1);      // jump-target check
        fab->add(K::kRandomLogic, 218);   // propagation rules + policy
        fab->add(K::kRegister, 48, d.pipeline_depth);
    };
    desc.build_asic = [](const ExtensionDescriptor &,
                         Inventory *asic) {
        asic->sram_bits =
            metaCacheBits(4 * 1024, 32) + forwardFifoBits(64);
        asic->sram_macros = 3;
        asic->add(K::kAdder, 32);
        asic->add(K::kRegister, kNumPhysRegs);   // 1-bit tag regfile
        asic->add(K::kRandomLogic, 22900);
    };
    desc.paper_grid = true;
    registry.add(std::move(desc));
}

void
DiftMonitor::process(const CommitPacket &packet, MonitorResult *result)
{
    const Instruction &di = packet.di;

    if (di.op == Op::kCpop1 || di.op == Op::kCpop2) {
        handleCpop(packet, result);
        return;
    }

    if (isLoad(di.op)) {
        const u8 tag = mem_tags_.read(packet.addr);
        reg_tags_.write(packet.dest, tag);
        result->addOp(metaAddr(packet.addr), false);
        return;
    }
    if (isStore(di.op)) {
        // DEST carries the store-data register.
        mem_tags_.write(packet.addr, reg_tags_.read(packet.dest));
        result->addOp(metaAddr(packet.addr), true);
        return;
    }

    switch (di.type) {
      case kTypeSethi:
        reg_tags_.write(packet.dest, 0);   // immediate: untainted
        break;
      case kTypeAluAdd:
      case kTypeAluSub:
      case kTypeAluLogic:
      case kTypeAluShift:
      case kTypeMul:
      case kTypeDiv:
      case kTypeSave:
      case kTypeRestore: {
        const u8 tag = static_cast<u8>(reg_tags_.read(packet.src1) |
                                       reg_tags_.read(packet.src2));
        reg_tags_.write(packet.dest, tag);
        break;
      }
      case kTypeIndirectJump:
        if ((policy_ & kCheckIndirectJumps) &&
            reg_tags_.read(packet.src1) != 0) {
            result->setTrap("tainted indirect jump target");
        }
        // The link register receives the (untainted) return address.
        reg_tags_.write(packet.dest, 0);
        break;
      case kTypeCall:
        reg_tags_.write(packet.dest, 0);   // %o7 = PC, untainted
        break;
      default:
        break;
    }
}

void
DiftMonitor::handleCpop(const CommitPacket &packet, MonitorResult *result)
{
    // The tag value travels in the instruction's rd field (DEST); a
    // zero value means "the default label", i.e. plain taint bit 0.
    const u8 value =
        static_cast<u8>(packet.dest & 0x1f) & tagMask();
    switch (packet.di.cpop_fn) {
      case CpopFn::kSetRegTag:
        reg_tags_.write(packet.src1, value ? value : 1);
        break;
      case CpopFn::kClearRegTag:
        reg_tags_.write(packet.src1, 0);
        break;
      case CpopFn::kSetMemTag:
        mem_tags_.write(packet.addr, value ? value : 1);
        result->addOp(metaAddr(packet.addr), true);
        break;
      case CpopFn::kClearMemTag:
        mem_tags_.write(packet.addr, 0);
        result->addOp(metaAddr(packet.addr), true);
        break;
      case CpopFn::kSetPolicy:
        policy_ = packet.addr;
        break;
      case CpopFn::kReadTag:
        result->has_bfifo = true;
        result->bfifo = reg_tags_.read(packet.src1);
        break;
      case CpopFn::kSetBase:
        meta_base_ = packet.res;
        break;
      default:
        break;
    }
}

}  // namespace flexcore
