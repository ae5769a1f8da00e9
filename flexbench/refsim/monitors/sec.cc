#include "monitors/sec.h"

#include "extensions/builtin.h"
#include "extensions/registry.h"
#include "synth/extension_synth.h"

namespace flexcore {

void
registerSecExtension(ExtensionRegistry &registry)
{
    using K = Primitive::Kind;
    ExtensionDescriptor desc;
    desc.kind = MonitorKind::kSec;
    desc.name = "sec";
    desc.doc = "soft-error check: re-executes ALU results and keeps "
               "mod-7 residues of every register write";
    desc.make = [](const MonitorOptions &) -> std::unique_ptr<Monitor> {
        return std::make_unique<SecMonitor>();
    };
    desc.pipeline_depth = 6;
    desc.tag_bits_per_word = 0;   // stateless in memory
    desc.default_flex_period = 4;
    // Every class that can write an integer register is forwarded so
    // the shadow residue file never goes stale: an unforwarded write
    // would leave the old residue behind and later reads of that
    // register would trap spuriously. Stores, branches, and traps
    // write no integer register and stay ignored; cpops stay ignored
    // because SEC itself is the co-processor.
    desc.forwardClasses({kTypeAluAdd, kTypeAluSub, kTypeAluLogic,
                         kTypeAluShift, kTypeMul, kTypeDiv, kTypeSethi,
                         kTypeLoadWord, kTypeLoadByte, kTypeLoadHalf,
                         kTypeCall, kTypeIndirectJump, kTypeSave,
                         kTypeRestore, kTypeReadY});
    desc.tapped_groups = 2;   // operands/result + opcode
    desc.build_fabric = [](const ExtensionDescriptor &d,
                           Inventory *fab) {
        fab->critical_levels = 5.6;
        fab->add(K::kAdder, 32);          // add/sub re-execution
        fab->add(K::kShifter, 32);        // shift re-execution
        fab->add(K::kComparator, 32, 2);  // result comparison
        fab->add(K::kMultiplier, 8);      // mod-7 residue unit
        fab->add(K::kRandomLogic, 828);   // logic-op checker + control
        fab->add(K::kRegister, 100, d.pipeline_depth);
    };
    desc.build_asic = [](const ExtensionDescriptor &,
                         Inventory *asic) {
        // No meta-data cache and no forward FIFO: the ASIC checker
        // taps the ALU directly (hence the tiny 0.15% area overhead
        // reported in the paper).
        asic->add(K::kAdder, 32);
        asic->add(K::kMultiplier, 4);
        asic->add(K::kRandomLogic, 470);
    };
    desc.paper_grid = true;
    registry.add(std::move(desc));
}

u32
SecMonitor::mod7(u32 value)
{
    // Repeated base-8 digit folding; 7 itself is congruent to 0.
    u32 sum = value;
    while (sum > 7) {
        u32 fold = 0;
        for (u32 v = sum; v != 0; v >>= 3)
            fold += v & 7;
        sum = fold;
    }
    return sum == 7 ? 0 : sum;
}

bool
SecMonitor::operandCorrupted(u16 phys, u32 value) const
{
    if (phys == 0)
        return false;
    const u8 tag = reg_tags_.read(phys);
    return (tag & kResidueValid) && (tag & 7) != mod7(value);
}

void
SecMonitor::process(const CommitPacket &packet, MonitorResult *result)
{
    const Instruction &di = packet.di;
    ++checks_;

    // Register residue check: the value read out of the register file
    // must still match the residue recorded when it was written. This
    // is what catches bit flips in the register file itself — the ALU
    // recomputation below runs on the same (corrupted) operands and
    // would agree with the faulty result.
    const bool residue_bad =
        operandCorrupted(packet.src1, packet.srcv1) ||
        operandCorrupted(packet.src2, packet.srcv2);

    bool alu_bad = false;
    switch (di.type) {
      case kTypeMul: {
        // Modular check: res ≡ a*b (mod 7) on the low 32 bits is not
        // exact, so check the full 64-bit product's residue against
        // the concatenated result (RES holds the low word, the high
        // word travels in the EXTRA... the prototype checks the low
        // word via full recomputation residues).
        const u64 product =
            static_cast<u64>(packet.srcv1) * packet.srcv2;
        const bool is_signed =
            di.op == Op::kSmul || di.op == Op::kSmulcc;
        const u64 sproduct = static_cast<u64>(
            static_cast<s64>(static_cast<s32>(packet.srcv1)) *
            static_cast<s64>(static_cast<s32>(packet.srcv2)));
        const u32 low = static_cast<u32>(is_signed ? sproduct : product);
        alu_bad = mod7(low) != mod7(packet.res);
        break;
      }
      case kTypeDiv: {
        // Recompute the quotient (Y assumed zero, matching the
        // `wr %g0, %y` convention of our runtime).
        const AluResult check =
            checker_alu_.execute(di.op, packet.srcv1, packet.srcv2, 0);
        alu_bad = !check.div_by_zero && check.value != packet.res;
        break;
      }
      case kTypeAluAdd:
      case kTypeAluSub:
      case kTypeAluLogic:
      case kTypeAluShift: {
        const AluResult check =
            checker_alu_.execute(di.op, packet.srcv1, packet.srcv2, 0);
        alu_bad = check.value != packet.res;
        break;
      }
      default:
        // Loads, sethi, call/jmpl, save/restore, rd %y: forwarded only
        // to keep the destination residue fresh; nothing to recompute.
        break;
    }

    if (residue_bad || alu_bad) {
        ++errors_;
        if (policy_ & 1) {
            result->setTrap(residue_bad
                                ? "register residue mismatch (soft error)"
                                : "ALU result mismatch (soft error)");
        }
    }

    // Record the destination's residue. Call/jmpl write the *link
    // address* (the instruction's own PC) to their destination; RES
    // carries the branch target for those, so derive the residue from
    // the PC instead.
    if (packet.dest != 0) {
        const u32 written = (di.type == kTypeCall ||
                             di.type == kTypeIndirectJump)
                                ? packet.pc
                                : packet.res;
        reg_tags_.write(packet.dest,
                        static_cast<u8>(kResidueValid | mod7(written)));
    }
}

}  // namespace flexcore
