#include "monitors/software.h"

#include "extensions/builtin.h"
#include "extensions/registry.h"

namespace flexcore {

namespace {

/**
 * Shared helper: expansion described as per-class costs. Shadow-table
 * accesses use the real D-cache path, so software monitoring both adds
 * instructions and pollutes the cache, as §V-C's cited software
 * systems do.
 */
class TableDrivenMonitor : public SoftwareMonitor
{
  public:
    struct Costs
    {
        u32 alu_alu = 0;        //!< extra ALU ops per monitored ALU op
        u32 mem_alu = 0;        //!< extra ALU ops per load/store
        bool mem_shadow = false;   //!< shadow-table access per load/store
        u32 jump_alu = 0;       //!< extra ALU ops per indirect jump
        u32 shadow_shift = 5;   //!< data addr -> shadow addr (>> shift)
    };

    TableDrivenMonitor(std::string_view name, Costs costs)
        : name_(name), costs_(costs)
    {
    }

    std::string_view name() const override { return name_; }

    void
    expand(const Instruction &inst, Addr effective_addr,
           std::vector<SwMicroOp> *out) const override
    {
        switch (inst.type) {
          case kTypeAluAdd:
          case kTypeAluSub:
          case kTypeAluLogic:
          case kTypeAluShift:
          case kTypeMul:
          case kTypeDiv:
            for (u32 i = 0; i < costs_.alu_alu; ++i)
                out->push_back({SwMicroOp::Kind::kAlu, 0});
            break;
          case kTypeLoadWord:
          case kTypeLoadByte:
          case kTypeLoadHalf:
          case kTypeStoreWord:
          case kTypeStoreByte:
          case kTypeStoreHalf: {
            for (u32 i = 0; i < costs_.mem_alu; ++i)
                out->push_back({SwMicroOp::Kind::kAlu, 0});
            if (costs_.mem_shadow) {
                const Addr shadow =
                    (kSwShadowBase +
                     (effective_addr >> costs_.shadow_shift)) &
                    ~3u;
                const bool is_store = isStore(inst.op);
                out->push_back({is_store ? SwMicroOp::Kind::kStore
                                         : SwMicroOp::Kind::kLoad,
                                shadow});
            }
            break;
          }
          case kTypeIndirectJump:
            for (u32 i = 0; i < costs_.jump_alu; ++i)
                out->push_back({SwMicroOp::Kind::kAlu, 0});
            break;
          default:
            break;
        }
    }

  private:
    std::string_view name_;
    Costs costs_;
};

}  // namespace

void
registerSoftwareModels(ExtensionRegistry &registry)
{
    registry.addSoftwareModel(
        MonitorKind::kUmc,
        []() -> const SoftwareMonitor * { return softwareUmc(); });
    registry.addSoftwareModel(
        MonitorKind::kDift,
        []() -> const SoftwareMonitor * { return softwareDift(); });
    registry.addSoftwareModel(
        MonitorKind::kBc,
        []() -> const SoftwareMonitor * { return softwareBc(); });
    registry.addSoftwareModel(
        MonitorKind::kSec,
        []() -> const SoftwareMonitor * { return softwareSec(); });
}

SoftwareMonitor *
softwareDift()
{
    // LIFT-class inline taint tracking: tag address computation and OR
    // per ALU op, shadow-tag move with address arithmetic per memory
    // op, check-and-branch before indirect jumps. LIFT reports 3.6x on
    // an aggressive out-of-order x86; an in-order core hides none of
    // the instrumentation.
    static TableDrivenMonitor monitor(
        "sw-dift", {.alu_alu = 3,
                    .mem_alu = 5,
                    .mem_shadow = true,
                    .jump_alu = 3,
                    .shadow_shift = 5});
    return &monitor;
}

SoftwareMonitor *
softwareUmc()
{
    // Purify-class initialization tracking: each access is wrapped in
    // an instrumented check sequence (state-byte load, mask, test,
    // branch, bookkeeping) - Purify reports up to 5.5x.
    static TableDrivenMonitor monitor(
        "sw-umc", {.alu_alu = 0,
                   .mem_alu = 12,
                   .mem_shadow = true,
                   .jump_alu = 0,
                   .shadow_shift = 5});
    return &monitor;
}

SoftwareMonitor *
softwareBc()
{
    // Bounds checking via a color/bounds table lookup per access plus
    // pointer-arithmetic bookkeeping.
    static TableDrivenMonitor monitor(
        "sw-bc", {.alu_alu = 0,
                  .mem_alu = 2,
                  .mem_shadow = true,
                  .jump_alu = 0,
                  .shadow_shift = 2});
    return &monitor;
}

SoftwareMonitor *
softwareSec()
{
    // Instruction duplication and compare (SWIFT-class).
    static TableDrivenMonitor monitor("sw-sec", {.alu_alu = 2,
                                                 .mem_alu = 1,
                                                 .mem_shadow = false,
                                                 .jump_alu = 1,
                                                 .shadow_shift = 5});
    return &monitor;
}

}  // namespace flexcore
