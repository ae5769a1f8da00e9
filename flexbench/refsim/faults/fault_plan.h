/**
 * @file
 * Deterministic fault-injection plans: a FaultPlan is a list of
 * FaultSpec entries, each naming one state element to corrupt (one bit
 * flip or packet-field corruption) at one exact trigger point — a core
 * cycle number or a commit index. Plans come from three sources: the
 * compact CLI spec syntax (`reg@i1200:t17:b3`), a JSON plan document
 * ({"faults": [...]}) and seeded random generation in the coverage
 * campaign tool (src/faults/coverage.h). The same plan always produces
 * the same injections, independent of host, thread count, or
 * fast-forwarding (docs/fault_injection.md).
 *
 * This header is dependency-light on purpose (common/types only) so
 * sim/config.h can embed a FaultPlan without include cycles.
 */

#ifndef FLEXCORE_FAULTS_FAULT_PLAN_H_
#define FLEXCORE_FAULTS_FAULT_PLAN_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace flexcore {

/** Which state element a fault corrupts. */
enum class FaultKind : u8 {
    kRegFlip,        //!< architectural register file (physical index)
    kShadowRegFlip,  //!< monitor shadow register file (fabric, §III-E)
    kMemFlip,        //!< backing memory byte (also invalidates µops)
    kMetaFlip,       //!< monitor per-word tag store (meta-data state)
    kFfifoFlip,      //!< queued forward-FIFO packet field
    kSbFlip,         //!< store-buffer entry address (timing-only)
};
inline constexpr unsigned kNumFaultKinds = 6;

/** When a fault fires. */
enum class FaultTrigger : u8 {
    kCycle,    //!< at the start of core cycle `when`
    kCommit,   //!< right after the `when`-th committed instruction
};

/** Packet field targeted by kFfifoFlip. */
enum class PacketField : u8 { kRes, kSrcv1, kSrcv2, kAddr, kDest };

std::string_view faultKindName(FaultKind kind);
std::string_view packetFieldName(PacketField field);
/** Parse a kind/field name; returns false on unknown names. */
bool parseFaultKind(std::string_view name, FaultKind *out);
bool parsePacketField(std::string_view name, PacketField *out);

/** One scheduled fault. */
struct FaultSpec
{
    FaultKind kind = FaultKind::kRegFlip;
    FaultTrigger trigger = FaultTrigger::kCycle;
    u64 when = 0;    //!< cycle number or 1-based commit index
    /**
     * Kind-dependent target selector: physical register index
     * (kRegFlip/kShadowRegFlip), byte address (kMemFlip), data word
     * address (kMetaFlip), or queue-position pick modulo the current
     * occupancy (kFfifoFlip/kSbFlip).
     */
    u32 target = 0;
    u32 bit = 0;     //!< bit to flip within the targeted element
    PacketField field = PacketField::kRes;   //!< kFfifoFlip only
    /**
     * Core whose state the fault targets (register file, store buffer,
     * per-core monitor meta-data, ...). 0 on single-core systems;
     * SystemConfig::finalize() rejects plans naming a core at or above
     * num_cores.
     */
    u32 core = 0;
};

/**
 * Compact one-fault spec syntax (CLI `--inject`, JSON "spec" echoes):
 *
 *   KIND@TRIGGER:tTARGET:bBIT[:fFIELD][:cCORE]
 *
 * where KIND is reg|shadow|mem|meta|ffifo|sb, TRIGGER is cN (cycle N)
 * or iN (commit index N), TARGET accepts decimal or 0x hex, and FIELD
 * (ffifo only) is res|srcv1|srcv2|addr|dest. A trailing cN after the
 * trigger names the target core on multi-core systems (the leading cN
 * is always the trigger; a second one is the core). Examples:
 *
 *   reg@i1200:t17:b3       flip bit 3 of phys reg 17 after commit 1200
 *   mem@c5000:t0x2040:b5   flip bit 5 of byte 0x2040 at cycle 5000
 *   ffifo@c900:t2:b12:fsrcv1
 *   reg@i800:t17:b3:c1     same flip, but in core 1's register file
 */
std::string formatFaultSpec(const FaultSpec &spec);
/** Parse the compact syntax; on failure returns false and sets @p error. */
bool parseFaultSpec(std::string_view text, FaultSpec *out,
                    std::string *error);

/** A full injection schedule. */
struct FaultPlan
{
    std::vector<FaultSpec> specs;

    bool empty() const { return specs.empty(); }
    size_t size() const { return specs.size(); }

    /** Canonical one-line rendering: specs joined with ','. */
    std::string format() const;
};

/**
 * Parse a plan document: either a JSON object {"faults": [{"kind":
 * "reg", "trigger": "commit", "when": 1200, "target": 17, "bit": 3,
 * "field": "res"}, ...]} (detected by a leading '{'), or newline/
 * comma-separated compact specs with '#' comments. Returns false and
 * sets @p error on malformed input.
 */
bool parseFaultPlan(std::string_view text, FaultPlan *out,
                    std::string *error);

/** Canonical JSON rendering of a plan (inverse of the JSON parse). */
std::string faultPlanJson(const FaultPlan &plan);

/** One spec as a JSON object (the element shape of faultPlanJson). */
std::string faultSpecJson(const FaultSpec &spec);

/**
 * Static validation: bit widths per kind (32 for kRegFlip/kFfifoFlip,
 * 8 for shadow/memory/meta flips), register targets below the physical
 * register file size, word-aligned kMetaFlip targets, non-zero trigger
 * points. Returns an empty string when valid, else the first problem.
 */
std::string validateFaultPlan(const FaultPlan &plan);

}  // namespace flexcore

#endif  // FLEXCORE_FAULTS_FAULT_PLAN_H_
