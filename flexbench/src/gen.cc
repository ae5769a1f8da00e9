#include "gen.h"

#include <sstream>
#include <vector>

#include "common/rng.h"
#include "workloads/workload.h"

namespace fb {

using flexcore::Rng;
using flexcore::s32;

namespace {

constexpr u64 kColdSalt = 0xc01d;
constexpr u64 kWindowSalt = 0x5a4ed;
constexpr u64 kFaultSalt = 0xfa17;

std::string
hexWord(u32 v)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%x", v);
    return buf;
}

}  // namespace

GenProgram
coldProgram(u64 seed, u64 index)
{
    Rng rng(mixSeed(mixSeed(seed, kColdSalt), index));
    const u32 words = 32 + rng.below(64);
    const u32 h0 = rng.next32();
    std::vector<u32> table(words);
    for (u32 &w : table)
        w = rng.next32();

    // h = ((h << 5) + h) ^ w over the table, u32 wrap-around.
    u32 h = h0;
    for (u32 w : table)
        h = ((h << 5) + h) ^ w;

    std::ostringstream src;
    src << flexcore::runtimePrologue();
    src << "main:   save %sp, -96, %sp\n"
        << "        set tbl, %l0\n"
        << "        set " << words << ", %l1\n"
        << "        set " << hexWord(h0) << ", %i5\n"
        << "loop:   ld [%l0], %o1\n"
        << "        sll %i5, 5, %o2\n"
        << "        add %o2, %i5, %i5\n"
        << "        xor %i5, %o1, %i5\n"
        << "        add %l0, 4, %l0\n"
        << "        subcc %l1, 1, %l1\n"
        << "        bne loop\n"
        << "        nop\n"
        << "        mov %i5, %o0\n"
        << "        ta 2\n"
        << "        mov 10, %o0\n"
        << "        ta 1\n"
        << "        mov 0, %i0\n"
        << "        ret\n"
        << "        restore\n"
        << "        .align 4\n"
        << "tbl:\n"
        << flexcore::wordData(table);

    GenProgram out;
    out.source = src.str();
    out.expected_console = std::to_string(static_cast<s32>(h)) + "\n";
    return out;
}

GenProgram
sharedWindowProgram(u64 seed, u32 cores, u32 rounds)
{
    // The per-core tables always hold eight entries so the program
    // text differs across core counts only in the wrap constant.
    Rng rng(mixSeed(seed, kWindowSalt));
    std::vector<u32> init(8), step(8);
    for (u32 i = 0; i < 8; ++i) {
        init[i] = rng.next32();
        step[i] = rng.next32() | 1;
    }

    std::ostringstream src;
    src << flexcore::runtimePrologue();
    src << "main:   save %sp, -96, %sp\n"
        << "        ta 3                    ; %o0 = core id\n"
        << "        sll %o0, 2, %l1         ; own slot offset\n"
        << "        add %o0, 1, %l4         ; peer = id + 1 ...\n"
        << "        cmp %l4, " << cores << "\n"
        << "        bl nowrap\n"
        << "        nop\n"
        << "        mov 0, %l4              ; ... mod cores\n"
        << "nowrap: sll %l4, 2, %l4\n"
        << "        set 0x30000000, %l2     ; coherent shared window\n"
        << "        add %l2, %l1, %l3       ; own slot\n"
        << "        add %l2, %l4, %l4       ; peer slot\n"
        << "        set init, %l5\n"
        << "        ld [%l5+%l1], %l6\n"
        << "        st %l6, [%l3]\n"
        << "        set step, %l5\n"
        << "        ld [%l5+%l1], %l7\n"
        << "        set " << rounds << ", %i1\n"
        << "        mov 0, %i4\n"
        << "loop:   ld [%l3], %o1           ; own slot\n"
        << "        ld [%l4], %o2           ; peer slot\n"
        << "        xor %i4, %o2, %i4\n"
        << "        sll %o1, 3, %o3         ; own = own * 9 + step\n"
        << "        add %o3, %o1, %o1\n"
        << "        add %o1, %l7, %o1\n"
        << "        st %o1, [%l3]\n"
        << "        subcc %i1, 1, %i1\n"
        << "        bne loop\n"
        << "        nop\n"
        << "        ld [%l3], %o0\n"
        << "        ta 2\n"
        << "        mov 10, %o0\n"
        << "        ta 1\n"
        << "        mov 0, %i0\n"
        << "        ret\n"
        << "        restore\n"
        << "        .align 4\n"
        << "init:\n"
        << flexcore::wordData(init) << "step:\n"
        << flexcore::wordData(step);

    GenProgram out;
    out.source = src.str();
    for (u32 i = 0; i < cores; ++i) {
        u32 v = init[i];
        for (u32 r = 0; r < rounds; ++r)
            v = v * 9 + step[i];
        out.expected_console +=
            std::to_string(static_cast<s32>(v)) + "\n";
    }
    return out;
}

flexcore::FaultPlan
faultPlan(u64 seed, u64 index, u64 max_commit)
{
    Rng rng(mixSeed(mixSeed(seed, kFaultSalt), index));
    for (;;) {
        flexcore::FaultSpec spec;
        spec.trigger = flexcore::FaultTrigger::kCommit;
        spec.when = 1 + rng.next64() % max_commit;
        if (rng.below(2) == 0) {
            spec.kind = flexcore::FaultKind::kRegFlip;
            spec.target = 1 + rng.below(63);
            spec.bit = rng.below(32);
        } else {
            spec.kind = flexcore::FaultKind::kMemFlip;
            spec.target = 0x1000 + rng.below(0x800);
            spec.bit = rng.below(8);
        }
        flexcore::FaultPlan plan;
        plan.specs.push_back(spec);
        if (flexcore::validateFaultPlan(plan).empty())
            return plan;
    }
}

}  // namespace fb
