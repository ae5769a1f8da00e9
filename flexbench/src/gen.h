/**
 * @file
 * Seeded input generators. The benchmark derives every generated input
 * from the workload seed and nothing else, so one seed always yields
 * byte-identical programs, request streams and fault plans, and the
 * expected console output of each program is computed here, in C++,
 * independently of the simulator.
 */

#ifndef FLEXBENCH_GEN_H_
#define FLEXBENCH_GEN_H_

#include <string>

#include "bench.h"
#include "faults/fault_plan.h"

namespace fb {

/** A generated assembly program and its expected console. */
struct GenProgram
{
    std::string source;
    std::string expected_console;
};

/**
 * A small hashing kernel, unique per (seed, index): a seeded word
 * table folded into a seeded initial hash. Different indices give
 * different sources, so each one misses a content-addressed program
 * cache.
 */
GenProgram coldProgram(u64 seed, u64 index);

/**
 * The multi-core shared-window program for @p cores cores. Core i
 * seeds its own slot of the coherent shared window from a per-core
 * table, then for @p rounds rounds read-modify-writes that slot and
 * reads its peer's ((i + 1) mod cores), and finally prints its own
 * slot. Only core i writes slot i, so the console (core order) is
 * computable from the seed alone, while every peer read still misses
 * after the peer's write invalidates the line.
 */
GenProgram sharedWindowProgram(u64 seed, u32 cores, u32 rounds);

/**
 * One seeded single-fault plan: a register or memory bit flip after a
 * commit index in [1, @p max_commit]. Always passes
 * validateFaultPlan().
 */
flexcore::FaultPlan faultPlan(u64 seed, u64 index, u64 max_commit);

}  // namespace fb

#endif  // FLEXBENCH_GEN_H_
