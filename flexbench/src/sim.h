/**
 * @file
 * Simulation cells and the two ways the benchmark runs them.
 *
 * A cell is one kernel under one configuration. Cells come in groups:
 * a group of suite kernels runs through the campaign layer
 * (runCampaign with one worker, exactly as flexcore-sweep --jobs 1
 * does); a group of generated programs runs through SimRequest. That
 * is the untraced path every end-to-end number comes from.
 *
 * The direct path runs the same cells by calling each layer itself —
 * assemble, build and load a System, run, render the stats tree — so
 * each call can sit inside a span. Both paths must produce the same
 * digest of simulated results.
 */

#ifndef FLEXBENCH_SIM_H_
#define FLEXBENCH_SIM_H_

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "gen.h"
#include "sim/campaign.h"

namespace fb {

/** One kernel under one configuration. */
struct Cell
{
    /** family/kernel/monitor/mode/pPERIOD/cCORES — unique in a run. */
    std::string key;
    /** grid, threaded, sampled, mc-base, mc-shared, mc-percore or
     * window. */
    std::string family;
    std::string kernel;
    flexcore::MonitorKind monitor = flexcore::MonitorKind::kNone;
    flexcore::ImplMode mode = flexcore::ImplMode::kBaseline;
    u32 period = 0;   //!< resolved fabric clock divisor (0 off-fabric)
    u32 cores = 1;
    flexcore::SystemConfig config;
    /** Generated programs only: a campaign cell runs its job's source
     * (see cellSource), so the full-scale sources are held once. */
    std::string source;
    std::string expected_console;   //!< for all cores, core order
    std::string job_key;            //!< campaign key ("" = no campaign)
};

/** Cells that run together: one campaign call, or one SimRequest each. */
struct Group
{
    bool campaign = false;
    std::vector<flexcore::CampaignJob> jobs;   //!< campaign groups only
    std::vector<Cell> cells;
};

/** Host-side counters of one finished System, summed over cores. */
struct Counters
{
    u64 core_cycles = 0;
    u64 instructions = 0;
    u64 buckets[10] = {};
    u64 icache_accesses = 0, icache_misses = 0;
    u64 dcache_accesses = 0, dcache_misses = 0;
    u64 system_cycles = 0, bus_busy = 0, bus_queue = 0;
    u64 row_hits = 0, row_misses = 0, sb_full = 0;
    u64 forwarded = 0, ffifo_stalls = 0;
    u64 meta_accesses = 0, meta_misses = 0;
    u64 tlb_hits = 0, tlb_misses = 0;
    u64 meta_stall = 0, input_block = 0;

    void add(const Counters &o);
};

/** Names of the ten core cycle buckets, in CycleBucket order. */
extern const char *const kBucketNames[10];

/** Outcome of one cell. */
struct CellResult
{
    std::string key;
    flexcore::RunResult::Exit exit = flexcore::RunResult::Exit::kExited;
    u64 cycles = 0;        //!< system cycles (estimate when sampled)
    u64 core_cycles = 0;   //!< summed over cores (estimate when sampled)
    u64 instructions = 0;
    u64 forwarded = 0;
    u64 detailed_instructions = 0;
    // Direct path only.
    double assemble_s = 0, build_s = 0, run_s = 0, stats_s = 0;
    Counters counters;
};

using Results = std::map<std::string, CellResult>;

/** Canonical cell key. */
std::string cellKey(const std::string &family, const std::string &kernel,
                    flexcore::MonitorKind monitor,
                    flexcore::ImplMode mode, u32 period, u32 cores);

/**
 * Turn expanded campaign jobs into a group whose cells belong to
 * @p baseline_family or @p monitored_family by mode.
 */
Group campaignGroup(std::vector<flexcore::CampaignJob> jobs,
                    const std::string &baseline_family,
                    const std::string &monitored_family);

/** The assembly source @p cell of @p group runs. */
const std::string &cellSource(const Group &group, const Cell &cell);

/** One generated-program cell. */
Cell programCell(const std::string &family, const std::string &name,
                 const GenProgram &program, u32 cores);

/**
 * Untraced path: one group, a campaign group through
 * runCampaign(jobs = 1). Verifies each console and returns results
 * keyed by cell key.
 */
Results runGroup(const Group &group);
/** runGroup() over every group. */
Results runGroups(const std::vector<Group> &groups);

/** Both runs of the direct path, with their summed wall times. */
struct DirectRun
{
    Results untraced, traced;
    double untraced_s = 0, traced_s = 0;
};

/**
 * Direct path: every cell twice in a row, first with span recording
 * off and then on, so host-speed drift cancels out of the tracing
 * overhead. Fills the host-time fields. Span request ids continue from
 * @p first_request.
 */
DirectRun runDirect(const std::vector<Group> &groups, u64 first_request = 0);

/** Digest of (key, exit, cycles, instructions, forwarded) rows. */
Digest resultsDigest(const Results &results);

/** Simulated instructions and core cycles summed over @p results. */
u64 totalInstructions(const Results &results);
u64 totalCoreCycles(const Results &results);

// ---- Simulated-result metrics (exact, repeatable) ----

/** Geomean of monitored / baseline grid-cell cycles at each
 * extension's operating point (its default fabric clock), over kernels. */
double monitorSlowdown(const Results &results);
/** Mean |measured - paper| over the 12 Table IV geomeans. */
double table4Err(const Results &results);
/** Worst |sampled - exact| / exact, percent (exact = threaded); the
 * worst cell's key goes to @p worst_key when non-null. */
double samplingErrPct(const Results &results,
                      std::string *worst_key = nullptr);
/** Geomean of 4-core shared-fabric DIFT / 4-core baseline cycles. */
double sharedFabricSlowdown(const Results &results);

/** The six suite kernel names, in Table IV order. */
const std::vector<std::string> &kernelNames();

}  // namespace fb

#endif  // FLEXBENCH_SIM_H_
