#include "sim.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "assembler/assembler.h"
#include "flexcore/interface.h"
#include "paper_table4.h"
#include "sim/sim_request.h"
#include "sim/system.h"
#include "spans.h"

namespace fb {

using namespace flexcore;

const char *const kBucketNames[10] = {
    "commit", "latency", "imiss",     "dmiss",      "bus_queue",
    "sb_wait", "ffifo_full", "ack_wait", "bfifo_wait", "drain",
};

namespace {

// Stat counters behind each CycleBucket, in bucket order.
const char *const kBucketStats[10] = {
    "core.commit_cycles", "core.latency_stalls", "core.imiss_wait",
    "core.dmiss_wait",    "core.bus_queue_wait", "core.sb_wait",
    "core.ffifo_full",    "core.ack_wait",       "core.bfifo_wait",
    "core.drain_cycles",
};

std::string
corePrefix(u32 i)
{
    return i == 0 ? "" : "c" + std::to_string(i) + ".";
}

/** Stat paths giving each core's cycle count (campaign stat_paths). */
std::vector<std::string>
coreCyclePaths(u32 cores)
{
    std::vector<std::string> paths;
    for (u32 i = 0; i < cores; ++i)
        paths.push_back(corePrefix(i) + "core.cycles");
    return paths;
}

u64
sumStats(const std::vector<std::pair<std::string, u64>> &stats)
{
    u64 total = 0;
    for (const auto &kv : stats)
        total += kv.second;
    return total;
}

Counters
readCounters(System &sys)
{
    const StatGroup &st = sys.stats();
    Counters c;
    const u32 n = sys.numCores();
    for (u32 i = 0; i < n; ++i) {
        const std::string p = corePrefix(i);
        c.core_cycles += st.lookup(p + "core.cycles");
        c.instructions += st.lookup(p + "core.instructions");
        for (int b = 0; b < 10; ++b)
            c.buckets[b] += st.lookup(p + kBucketStats[b]);
        c.icache_accesses += st.lookup(p + "icache.accesses");
        c.icache_misses += st.lookup(p + "icache.misses");
        c.dcache_accesses += st.lookup(p + "dcache.accesses");
        c.dcache_misses += st.lookup(p + "dcache.misses");
        c.sb_full += st.lookup(p + "store_buffer.full_stalls");
        // Interface/fabric groups sit at the root for core 0 and the
        // shared fabric, under cI for per-core fabrics.
        c.forwarded += st.lookup(p + "interface.forwarded");
        c.ffifo_stalls += st.lookup(p + "interface.commit_stalls");
        c.meta_accesses += st.lookup(p + "fabric.meta_accesses");
        c.meta_misses += st.lookup(p + "fabric.meta_misses");
        c.tlb_hits += st.lookup(p + "fabric.tlb_hits");
        c.tlb_misses += st.lookup(p + "fabric.tlb_misses");
        c.meta_stall += st.lookup(p + "fabric.meta_stall_cycles");
        c.input_block += st.lookup(p + "fabric.input_block_cycles");
    }
    c.system_cycles = sys.cycles();
    c.bus_busy = st.lookup("bus.busy_cycles");
    c.bus_queue = st.lookup("bus.queue_cycles");
    c.row_hits = st.lookup("bus.sdram.row_hits");
    c.row_misses = st.lookup("bus.sdram.row_misses");
    return c;
}

void
checkConsole(const Cell &cell, const RunResult &result)
{
    check(result.exit == RunResult::Exit::kExited,
          cell.key + " did not exit cleanly: " +
              std::string(exitName(result.exit)));
    check(result.console == cell.expected_console,
          cell.key + " console differs from the golden output");
}

const CellResult &
need(const Results &results, const std::string &key)
{
    const auto it = results.find(key);
    check(it != results.end(), "missing cell " + key);
    return it->second;
}

double
ratio(const Results &results, const std::string &num,
      const std::string &den)
{
    return static_cast<double>(need(results, num).cycles) /
           static_cast<double>(need(results, den).cycles);
}

}  // namespace

void
Counters::add(const Counters &o)
{
    core_cycles += o.core_cycles;
    instructions += o.instructions;
    for (int b = 0; b < 10; ++b)
        buckets[b] += o.buckets[b];
    icache_accesses += o.icache_accesses;
    icache_misses += o.icache_misses;
    dcache_accesses += o.dcache_accesses;
    dcache_misses += o.dcache_misses;
    system_cycles += o.system_cycles;
    bus_busy += o.bus_busy;
    bus_queue += o.bus_queue;
    row_hits += o.row_hits;
    row_misses += o.row_misses;
    sb_full += o.sb_full;
    forwarded += o.forwarded;
    ffifo_stalls += o.ffifo_stalls;
    meta_accesses += o.meta_accesses;
    meta_misses += o.meta_misses;
    tlb_hits += o.tlb_hits;
    tlb_misses += o.tlb_misses;
    meta_stall += o.meta_stall;
    input_block += o.input_block;
}

std::string
cellKey(const std::string &family, const std::string &kernel,
        MonitorKind monitor, ImplMode mode, u32 period, u32 cores)
{
    return family + "/" + kernel + "/" +
           std::string(monitorKindName(monitor)) + "/" +
           std::string(implModeName(mode)) + "/p" +
           std::to_string(period) + "/c" + std::to_string(cores);
}

Group
campaignGroup(std::vector<CampaignJob> jobs,
              const std::string &baseline_family,
              const std::string &monitored_family)
{
    Group group;
    group.campaign = true;
    for (const CampaignJob &job : jobs) {
        Cell cell;
        cell.family = job.config.mode == ImplMode::kBaseline
                          ? baseline_family
                          : monitored_family;
        cell.kernel = job.workload.name;
        cell.monitor = job.config.monitor;
        cell.mode = job.config.mode;
        cell.period = job.resolved_period;
        cell.cores = job.config.num_cores;
        cell.config = job.config;
        for (u32 i = 0; i < cell.cores; ++i)
            cell.expected_console += job.workload.expected_console;
        cell.job_key = job.key;
        cell.key = cellKey(cell.family, cell.kernel, cell.monitor,
                           cell.mode, cell.period, cell.cores);
        group.cells.push_back(std::move(cell));
    }
    group.jobs = std::move(jobs);
    return group;
}

const std::string &
cellSource(const Group &group, const Cell &cell)
{
    if (!group.campaign)
        return cell.source;
    for (const CampaignJob &job : group.jobs) {
        if (job.key == cell.job_key)
            return job.workload.source;
    }
    checkFailed("no campaign job for " + cell.key);
}

Cell
programCell(const std::string &family, const std::string &name,
            const GenProgram &program, u32 cores)
{
    Cell cell;
    cell.family = family;
    cell.kernel = name;
    cell.cores = cores;
    cell.config.num_cores = cores;
    cell.source = program.source;
    cell.expected_console = program.expected_console;
    cell.key = cellKey(family, name, cell.monitor, cell.mode, 0, cores);
    return cell;
}

Results
runGroup(const Group &group)
{
    Results results;
    if (group.campaign) {
        u32 max_cores = 1;
        for (const Cell &cell : group.cells)
            max_cores = std::max(max_cores, cell.cores);
        CampaignOptions opts;
        opts.jobs = 1;
        opts.verify = true;
        opts.stat_paths = coreCyclePaths(max_cores);
        const std::vector<CampaignResult> rows =
            runCampaign(group.jobs, opts);
        std::unordered_map<std::string, const CampaignResult *> by_key;
        for (const CampaignResult &row : rows)
            by_key[row.key] = &row;
        for (const Cell &cell : group.cells) {
            const auto it = by_key.find(cell.job_key);
            check(it != by_key.end(), "campaign lost " + cell.key);
            const SimOutcome &out = it->second->outcome;
            checkConsole(cell, out.result);
            CellResult r;
            r.key = cell.key;
            r.exit = out.result.exit;
            r.cycles = out.result.cycles;
            r.instructions = out.result.instructions;
            r.forwarded = out.forwarded;
            r.detailed_instructions = out.result.detailed_instructions;
            r.core_cycles = cell.cores == 1 ? out.result.cycles
                                            : sumStats(out.stats);
            results[cell.key] = r;
        }
    } else {
        for (const Cell &cell : group.cells) {
            SimOutcome out = SimRequest(cell.config)
                                 .source(cell.source)
                                 .stats(coreCyclePaths(cell.cores))
                                 .run();
            checkConsole(cell, out.result);
            CellResult r;
            r.key = cell.key;
            r.exit = out.result.exit;
            r.cycles = out.result.cycles;
            r.instructions = out.result.instructions;
            r.forwarded = out.forwarded;
            r.core_cycles = sumStats(out.stats);
            results[cell.key] = r;
        }
    }
    return results;
}

Results
runGroups(const std::vector<Group> &groups)
{
    Results results;
    for (const Group &group : groups)
        results.merge(runGroup(group));
    return results;
}

namespace {

/** One cell through the direct path; the stats tree is rendered too,
 * since that is a layer of its own (sim.stats_json). */
CellResult
runCellDirect(const Group &group, const Cell &cell, u64 request)
{
    Span cell_span("sim.cell", request);
    CellResult r;
    r.key = cell.key;
    Program program;
    {
        Span span("assembler.assemble");
        program = Assembler::assembleOrDie(cellSource(group, cell));
        r.assemble_s = span.end();
    }
    std::unique_ptr<System> sys;
    {
        Span span("sim.system_build");
        sys = std::make_unique<System>(cell.config);
        sys->load(program);
        r.build_s = span.end();
    }
    RunResult result;
    {
        Span span("sim.run");
        result = sys->run();
        r.run_s = span.end();
    }
    checkConsole(cell, result);
    {
        Span span("sim.stats_json");
        const std::string stats_json = sys->stats().json();
        r.stats_s = span.end();
    }
    r.exit = result.exit;
    r.cycles = result.cycles;
    r.instructions = result.instructions;
    r.detailed_instructions = result.detailed_instructions;
    r.forwarded = sys->iface() ? sys->iface()->forwardedCount() : 0;
    r.counters = readCounters(*sys);
    r.core_cycles = cell.cores == 1 ? result.cycles : r.counters.core_cycles;
    return r;
}

}  // namespace

DirectRun
runDirect(const std::vector<Group> &groups, u64 first_request)
{
    DirectRun run;
    u64 request = first_request;
    for (const Group &group : groups) {
        for (const Cell &cell : group.cells) {
            ++request;
            setTracing(false);
            double t0 = wallNow();
            run.untraced[cell.key] = runCellDirect(group, cell, request);
            run.untraced_s += wallNow() - t0;
            setTracing(true);
            t0 = wallNow();
            run.traced[cell.key] = runCellDirect(group, cell, request);
            run.traced_s += wallNow() - t0;
            setTracing(false);
        }
    }
    return run;
}

Digest
resultsDigest(const Results &results)
{
    Digest d;
    for (const auto &[key, r] : results) {
        d.add(key);
        d.add(static_cast<u64>(r.exit));
        d.add(r.cycles);
        d.add(r.instructions);
        d.add(r.forwarded);
    }
    return d;
}

u64
totalInstructions(const Results &results)
{
    u64 total = 0;
    for (const auto &kv : results)
        total += kv.second.instructions;
    return total;
}

u64
totalCoreCycles(const Results &results)
{
    u64 total = 0;
    for (const auto &kv : results)
        total += kv.second.core_cycles;
    return total;
}

const std::vector<std::string> &
kernelNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const Workload &w : benchmarkSuite(WorkloadScale::kTest))
            n.push_back(w.name);
        return n;
    }();
    return names;
}

double
monitorSlowdown(const Results &results)
{
    std::vector<double> ratios;
    for (const PaperRow &row : kPaperTable4) {
        MonitorKind kind;
        check(parseMonitorKind(row.monitor, &kind),
              std::string("unknown monitor ") + row.monitor);
        const u32 period = defaultFlexPeriod(kind);
        for (const std::string &k : kernelNames()) {
            ratios.push_back(ratio(
                results,
                cellKey("grid", k, kind, ImplMode::kFlexFabric, period, 1),
                cellKey("grid", k, MonitorKind::kNone,
                        ImplMode::kBaseline, 0, 1)));
        }
    }
    return geomean(ratios);
}

double
table4Err(const Results &results)
{
    double err = 0;
    int n = 0;
    for (const PaperRow &row : kPaperTable4) {
        MonitorKind kind;
        check(parseMonitorKind(row.monitor, &kind),
              std::string("unknown monitor ") + row.monitor);
        const struct
        {
            ImplMode mode;
            u32 period;
            double paper;
        } points[] = {{ImplMode::kAsic, 1, row.x1},
                      {ImplMode::kFlexFabric, 2, row.x05},
                      {ImplMode::kFlexFabric, 4, row.x025}};
        for (const auto &pt : points) {
            std::vector<double> ratios;
            for (const std::string &k : kernelNames()) {
                ratios.push_back(ratio(
                    results,
                    cellKey("grid", k, kind, pt.mode, pt.period, 1),
                    cellKey("grid", k, MonitorKind::kNone,
                            ImplMode::kBaseline, 0, 1)));
            }
            err += std::fabs(geomean(ratios) - pt.paper);
            ++n;
        }
    }
    return err / n;
}

double
samplingErrPct(const Results &results, std::string *worst_key)
{
    double worst = 0;
    int n = 0;
    for (const auto &[key, r] : results) {
        if (key.rfind("sampled/", 0) != 0)
            continue;
        const std::string exact_key = "threaded/" + key.substr(8);
        const double exact =
            static_cast<double>(need(results, exact_key).cycles);
        const double err =
            std::fabs(static_cast<double>(r.cycles) - exact) / exact * 100.0;
        if (err > worst) {
            worst = err;
            if (worst_key)
                *worst_key = key;
        }
        ++n;
    }
    check(n > 0, "no sampled cells");
    return worst;
}

double
sharedFabricSlowdown(const Results &results)
{
    std::vector<double> ratios;
    for (const std::string &k : kernelNames()) {
        ratios.push_back(ratio(
            results,
            cellKey("mc-shared", k, MonitorKind::kDift,
                    ImplMode::kFlexFabric, defaultFlexPeriod(
                                               MonitorKind::kDift),
                    4),
            cellKey("mc-base", k, MonitorKind::kNone, ImplMode::kBaseline,
                    0, 4)));
    }
    return geomean(ratios);
}

}  // namespace fb
