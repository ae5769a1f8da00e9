#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "assembler/assembler.h"
#include "common/rng.h"
#include "extensions/registry.h"
#include "gen.h"
#include "reference.h"
#include "serve.h"
#include "sim.h"
#include "sim/sim_request.h"
#include "spans.h"

namespace fb {

using namespace flexcore;

namespace {

// ---- Fixed parameters of the workloads (part of the spec hash) ----

/** Sampled timing: detailed window / sampling period, instructions. */
constexpr u64 kSampleWindow = 500;
constexpr u64 kSamplePeriod = 2000;
/** Rounds of the shared-window program. */
constexpr u32 kWindowRounds = 3000;
/** Probe requests per simulation-workload run, sent in slices. */
constexpr u64 kProbeSlice = 96;
constexpr u64 kProbeRequests = 48 * kProbeSlice;
/** serve-mix: the fixed request stream of one pass, sent in slices. */
constexpr u64 kMixFixed = 6000;
constexpr u64 kMixSlice = 100;
/** Slices of the fixed work between two side tasks (a probe slice and
 * a set-up build), so that these sample the whole run. */
constexpr size_t kSideEvery = 4;
/** serve-mix: requests per p99 block (20 samples beyond each p99). */
constexpr size_t kMixP99Block = 2000;
/** serve-mix fault runs: cycle and no-commit bounds, about twice the
 * longest test-scale kernel, so a fault that derails a loop costs what
 * an ordinary request costs instead of dominating the latency tail. */
constexpr u64 kFaultMaxCycles = 60'000;
constexpr u64 kFaultWatchdog = 5'000;
/** Timed passes over the fixed work: at least this many. */
constexpr int kMinPasses = 3;

const char *const kClasses[] = {"hit", "cold", "stats", "fault"};

// ---- Cell sets ----

SweepSpec
gridSpec(const std::vector<Workload> &suite)
{
    SweepSpec spec;
    spec.name = "table4";
    spec.workloads = suite;
    spec.monitors = ExtensionRegistry::instance().paperGrid();
    spec.modes = {ImplMode::kBaseline, ImplMode::kAsic,
                  ImplMode::kFlexFabric};
    spec.flex_periods = {2, 4};
    return spec;
}

/** Baseline plus every extension at its operating point (its default
 * fabric clock). */
SweepSpec
opPointSpec(const std::vector<Workload> &suite)
{
    SweepSpec spec;
    spec.name = "op-points";
    spec.workloads = suite;
    spec.monitors = ExtensionRegistry::instance().paperGrid();
    spec.modes = {ImplMode::kBaseline, ImplMode::kFlexFabric};
    return spec;
}

SweepSpec
threadedSpec(const std::vector<Workload> &suite)
{
    SweepSpec spec = opPointSpec(suite);
    spec.base.exec_mode = ExecMode::kThreaded;
    return spec;
}

SweepSpec
sampledSpec(const std::vector<Workload> &suite)
{
    SweepSpec spec = opPointSpec(suite);
    spec.base.sample_window = kSampleWindow;
    spec.base.sample_period = kSamplePeriod;
    return spec;
}

/** DIFT and baseline at @p cores cores on one topology. */
SweepSpec
multiSpec(const std::vector<Workload> &suite, std::vector<u32> cores,
          FabricSharing sharing, bool with_baseline)
{
    SweepSpec spec;
    spec.name = "multicore";
    spec.workloads = suite;
    spec.monitors = {MonitorKind::kDift};
    spec.modes = {ImplMode::kFlexFabric};
    if (with_baseline)
        spec.modes.insert(spec.modes.begin(), ImplMode::kBaseline);
    spec.core_counts = std::move(cores);
    spec.base.fabric_sharing = sharing;
    return spec;
}

/**
 * The served probe: the Table IV grid and the threaded and sampled
 * operating points, all at test scale. Its replies give a workload its
 * request-latency metrics and the simulated-result metrics the
 * workload has no full-scale cells for.
 */
std::vector<Group>
probeGroups(const std::vector<Workload> &test)
{
    return {
        campaignGroup(expandSweep(gridSpec(test)), "grid", "grid"),
        campaignGroup(expandSweep(threadedSpec(test)), "threaded",
                      "threaded"),
        campaignGroup(expandSweep(sampledSpec(test)), "sampled",
                      "sampled"),
    };
}

/**
 * The 4-core shared-fabric cells at test scale, run locally and
 * untimed for workloads without full-scale multi-core cells. They stay
 * out of the served probe: a handful of requests ten times heavier
 * than the rest would decide its latency tail on their own.
 */
std::vector<Group>
multicoreProbeGroups(const std::vector<Workload> &test)
{
    return {campaignGroup(expandSweep(multiSpec(test, {4},
                                                FabricSharing::kShared,
                                                true)),
                          "mc-base", "mc-shared")};
}

/** Build a set-up with @p build; its wall time goes to @p seconds. */
template <typename Build>
auto
timedBuild(const Build &build, double *seconds)
{
    const double t0 = wallNow();
    auto setup = build();
    *seconds = wallNow() - t0;
    return setup;
}

/**
 * Host times of the fixed work, slice by slice over the passes. Host
 * speed on a shared machine wanders by tens of percent over seconds,
 * so the fixed work's time is the sum over slices of each slice's
 * median over passes: a slowdown of a few seconds moves the slices it
 * overlapped in one pass, not the figure.
 */
struct SliceTimes
{
    std::vector<std::vector<double>> wall, cpu;   //!< [slice][pass]

    void add(size_t slice, double wall_s, double cpu_s)
    {
        if (slice >= wall.size()) {
            wall.resize(slice + 1);
            cpu.resize(slice + 1);
        }
        wall[slice].push_back(wall_s);
        cpu[slice].push_back(cpu_s);
    }

    static double sumOfMedians(const std::vector<std::vector<double>> &v)
    {
        double total = 0;
        for (const std::vector<double> &slice : v)
            total += median(slice);
        return total;
    }
};

/** Print the run's host-speed reference and its fixed-work times. */
void
paceReport(const HostPace &pace, int passes, const SliceTimes &raw,
           const SliceTimes &scaled)
{
    std::fprintf(stderr,
                 "flexbench: host-speed reference %.3f ms wall (median of "
                 "%d, quartiles %.3f-%.3f)\n"
                 "flexbench: %d passes of %zu slices; fixed work %.3f s "
                 "wall, %.3f s cpu; scaled to the reference %.3f s wall, "
                 "%.3f s cpu\n",
                 pace.wallQuantile(0.5) * 1e3, pace.samples(),
                 pace.wallQuantile(0.25) * 1e3,
                 pace.wallQuantile(0.75) * 1e3, passes, raw.wall.size(),
                 SliceTimes::sumOfMedians(raw.wall),
                 SliceTimes::sumOfMedians(raw.cpu),
                 SliceTimes::sumOfMedians(scaled.wall),
                 SliceTimes::sumOfMedians(scaled.cpu));
}

/** At least kMinPasses are done and another would overrun the run. */
bool
passesDone(int passes, double start, double seconds)
{
    const double elapsed = wallNow() - start;
    return passes >= kMinPasses && elapsed + elapsed / passes > seconds;
}

std::vector<ServeRequest>
probeRequests(const std::vector<Group> &groups)
{
    std::vector<ServeRequest> out;
    for (const Group &g : groups) {
        for (const Cell &cell : g.cells) {
            SimRequest req(cell.config);
            req.workloadByName(cell.kernel, WorkloadScale::kTest);
            out.push_back(makeServeRequest("probe", cell.key, req,
                                           cell.expected_console));
        }
    }
    return out;
}

/** Probe replies as cell results (cycles only) for the metric
 * formulas, after checking repeated identities agree. */
Results
probeResults(const ClientRun &run, Digest *digest)
{
    Results results;
    std::map<std::string, ServeResult> first;
    for (const ServeResult &r : run.results) {
        const auto [it, fresh] = first.emplace(r.identity, r);
        if (fresh) {
            CellResult c;
            c.key = r.identity;
            c.cycles = r.cycles;
            c.instructions = r.instructions;
            results[r.identity] = c;
            continue;
        }
        check(it->second.cycles == r.cycles &&
                  it->second.instructions == r.instructions &&
                  it->second.exit == r.exit,
              r.identity + ": repeated request gave another result");
    }
    for (const auto &kv : first)
        digestResult(digest, kv.second);
    return results;
}

void
specLine(std::string *spec, const std::string &line)
{
    *spec += line;
    *spec += '\n';
}

void
specCells(std::string *spec, const std::vector<Group> &groups)
{
    // Generated programs depend on the seed, which the spec excludes;
    // their generator is identified by the workload's parameters.
    for (const Group &g : groups) {
        for (const Cell &c : g.cells) {
            std::string line = c.key;
            if (g.campaign)
                line += " " + std::to_string(fnv1a64(cellSource(g, c)));
            specLine(spec, line);
        }
    }
}

/**
 * The slices of a simulation workload's fixed work: one cell each (one
 * runCampaign call with its one job, for campaign cells). Host speed
 * wanders within a fifth of a second, so the host-speed reference
 * after each slice must follow closely.
 */
std::vector<Group>
cellSlices(std::vector<Group> groups)
{
    std::vector<Group> slices;
    for (Group &g : groups) {
        for (Cell &c : g.cells) {
            Group slice;
            slice.campaign = g.campaign;
            for (CampaignJob &job : g.jobs) {
                if (job.key == c.job_key)
                    slice.jobs.push_back(std::move(job));
            }
            slice.cells.push_back(std::move(c));
            slices.push_back(std::move(slice));
        }
    }
    return slices;
}

// ---- Simulation workloads ----

struct SimSetup
{
    std::vector<Group> groups;    //!< the fixed work, in cell slices
    std::vector<Workload> test;   //!< the suite at test scale
    std::vector<Group> mc_probe;
    std::vector<ServeRequest> probe_requests;
};

std::unique_ptr<SimSetup>
buildSimSetup(const Options &opt, bool with_probe)
{
    auto s = std::make_unique<SimSetup>();
    std::vector<Workload> full;
    std::vector<GenProgram> window;
    const std::vector<u32> window_cores = {1, 2, 4, 8};
    {
        Span span("workloads.generate");
        full = benchmarkSuite(WorkloadScale::kFull);
        s->test = benchmarkSuite(WorkloadScale::kTest);
        if (opt.workload == "multicore") {
            for (u32 n : window_cores) {
                window.push_back(
                    sharedWindowProgram(opt.seed, n, kWindowRounds));
            }
        }
    }
    if (opt.workload == "paper-grid") {
        s->groups.push_back(campaignGroup(expandSweep(gridSpec(full)),
                                          "grid", "grid"));
    } else if (opt.workload == "fast-modes") {
        s->groups.push_back(campaignGroup(expandSweep(threadedSpec(full)),
                                          "threaded", "threaded"));
        s->groups.push_back(campaignGroup(expandSweep(sampledSpec(full)),
                                          "sampled", "sampled"));
    } else {
        s->groups.push_back(campaignGroup(
            expandSweep(multiSpec(full, {2, 4}, FabricSharing::kShared,
                                  true)),
            "mc-base", "mc-shared"));
        s->groups.push_back(campaignGroup(
            expandSweep(multiSpec(full, {2, 4}, FabricSharing::kPerCore,
                                  false)),
            "mc-percore", "mc-percore"));
        Group g;
        for (size_t i = 0; i < window_cores.size(); ++i) {
            g.cells.push_back(
                programCell("window", "window", window[i],
                            window_cores[i]));
        }
        s->groups.push_back(std::move(g));
    }
    s->groups = cellSlices(std::move(s->groups));
    if (with_probe) {
        s->mc_probe = multicoreProbeGroups(s->test);
        s->probe_requests = probeRequests(probeGroups(s->test));
    }
    return s;
}

/** Host-time and count metrics of one direct pass over @p groups. */
void
cellLayerMetrics(const std::vector<Group> &groups, const Results &rc,
                 RunContext &ctx)
{
    Sheet &L = ctx.layer;
    double build = 0, run = 0, stats = 0;
    double interp_s = 0, threaded_s = 0, sampled_s = 0;
    u64 interp_i = 0, threaded_i = 0, sampled_i = 0, sampled_detail = 0;
    Counters all, monitored;
    u64 monitored_inst = 0;
    std::map<std::string, std::pair<double, u64>> per_cores, per_topo;
    std::map<std::string, std::pair<double, u64>> per_packet;
    std::map<u32, u64> window_dmiss;
    u64 cells = 0, plain_cells = 0, monitored_cells = 0;

    for (const Group &g : groups) {
        for (const Cell &cell : g.cells) {
            const CellResult &r = rc.at(cell.key);
            ++cells;
            build += r.build_s;
            run += r.run_s;
            stats += r.stats_s;
            const bool sampled = cell.config.sample_period != 0;
            const bool threaded =
                cell.config.exec_mode == ExecMode::kThreaded;
            if (sampled) {
                sampled_s += r.run_s;
                sampled_i += r.instructions;
                sampled_detail += r.detailed_instructions;
                continue;   // counters cover detailed windows only
            }
            ++plain_cells;
            if (threaded) {
                threaded_s += r.run_s;
                threaded_i += r.instructions;
            } else if (cell.monitor == MonitorKind::kNone &&
                       cell.cores == 1 && cell.family != "window") {
                interp_s += r.run_s;
                interp_i += r.instructions;
            }
            all.add(r.counters);
            if (cell.monitor != MonitorKind::kNone) {
                monitored.add(r.counters);
                monitored_inst += r.instructions;
                ++monitored_cells;
            }
            auto &pc = per_cores["c" + std::to_string(cell.cores)];
            pc.first += r.run_s;
            pc.second += r.core_cycles;
            if (cell.family == "mc-shared" || cell.family == "mc-percore") {
                auto &pt = per_topo[cell.family == "mc-shared" ? "shared"
                                                               : "per_core"];
                pt.first += r.run_s;
                pt.second += r.core_cycles;
            }
            if (cell.family == "window")
                window_dmiss[cell.cores] = r.counters.dcache_misses;
            // Fabric cost per packet: a single-core cell at its
            // extension's operating point against the same kernel's
            // baseline cell in the same family.
            if (cell.cores == 1 && cell.mode == ImplMode::kFlexFabric &&
                cell.period == defaultFlexPeriod(cell.monitor)) {
                const CellResult &base = rc.at(
                    cellKey(cell.family, cell.kernel, MonitorKind::kNone,
                            ImplMode::kBaseline, 0, 1));
                auto &pp = per_packet[std::string(
                    monitorKindName(cell.monitor))];
                pp.first += r.run_s - base.run_s;
                pp.second += r.forwarded;
            }
        }
    }

    const auto share = [](u64 num, u64 den) {
        return den ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
    };
    const auto ns_per = [](double s, u64 n) {
        return n ? s * 1e9 / static_cast<double>(n) : 0.0;
    };
    const double n_cells = static_cast<double>(cells);
    L.set("sim.system_build_ms", build * 1e3, "ms", n_cells, "cells");
    L.set("sim.run_s", run, "s", n_cells, "cells");
    L.set("sim.stats_json_ms", stats * 1e3, "ms", n_cells, "cells");
    if (interp_i) {
        L.set("core.interp.ns_per_inst", ns_per(interp_s, interp_i), "ns",
              static_cast<double>(interp_i), "instructions");
    }
    if (threaded_i) {
        L.set("core.threaded.ns_per_inst", ns_per(threaded_s, threaded_i),
              "ns", static_cast<double>(threaded_i), "instructions");
    }
    if (sampled_i) {
        L.set("core.sampled.ns_per_inst", ns_per(sampled_s, sampled_i),
              "ns", static_cast<double>(sampled_i), "instructions");
        L.set("core.sampled.detailed_share",
              share(sampled_detail, sampled_i), "ratio",
              static_cast<double>(sampled_i), "instructions");
    }
    if (plain_cells) {
        const double cc = static_cast<double>(all.core_cycles);
        L.set("core.cycles", cc, "count");
        L.set("core.instructions", static_cast<double>(all.instructions),
              "count");
        L.set("core.ipc", share(all.instructions, all.core_cycles),
              "ratio", cc, "core cycles");
        for (int b = 0; b < 10; ++b) {
            L.set(std::string("core.bucket.") + kBucketNames[b],
                  share(all.buckets[b], all.core_cycles), "ratio", cc,
                  "core cycles");
        }
        L.set("memory.icache_miss_rate",
              share(all.icache_misses, all.icache_accesses), "ratio",
              static_cast<double>(all.icache_accesses), "accesses");
        L.set("memory.dcache_miss_rate",
              share(all.dcache_misses, all.dcache_accesses), "ratio",
              static_cast<double>(all.dcache_accesses), "accesses");
        L.set("memory.bus_busy_share", share(all.bus_busy,
                                             all.system_cycles),
              "ratio", static_cast<double>(all.system_cycles),
              "system cycles");
        L.set("memory.bus_queue_cycles", static_cast<double>(all.bus_queue),
              "count");
        L.set("memory.sdram_row_hit_rate",
              share(all.row_hits, all.row_hits + all.row_misses), "ratio",
              static_cast<double>(all.row_hits + all.row_misses),
              "SDRAM transactions");
        L.set("memory.sb_full_stalls", static_cast<double>(all.sb_full),
              "count");
    }
    if (window_dmiss.count(1) && window_dmiss.count(8)) {
        L.set("memory.shared_window_dmiss",
              static_cast<double>(window_dmiss[8]) -
                  8.0 * static_cast<double>(window_dmiss[1]),
              "count", static_cast<double>(window_dmiss[1]),
              "1-core D-cache misses");
    }
    if (monitored_cells) {
        const Counters &m = monitored;
        L.set("flexcore.fwd_fraction", share(m.forwarded, monitored_inst),
              "ratio", static_cast<double>(monitored_inst),
              "instructions");
        L.set("flexcore.ffifo_full_stalls",
              static_cast<double>(m.ffifo_stalls), "count");
        L.set("flexcore.meta_miss_rate",
              share(m.meta_misses, m.meta_accesses), "ratio",
              static_cast<double>(m.meta_accesses), "meta accesses");
        L.set("flexcore.tlb_miss_rate",
              share(m.tlb_misses, m.tlb_hits + m.tlb_misses), "ratio",
              static_cast<double>(m.tlb_hits + m.tlb_misses),
              "TLB lookups");
        L.set("flexcore.meta_stall_cycles",
              static_cast<double>(m.meta_stall), "count");
        L.set("flexcore.input_block_cycles",
              static_cast<double>(m.input_block), "count");
    }
    for (const auto &[mon, pp] : per_packet) {
        L.set("flexcore.ns_per_packet." + mon, ns_per(pp.first, pp.second),
              "ns", static_cast<double>(pp.second), "packets");
    }
    for (const auto &[name, v] : per_cores) {
        L.set("sim.multi.ns_per_core_cycle." + name,
              ns_per(v.first, v.second), "ns",
              static_cast<double>(v.second), "core cycles");
    }
    for (const auto &[name, v] : per_topo) {
        L.set("sim.multi.ns_per_core_cycle." + name,
              ns_per(v.first, v.second), "ns",
              static_cast<double>(v.second), "core cycles");
    }
}

/** Setup and assembly totals from the recorded spans. */
void
setupLayerMetrics(RunContext &ctx)
{
    const auto totals = spanTotals(recordedSpans());
    const auto get = [&](const char *name) {
        const auto it = totals.find(name);
        return it == totals.end() ? SpanTotals{} : it->second;
    };
    const SpanTotals gen = get("workloads.generate");
    const SpanTotals as = get("assembler.assemble");
    ctx.layer.set("workloads.generate_ms", gen.total_s * 1e3, "ms",
                  static_cast<double>(gen.count), "calls");
    ctx.layer.set("assembler.assemble_ms", as.total_s * 1e3, "ms",
                  static_cast<double>(as.count), "programs");
    ctx.layer.set("assembler.programs", static_cast<double>(as.count),
                  "count");
}

/**
 * The four simulated-result metrics: from the workload's own
 * full-scale cells where it has them (@p own), else from the served
 * probe (@p probe) or the local 4-core probe cells (@p mc_probe).
 */
void
simResultMetrics(RunContext &ctx, const Results &own, const Results &probe,
                 const Results &mc_probe)
{
    const std::string &w = ctx.opt.workload;
    const Results &grid = w == "paper-grid" ? own : probe;
    ctx.e2e.set("monitor_slowdown", monitorSlowdown(grid),
                "ratio");
    ctx.e2e.set("table4_err", table4Err(grid), "ratio");
    std::string worst;
    ctx.e2e.set("sampling_err_pct",
                samplingErrPct(w == "fast-modes" ? own : probe, &worst),
                "%");
    std::fprintf(stderr, "flexbench: worst sampled cell: %s\n",
                 worst.c_str());
    ctx.e2e.set("shared_fabric_slowdown",
                sharedFabricSlowdown(w == "multicore" ? own : mc_probe),
                "ratio");
}

/** Run the local 4-core probe cells unless the workload has its own. */
Results
runMulticoreProbe(RunContext &ctx, const std::vector<Group> &groups)
{
    if (ctx.opt.workload == "multicore")
        return {};
    Results r = runGroups(groups);
    ctx.attempted += r.size();
    ctx.probe_digest.add(resultsDigest(r).hex());
    return r;
}

/**
 * Request rate, p50 and p99 from round-trip times in send order and
 * the client wall time they took, both scaled to the host-speed
 * reference. With @p p99_block > 0 the p99 is the
 * median of the p99s of consecutive blocks of that many requests (each
 * with at least ten samples beyond it), so a host stall of a few
 * seconds moves one block, not the figure.
 */
void
requestMetrics(RunContext &ctx, const std::vector<double> &rtt_ms,
               double wall_s, size_t p99_block)
{
    ctx.attempted += rtt_ms.size();
    ctx.e2e.set("req_per_s", static_cast<double>(rtt_ms.size()) / wall_s,
                "1/s");
    ctx.e2e.set("req_p50_ms", median(rtt_ms), "ms");
    if (p99_block == 0) {
        ctx.e2e.set("req_p99_ms",
                    tailPercentile(rtt_ms, 99, "req_p99_ms"), "ms");
        return;
    }
    std::vector<double> block_p99;
    for (size_t i = 0; i + p99_block <= rtt_ms.size(); i += p99_block) {
        const std::vector<double> block(rtt_ms.begin() + i,
                                        rtt_ms.begin() + i + p99_block);
        block_p99.push_back(tailPercentile(block, 99, "req_p99_ms"));
    }
    check(!block_p99.empty(), "fewer requests than one p99 block");
    ctx.e2e.set("req_p99_ms", median(block_p99), "ms");
}

/** Round-trip times of @p run in send order, milliseconds, times
 * @p scale. */
void
appendRtts(const ClientRun &run, double scale, std::vector<double> *rtt_ms)
{
    for (const ServeResult &r : run.results)
        rtt_ms->push_back(r.rtt_s * 1e3 * scale);
}

void
runSimE2E(RunContext &ctx)
{
    const Options &opt = ctx.opt;
    const auto build = [&] { return buildSimSetup(opt, true); };
    HostPace pace;
    std::vector<double> setup_s(1);
    const std::unique_ptr<SimSetup> setup = timedBuild(build, &setup_s[0]);
    pace.sample();
    setup_s[0] *= pace.wallScale();
    ctx.seeded = opt.workload == "multicore";
    specCells(&ctx.spec, setup->groups);
    const std::vector<Group> &slices = setup->groups;

    ServeHarness probe_server;
    for (const Workload &w : setup->test)
        probe_server.preassemble(w.source);
    const std::vector<ServeRequest> &probe = setup->probe_requests;
    ClientRun probe_all;   // replies, for the result metrics
    std::vector<double> probe_rtt_ms;
    double probe_wall = 0;
    const auto probeSlice = [&] {
        const u64 sent = probe_all.results.size();
        if (sent >= kProbeRequests)
            return ClientRun{};
        return runClient(
            probe_server, [&](u64 i) { return probe[i % probe.size()]; },
            sent, kProbeSlice);
    };
    // Scale a probe slice by the reference samples around it.
    const auto addProbe = [&](ClientRun run) {
        appendRtts(run, pace.wallScale(), &probe_rtt_ms);
        probe_wall += run.wall_s * pace.wallScale();
        for (ServeResult &r : run.results)
            probe_all.results.push_back(std::move(r));
    };

    // Passes over the fixed work, slice by slice: at least kMinPasses,
    // then as many as fit in the run. After each slice comes one
    // host-speed reference, and after every kSideEvery slices one
    // probe slice and one set-up build, each followed by a reference,
    // so that they sample the whole run. Everything timed is scaled by
    // the two references around it. While a slice runs, no other
    // thread is busy (the probe server waits for its next
    // connection), so the process CPU time is that of the simulating
    // threads: runCampaign's one worker, and the calling thread for
    // the generated-program cells.
    SliceTimes raw, times;
    Results first;
    std::string first_digest;
    int passes = 0;
    const double start = wallNow();
    for (; !passesDone(passes, start, opt.seconds); ++passes) {
        Results pass;
        for (size_t i = 0; i < slices.size(); ++i) {
            const double w0 = wallNow();
            const double c0 = processCpuNow();
            Results r = runGroup(slices[i]);
            const double wall = wallNow() - w0;
            const double cpu = processCpuNow() - c0;
            pace.sample();
            pass.merge(r);
            raw.add(i, wall, cpu);
            times.add(i, wall * pace.wallScale(), cpu * pace.cpuScale());
            if (i % kSideEvery != kSideEvery - 1)
                continue;
            ClientRun probe_run = probeSlice();
            if (!probe_run.results.empty()) {
                pace.sample();
                addProbe(std::move(probe_run));
            }
            double build_s = 0;
            timedBuild(build, &build_s);
            pace.sample();
            setup_s.push_back(build_s * pace.wallScale());
        }
        ctx.attempted += pass.size();
        const std::string d = resultsDigest(pass).hex();
        if (passes == 0) {
            first = std::move(pass);
            first_digest = d;
        } else {
            check(d == first_digest, "pass " + std::to_string(passes) +
                                         " simulated other results");
        }
    }
    while (probe_all.results.size() < kProbeRequests) {
        ClientRun probe_run = probeSlice();
        pace.sample();
        addProbe(std::move(probe_run));
    }

    const double wall = SliceTimes::sumOfMedians(times.wall);
    const double cpu = SliceTimes::sumOfMedians(times.cpu);
    paceReport(pace, passes, raw, times);
    const Results probe_results = probeResults(probe_all, &ctx.probe_digest);
    const Results mc_probe = runMulticoreProbe(ctx, setup->mc_probe);
    ctx.digest.add(first_digest);
    ctx.has_probe = true;
    ctx.e2e.set("setup_s", median(setup_s), "s");
    ctx.e2e.set("wall_s", wall, "s");
    ctx.e2e.set("sim_inst_per_s",
                static_cast<double>(totalInstructions(first)) / cpu, "1/s");
    ctx.e2e.set("core_cycles_per_s",
                static_cast<double>(totalCoreCycles(first)) / cpu, "1/s");
    simResultMetrics(ctx, first, probe_results, mc_probe);
    requestMetrics(ctx, probe_rtt_ms, probe_wall, 0);
    ctx.e2e.set("peak_rss_mb", peakRssMiB(), "MiB");
}

void
runSimTraced(RunContext &ctx)
{
    const Options &opt = ctx.opt;
    setTracing(true);
    std::unique_ptr<SimSetup> setup = buildSimSetup(opt, false);
    ctx.seeded = opt.workload == "multicore";
    specCells(&ctx.spec, setup->groups);
    setTracing(false);

    // Slice by slice (one cell each): the direct path untraced and
    // traced, then the untraced campaign path as the timed runs use it,
    // back to back so host-speed drift cancels out of the campaign and
    // tracing overheads. The direct path goes first: its two runs then
    // both reuse memory the calling thread freed, as the campaign's
    // fresh worker thread never does.
    Results ra;
    DirectRun direct;
    double campaign_s = 0;
    u64 request = 0;
    for (const Group &slice : setup->groups) {
        DirectRun d = runDirect({slice}, request);
        request += slice.cells.size();
        direct.untraced.merge(d.untraced);
        direct.traced.merge(d.traced);
        direct.untraced_s += d.untraced_s;
        direct.traced_s += d.traced_s;
        const double t0 = wallNow();
        ra.merge(runGroup(slice));
        campaign_s += wallNow() - t0;
    }
    const Results &rb = direct.untraced;
    const Results &rc = direct.traced;

    const std::string d = resultsDigest(ra).hex();
    check(resultsDigest(rb).hex() == d && resultsDigest(rc).hex() == d,
          "direct path simulated other results than the campaign path");
    ctx.attempted += ra.size() + rb.size() + rc.size();

    // The campaign layer's own cost: its wall time minus the time the
    // same calls take when made directly (assemble, build, run).
    double per_job = 0;
    for (const auto &kv : rb)
        per_job += kv.second.assemble_s + kv.second.build_s +
                   kv.second.run_s;
    ctx.layer.set("sim.campaign_overhead_s", campaign_s - per_job, "s",
                  static_cast<double>(ra.size()), "jobs");
    ctx.layer.set("trace.overhead_share",
                  direct.traced_s / direct.untraced_s, "ratio",
                  direct.untraced_s, "untraced seconds");
    cellLayerMetrics(setup->groups, rc, ctx);
    ctx.absent["flexcore.freeze_runs"] =
        "needs per-cycle histogram sampling, which the traced run leaves "
        "off so its host times stay comparable with the timed runs";
    setupLayerMetrics(ctx);
    ctx.digest.add(d);
}

// ---- serve-mix ----

struct MixSetup
{
    std::vector<Workload> kernels;
    /** Reference results of every hit identity, from verified local
     * runs. */
    std::map<std::string, ServeResult> reference;
    std::map<std::string, u64> kernel_instructions;
    std::unique_ptr<ServeHarness> harness;
    std::vector<ServeRequest> probe_requests;
    std::vector<Group> mc_probe;
};

SystemConfig
mixConfig(bool dift)
{
    SystemConfig config;
    if (dift) {
        config.monitor = MonitorKind::kDift;
        config.mode = ImplMode::kFlexFabric;
    }
    return config;
}

std::string
hitIdentity(const std::string &kernel, bool dift)
{
    return "hit/" + kernel + (dift ? "/dift" : "/none");
}

std::unique_ptr<ServeHarness>
mixHarness(const MixSetup &s)
{
    auto h = std::make_unique<ServeHarness>();
    for (const Workload &w : s.kernels)
        h->preassemble(w.source);
    return h;
}

std::unique_ptr<MixSetup>
buildMixSetup(bool with_harness)
{
    auto s = std::make_unique<MixSetup>();
    {
        Span span("workloads.generate");
        s->kernels = benchmarkSuite(WorkloadScale::kTest);
    }
    for (const Workload &w : s->kernels) {
        for (bool dift : {false, true}) {
            const SimOutcome out = SimRequest(mixConfig(dift))
                                       .workloadByName(w.name)
                                       .run();
            ServeResult r;
            r.identity = hitIdentity(w.name, dift);
            r.exit = static_cast<u64>(out.result.exit);
            r.cycles = out.result.cycles;
            r.instructions = out.result.instructions;
            s->reference[r.identity] = r;
            if (!dift)
                s->kernel_instructions[w.name] = out.result.instructions;
        }
    }
    if (with_harness)
        s->harness = mixHarness(*s);
    s->probe_requests = probeRequests(probeGroups(s->kernels));
    s->mc_probe = multicoreProbeGroups(s->kernels);
    return s;
}

/** Request @p index of the seeded stream. */
ServeRequest
mixRequest(const Options &opt, const MixSetup &s, u64 index)
{
    Rng rng(mixSeed(mixSeed(opt.seed, 0x5e7e), index));
    const u32 draw = rng.below(100);
    const Workload &k = s.kernels[rng.below(s.kernels.size())];
    const bool dift = rng.below(2) == 1;
    SystemConfig config = mixConfig(dift);
    if (draw < 60 || (draw >= 75 && draw < 90)) {
        const bool stats = draw >= 75;
        SimRequest req(config);
        req.workloadByName(k.name);
        if (stats)
            req.statsJson().profileJson(5);
        return makeServeRequest(stats ? "stats" : "hit",
                                hitIdentity(k.name, dift), req,
                                k.expected_console);
    }
    const std::string id = std::to_string(index);
    if (draw < 75) {
        const GenProgram p = coldProgram(opt.seed, index);
        SimRequest req(config);
        req.source(p.source);
        return makeServeRequest("cold", "cold/" + id, req,
                                p.expected_console);
    }
    config.faults =
        faultPlan(opt.seed, index, s.kernel_instructions.at(k.name) * 9 / 10);
    config.max_cycles = kFaultMaxCycles;
    config.watchdog_commits = kFaultWatchdog;
    SimRequest req(config);
    req.workloadByName(k.name);
    return makeServeRequest("fault", "fault/" + id, req, "");
}

/** Check hit/stats replies against the reference and digest the first
 * kMixFixed results. */
void
checkMix(const MixSetup &s, const ClientRun &run, Digest *digest)
{
    for (const auto &kv : s.reference)
        digestResult(digest, kv.second);
    check(run.results.size() >= kMixFixed,
          "the client finished fewer than its fixed requests");
    for (size_t i = 0; i < run.results.size(); ++i) {
        const ServeResult &r = run.results[i];
        const auto ref = s.reference.find(r.identity);
        if (ref != s.reference.end()) {
            check(ref->second.cycles == r.cycles &&
                      ref->second.instructions == r.instructions &&
                      ref->second.exit == r.exit,
                  r.identity + ": served result differs from the local run");
        }
        if (i < kMixFixed)
            digestResult(digest, r);
    }
}

void
mixSpec(RunContext &ctx, const MixSetup &s)
{
    specLine(&ctx.spec, "fixed " + std::to_string(kMixFixed) + " slice " +
                            std::to_string(kMixSlice) + " p99-block " +
                            std::to_string(kMixP99Block));
    specLine(&ctx.spec, "mix hit 60 cold 15 stats 15 fault 10");
    for (const Workload &w : s.kernels)
        specLine(&ctx.spec, w.name + " " +
                                     std::to_string(fnv1a64(w.source)));
    for (const ServeRequest &r : s.probe_requests)
        specLine(&ctx.spec, r.identity);
}

void
runMixE2E(RunContext &ctx)
{
    const Options &opt = ctx.opt;
    const auto build = [&] { return buildMixSetup(true); };
    HostPace pace;
    std::vector<double> setup_s(1);
    const std::unique_ptr<MixSetup> setup = timedBuild(build, &setup_s[0]);
    pace.sample();
    setup_s[0] *= pace.wallScale();
    mixSpec(ctx, *setup);
    const MixSetup &s = *setup;
    const auto make = [&](u64 i) { return mixRequest(opt, s, i); };

    // Passes over the fixed stream: at least kMinPasses, then as many as
    // fit in the run. Each pass after the first gets a freshly
    // set-up server, so every pass sees the same cache states (every
    // cold request misses). A pass goes in slices with one host-speed
    // reference after each, and one set-up build (and its reference)
    // after every kSideEvery, so the set-up times sample the whole run.
    // Each slice and build is scaled by the two references around it.
    SliceTimes raw, times;
    std::vector<double> rtt_ms;
    double stream_wall = 0;
    u64 inst = 0, cycles = 0;
    int passes = 0;
    const double start = wallNow();
    for (; !passesDone(passes, start, opt.seconds); ++passes) {
        std::unique_ptr<ServeHarness> fresh;
        if (passes > 0)
            fresh = mixHarness(s);
        ServeHarness &server = passes > 0 ? *fresh : *s.harness;
        ClientRun pass;
        for (u64 slice = 0; slice * kMixSlice < kMixFixed; ++slice) {
            ClientRun run =
                runClient(server, make, slice * kMixSlice, kMixSlice);
            pace.sample();
            const double ws = pace.wallScale();
            raw.add(slice, run.wall_s, run.sim_cpu_s);
            times.add(slice, run.wall_s * ws,
                      run.sim_cpu_s * pace.cpuScale());
            stream_wall += run.wall_s * ws;
            appendRtts(run, ws, &rtt_ms);
            for (ServeResult &r : run.results)
                pass.results.push_back(std::move(r));
            if (slice % kSideEvery != kSideEvery - 1)
                continue;
            double build_s = 0;
            timedBuild(build, &build_s);
            pace.sample();
            setup_s.push_back(build_s * pace.wallScale());
        }
        Digest d;
        checkMix(s, pass, &d);
        if (passes == 0) {
            ctx.digest = d;
            for (const ServeResult &r : pass.results) {
                inst += r.instructions;
                cycles += r.cycles;
            }
        } else {
            check(d.hex() == ctx.digest.hex(),
                  "pass " + std::to_string(passes) +
                      " simulated other results");
        }
    }

    // The probe runs after the timed stream and is not timed.
    const std::vector<ServeRequest> &probe = s.probe_requests;
    const ClientRun probe_run = runClient(
        *s.harness, [&](u64 i) { return probe[i]; }, 0, probe.size());
    const Results probe_results =
        probeResults(probe_run, &ctx.probe_digest);
    const Results mc_probe = runMulticoreProbe(ctx, s.mc_probe);
    ctx.has_probe = true;
    ctx.attempted += probe.size();

    const double wall = SliceTimes::sumOfMedians(times.wall);
    const double cpu = SliceTimes::sumOfMedians(times.cpu);
    paceReport(pace, passes, raw, times);
    ctx.e2e.set("setup_s", median(setup_s), "s");
    ctx.e2e.set("wall_s", wall, "s");
    ctx.e2e.set("sim_inst_per_s", static_cast<double>(inst) / cpu, "1/s");
    ctx.e2e.set("core_cycles_per_s", static_cast<double>(cycles) / cpu,
                "1/s");
    simResultMetrics(ctx, {}, probe_results, mc_probe);
    requestMetrics(ctx, rtt_ms, stream_wall, kMixP99Block);
    ctx.e2e.set("peak_rss_mb", peakRssMiB(), "MiB");
}

/** p50 of per-request microseconds, by class. */
std::map<std::string, double>
classMedians(const std::vector<std::pair<std::string, double>> &samples)
{
    std::map<std::string, std::vector<double>> by;
    for (const auto &[cls, us] : samples)
        by[cls].push_back(us);
    std::map<std::string, double> out;
    for (auto &[cls, v] : by)
        out[cls] = median(v);
    return out;
}

void
runMixTraced(RunContext &ctx)
{
    const Options &opt = ctx.opt;
    setTracing(true);
    std::unique_ptr<MixSetup> setup = buildMixSetup(false);
    const MixSetup &s = *setup;
    mixSpec(ctx, s);
    setTracing(false);
    const auto make = [&](u64 i) { return mixRequest(opt, s, i); };

    // The fixed work of every timed run, four times, each on a freshly
    // warmed server so all see the same cache states: untraced, traced,
    // traced, untraced, so host-speed drift cancels out of the tracing
    // overhead.
    std::string digest;
    Digest fixed_work;
    double untraced_s = 0, traced_s = 0;
    std::vector<ClientRun> traced;
    u64 hits = 0, misses = 0, entries = 0, errors = 0, shed = 0;
    for (bool trace : {false, true, true, false}) {
        auto h = mixHarness(s);
        setTracing(trace);
        ClientRun run = runClient(*h, make, 0, kMixFixed);
        setTracing(false);
        std::fprintf(stderr, "flexbench: %s block: %.3f s wall\n",
                     trace ? "traced" : "untraced", run.wall_s);
        Digest d;
        checkMix(s, run, &d);
        check(digest.empty() || d.hex() == digest,
              "traced and untraced runs simulated other results");
        digest = d.hex();
        fixed_work = d;
        if (!trace) {
            untraced_s += run.wall_s;
            continue;
        }
        traced_s += run.wall_s;
        hits += h->cache().hits();
        misses += h->cache().misses();
        entries = h->cache().size();
        errors += h->server().errors();
        shed += h->server().shed();
        traced.push_back(std::move(run));
    }
    ctx.digest = fixed_work;
    setTracing(true);

    // Socket-free replays of the same requests: through the protocol
    // handler (pool handoff included), then straight into the executor.
    std::vector<ServeRequest> reqs;
    for (u64 i = 0; i < kMixFixed; ++i)
        reqs.push_back(make(i));
    std::vector<std::pair<std::string, double>> rtt, handle, exec;
    std::vector<double> from_json, response_json, fault_extra;
    for (const ClientRun &run : traced) {
        for (const ServeResult &r : run.results)
            rtt.emplace_back(r.cls, r.rtt_s * 1e6);
    }
    {
        auto h = mixHarness(s);
        u64 id = 0;
        for (const ServeRequest &req : reqs) {
            Span span("serve.handle", ++id);
            const serve::Server::Reply reply =
                h->server().handlePayload(req.envelope);
            handle.emplace_back(req.cls, span.end() * 1e6);
            verifyReply(req, reply.frame);
        }
    }
    ProgramCache cache;
    for (const Workload &w : s.kernels) {
        cache.insert(fnv1a64(w.source), std::make_shared<const Program>(
                                            Assembler::assembleOrDie(
                                                w.source)));
    }
    const auto execOnce = [&](const std::string &json, std::string *out) {
        SimRequest req;
        ConfigError error;
        {
            Span span("sim.from_json");
            check(SimRequest::fromJson(json, &req, &error),
                  "request does not parse: " + error.message);
            from_json.push_back(span.end() * 1e6);
        }
        SimResponse resp;
        double us;
        {
            Span span("sim.serve_exec");
            resp = serveSimRequest(std::move(req), &cache, nullptr);
            us = span.end() * 1e6;
        }
        Span span("sim.response_json");
        *out = simResponseJson(resp);
        response_json.push_back(span.end() * 1e6);
        return us;
    };
    u64 id = 1u << 20;
    for (const ServeRequest &req : reqs) {
        Span root("sim.exec_replay", ++id);
        std::string reply;
        const double us = execOnce(req.request_json, &reply);
        exec.emplace_back(req.cls, us);
        verifyReply(req, reply);
        if (req.fault) {
            // The same kernel and monitor without the plan.
            SimRequest plain;
            ConfigError error;
            check(SimRequest::fromJson(req.request_json, &plain, &error),
                  "request does not parse: " + error.message);
            SystemConfig config = mixConfig(plain.config().monitor ==
                                            MonitorKind::kDift);
            SimRequest hit(config);
            hit.workloadByName(plain.workloadName());
            fault_extra.push_back(us - execOnce(hit.toJson(), &reply));
        }
    }
    setTracing(false);
    ctx.attempted += 6 * reqs.size();

    const auto rtt_p50 = classMedians(rtt);
    const auto handle_p50 = classMedians(handle);
    const auto exec_p50 = classMedians(exec);
    for (const char *cls : kClasses) {
        const std::string c = cls;
        check(rtt_p50.count(c) && handle_p50.count(c) && exec_p50.count(c),
              "no " + c + " request in the fixed work");
        ctx.layer.set("serve.rtt_us." + c, rtt_p50.at(c), "us");
        ctx.layer.set("serve.handle_us." + c, handle_p50.at(c), "us");
        ctx.layer.set("serve.exec_us." + c, exec_p50.at(c), "us");
        ctx.layer.set("serve.pool_handoff_us." + c,
                      handle_p50.at(c) - exec_p50.at(c), "us");
        ctx.layer.set("common.transport_us." + c,
                      rtt_p50.at(c) - handle_p50.at(c), "us");
    }
    ctx.layer.set("sim.from_json_us", median(from_json), "us",
                  static_cast<double>(from_json.size()), "requests");
    ctx.layer.set("sim.response_json_us", median(response_json), "us",
                  static_cast<double>(response_json.size()), "requests");
    ctx.layer.set("faults.overhead_us", median(fault_extra), "us",
                  static_cast<double>(fault_extra.size()), "fault runs");
    ctx.layer.set("serve.cache_hit_rate",
                  hits + misses ? static_cast<double>(hits) /
                                      static_cast<double>(hits + misses)
                                : 0.0,
                  "ratio", static_cast<double>(hits + misses), "lookups");
    ctx.layer.set("serve.cache_entries", static_cast<double>(entries),
                  "count");
    ctx.layer.set("serve.errors", static_cast<double>(errors), "count");
    ctx.layer.set("serve.shed", static_cast<double>(shed), "count");
    ctx.layer.set("trace.overhead_share", traced_s / untraced_s, "ratio",
                  untraced_s, "untraced seconds");
    setupLayerMetrics(ctx);
}

}  // namespace

const std::vector<MetricName> &
endToEndMetrics()
{
    static const std::vector<MetricName> list = {
        {"setup_s", "s"},
        {"wall_s", "s"},
        {"sim_inst_per_s", "1/s"},
        {"core_cycles_per_s", "1/s"},
        {"peak_rss_mb", "MiB"},
        {"monitor_slowdown", "ratio"},
        {"table4_err", "ratio"},
        {"sampling_err_pct", "%"},
        {"shared_fabric_slowdown", "ratio"},
        {"req_per_s", "1/s"},
        {"req_p50_ms", "ms"},
        {"req_p99_ms", "ms"},
    };
    return list;
}

const std::vector<MetricName> &
perLayerMetrics()
{
    static const std::vector<MetricName> list = [] {
        std::vector<MetricName> l = {
            {"workloads.generate_ms", "ms"},
            {"assembler.assemble_ms", "ms"},
            {"assembler.programs", "count"},
            {"sim.system_build_ms", "ms"},
            {"sim.run_s", "s"},
            {"sim.stats_json_ms", "ms"},
            {"sim.campaign_overhead_s", "s"},
            {"core.interp.ns_per_inst", "ns"},
            {"core.threaded.ns_per_inst", "ns"},
            {"core.sampled.ns_per_inst", "ns"},
            {"core.sampled.detailed_share", "ratio"},
            {"core.cycles", "count"},
            {"core.instructions", "count"},
            {"core.ipc", "ratio"},
        };
        for (const char *b : kBucketNames)
            l.push_back({std::string("core.bucket.") + b, "ratio"});
        const std::vector<MetricName> rest = {
            {"memory.icache_miss_rate", "ratio"},
            {"memory.dcache_miss_rate", "ratio"},
            {"memory.bus_busy_share", "ratio"},
            {"memory.bus_queue_cycles", "count"},
            {"memory.sdram_row_hit_rate", "ratio"},
            {"memory.sb_full_stalls", "count"},
            {"memory.shared_window_dmiss", "count"},
            {"flexcore.ns_per_packet.umc", "ns"},
            {"flexcore.ns_per_packet.dift", "ns"},
            {"flexcore.ns_per_packet.bc", "ns"},
            {"flexcore.ns_per_packet.sec", "ns"},
            {"flexcore.fwd_fraction", "ratio"},
            {"flexcore.ffifo_full_stalls", "count"},
            {"flexcore.meta_miss_rate", "ratio"},
            {"flexcore.tlb_miss_rate", "ratio"},
            {"flexcore.meta_stall_cycles", "count"},
            {"flexcore.input_block_cycles", "count"},
            {"flexcore.freeze_runs", "count"},
            {"sim.multi.ns_per_core_cycle.c1", "ns"},
            {"sim.multi.ns_per_core_cycle.c2", "ns"},
            {"sim.multi.ns_per_core_cycle.c4", "ns"},
            {"sim.multi.ns_per_core_cycle.c8", "ns"},
            {"sim.multi.ns_per_core_cycle.shared", "ns"},
            {"sim.multi.ns_per_core_cycle.per_core", "ns"},
        };
        l.insert(l.end(), rest.begin(), rest.end());
        for (const char *prefix :
             {"serve.rtt_us.", "serve.handle_us.", "serve.exec_us.",
              "serve.pool_handoff_us.", "common.transport_us."}) {
            for (const char *cls : kClasses)
                l.push_back({std::string(prefix) + cls, "us"});
        }
        const std::vector<MetricName> tail = {
            {"sim.from_json_us", "us"},
            {"sim.response_json_us", "us"},
            {"faults.overhead_us", "us"},
            {"serve.cache_hit_rate", "ratio"},
            {"serve.cache_entries", "count"},
            {"serve.errors", "count"},
            {"serve.shed", "count"},
            {"trace.overhead_share", "ratio"},
        };
        l.insert(l.end(), tail.begin(), tail.end());
        return l;
    }();
    return list;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper-grid", "fast-modes", "multicore", "serve-mix"};
    return names;
}

void
runWorkload(RunContext &ctx)
{
    specLine(&ctx.spec, "workload " + ctx.opt.workload);
    specLine(&ctx.spec,
                  "sampling " + std::to_string(kSampleWindow) + "/" +
                      std::to_string(kSamplePeriod) + " window-rounds " +
                      std::to_string(kWindowRounds) + " probe " +
                      std::to_string(kProbeRequests) + " slice " +
                      std::to_string(kProbeSlice) + " side-every " +
                      std::to_string(kSideEvery));
    // The host-speed reference's work and scale: results scaled by
    // another reference are not comparable.
    char nominal[32];
    std::snprintf(nominal, sizeof(nominal), "%.6f", HostPace::kNominalS);
    specLine(&ctx.spec, "host reference cycles " +
                            std::to_string(runReference()) + " nominal " +
                            nominal);
    const bool serve = ctx.opt.workload == "serve-mix";
    if (ctx.opt.trace)
        serve ? runMixTraced(ctx) : runSimTraced(ctx);
    else
        serve ? runMixE2E(ctx) : runSimE2E(ctx);
}

}  // namespace fb
