/**
 * @file
 * flexbench: the FlexCore benchmark.
 *
 *   flexbench --workload NAME --seed N --seconds S --trace 0|1
 *   flexbench compare RESULT_A.json RESULT_B.json
 *
 * A run prints its provenance on one line and, as its last line, one
 * JSON object {"correct", "attempted", "failed", "metrics"}: every
 * end-to-end metric with --trace 0, every per-layer metric with
 * --trace 1. Any failed output check exits 1 without a result line.
 * Result files, span traces, digests and the traced-run report go to
 * .bench_out/ in the working directory. See flexbench/README.md.
 */

#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.h"
#include "common/json.h"
#include "common/jsonutil.h"
#include "sim/sim_response.h"
#include "spans.h"
#include "workloads.h"

#ifndef FLEXBENCH_GIT_REV
#define FLEXBENCH_GIT_REV "unknown"
#endif
#ifndef FLEXBENCH_SOURCE_HASH
#define FLEXBENCH_SOURCE_HASH "unknown"
#endif
#ifndef FLEXBENCH_BUILD_TYPE
#define FLEXBENCH_BUILD_TYPE "unknown"
#endif
#ifndef FLEXBENCH_COMPILER
#define FLEXBENCH_COMPILER "unknown"
#endif

using namespace fb;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "flexbench: %s\n"
                 "usage: flexbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n"
                 "       flexbench compare RESULT_A.json RESULT_B.json\n"
                 "workloads: paper-grid fast-modes multicore serve-mix\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = val;
            have_workload = true;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
        } else if (arg == "--trace") {
            opt.trace = std::strtol(val.c_str(), &end, 10) != 0;
        } else {
            usage("unknown option " + arg);
        }
        if (end && *end)
            usage("bad value for " + arg + ": " + val);
    }
    if (!have_workload)
        usage("--workload is required");
    bool known = false;
    for (const std::string &w : workloadNames())
        known = known || w == opt.workload;
    if (!known)
        usage("unknown workload " + opt.workload);
    if (!(opt.seconds > 0))
        usage("--seconds must be positive");
    return opt;
}

std::string
num(double v)
{
    return flexcore::jsonDouble(v);
}

std::string
provenanceJson(const RunContext &ctx)
{
    std::ostringstream o;
    o << "{\"git_rev\": \"" << FLEXBENCH_GIT_REV << "\""
      << ", \"source_hash\": \"" << FLEXBENCH_SOURCE_HASH << "\""
      << ", \"build_type\": \"" << FLEXBENCH_BUILD_TYPE << "\""
      << ", \"compiler\": \"" << flexcore::jsonEscape(FLEXBENCH_COMPILER)
      << "\""
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"workload\": \"" << ctx.opt.workload << "\""
      << ", \"seed\": " << ctx.opt.seed
      << ", \"seconds\": " << num(ctx.opt.seconds)
      << ", \"trace\": " << (ctx.opt.trace ? 1 : 0)
      << ", \"spec_hash\": \"" << hex64(flexcore::fnv1a64(ctx.spec))
      << "\"}";
    return o.str();
}

std::string
metricsJson(const Sheet &sheet)
{
    std::string out = "{";
    bool first = true;
    for (const Metric &m : sheet.all()) {
        out += first ? "" : ", ";
        first = false;
        out += "\"" + m.name + "\": {\"value\": " + num(m.value) +
               ", \"unit\": \"" + flexcore::jsonEscape(m.unit) + "\"}";
    }
    return out + "}";
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path);
    f << text;
    return static_cast<bool>(f);
}

/**
 * Cross-run gate: the first run of a workload (and seed, for seeded
 * workloads) on these simulator sources and this workload spec records
 * its digest; every later run must reproduce it.
 */
void
checkDigestFile(const RunContext &ctx, const std::string &tag,
                const Digest &digest)
{
    std::string name = std::string(kOutDir) + "/digest-" + ctx.opt.workload;
    if (ctx.seeded)
        name += "-s" + std::to_string(ctx.opt.seed);
    name += "-" + tag + "-" +
            std::string(FLEXBENCH_SOURCE_HASH).substr(0, 16) + "-" +
            hex64(flexcore::fnv1a64(ctx.spec)) + ".txt";
    std::ifstream in(name);
    std::string recorded;
    if (in >> recorded) {
        check(recorded == digest.hex(),
              tag + " digest " + digest.hex() + " differs from " +
                  recorded + " recorded by an earlier run (" + name + ")");
        return;
    }
    check(writeFile(name, digest.hex() + "\n"), "cannot write " + name);
}

/** Per-layer report: metric table, then self time by span name. */
std::string
traceReport(const RunContext &ctx, const Sheet &layer,
            const std::vector<SpanRecord> &spans)
{
    std::ostringstream o;
    char line[256];
    o << "traced run: workload " << ctx.opt.workload << ", seed "
      << ctx.opt.seed << "\n\n";
    std::snprintf(line, sizeof(line), "%-40s %16s %-6s %16s %s\n",
                  "per-layer metric", "value", "unit", "base", "base unit");
    o << line;
    for (const Metric &m : layer.all()) {
        const auto absent = ctx.absent.find(m.name);
        if (absent != ctx.absent.end()) {
            std::snprintf(line, sizeof(line), "%-40s %16s %-6s   absent: %s\n",
                          m.name.c_str(), "-", m.unit.c_str(),
                          absent->second.c_str());
        } else {
            std::snprintf(line, sizeof(line), "%-40s %16.6g %-6s %16.6g %s\n",
                          m.name.c_str(), m.value, m.unit.c_str(), m.base,
                          m.base_unit.c_str());
        }
        o << line;
    }
    o << "\n";
    std::snprintf(line, sizeof(line), "%-24s %10s %14s %14s\n", "span",
                  "count", "total ms", "self ms");
    o << line;
    for (const auto &[name, t] : spanTotals(spans)) {
        std::snprintf(line, sizeof(line), "%-24s %10llu %14.3f %14.3f\n",
                      name.c_str(), static_cast<unsigned long long>(t.count),
                      t.total_s * 1e3, t.self_s * 1e3);
        o << line;
    }
    if (const Metric *m = layer.find("trace.overhead_share"))
        o << "\ntracing overhead: traced / untraced wall time = "
          << m->value << "\n";
    return o.str();
}

/** Read a result file's provenance and metrics. */
bool
loadResult(const std::string &path, flexcore::JsonValue *doc)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string error;
    if (!in || !flexcore::parseJson(buf.str(), doc, &error)) {
        std::fprintf(stderr, "flexbench: cannot read %s %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    return true;
}

/**
 * Print B relative to A, metric by metric; refuse (exit 2) when the
 * two results do not describe the same measurement.
 */
int
compareResults(const std::string &a_path, const std::string &b_path)
{
    flexcore::JsonValue a, b;
    if (!loadResult(a_path, &a) || !loadResult(b_path, &b))
        return 2;
    const flexcore::JsonValue *pa = a.find("provenance");
    const flexcore::JsonValue *pb = b.find("provenance");
    if (!pa || !pb) {
        std::fprintf(stderr, "flexbench: result without provenance\n");
        return 2;
    }
    for (const char *key : {"workload", "spec_hash", "build_type",
                            "compiler", "nproc", "trace", "seconds"}) {
        const flexcore::JsonValue *va = pa->find(key);
        const flexcore::JsonValue *vb = pb->find(key);
        const bool same = va && vb && va->type == vb->type &&
                          va->str == vb->str && va->num == vb->num;
        if (!same) {
            std::fprintf(stderr,
                         "flexbench: refusing to compare: provenance "
                         "\"%s\" differs\n",
                         key);
            return 2;
        }
    }
    const flexcore::JsonValue *ra = a.find("result");
    const flexcore::JsonValue *rb = b.find("result");
    const flexcore::JsonValue *ma = ra ? ra->find("metrics") : nullptr;
    const flexcore::JsonValue *mb = rb ? rb->find("metrics") : nullptr;
    if (!ma || !mb || ma->object.size() != mb->object.size()) {
        std::fprintf(stderr, "flexbench: refusing to compare: the metric "
                             "sets differ\n");
        return 2;
    }
    std::printf("%-40s %16s %16s %10s\n", "metric", "A", "B", "B/A");
    for (const auto &[name, va] : ma->object) {
        const flexcore::JsonValue *vb = mb->find(name);
        const flexcore::JsonValue *xa = va.find("value");
        const flexcore::JsonValue *xb = vb ? vb->find("value") : nullptr;
        if (!xa || !xb) {
            std::fprintf(stderr, "flexbench: refusing to compare: %s is "
                                 "missing\n",
                         name.c_str());
            return 2;
        }
        std::printf("%-40s %16.6g %16.6g %10.4f\n", name.c_str(), xa->num,
                    xb->num, xa->num != 0 ? xb->num / xa->num : 0.0);
    }
    return 0;
}

/**
 * Keep the whole run, and every thread it starts, on one host CPU: the
 * highest-numbered CPU the process may use, so every run lands on the
 * same one. The simulation workloads are single-threaded anyway; for
 * the served requests it turns each handoff between client,
 * connection thread and pool worker into a context switch on one CPU
 * instead of a wakeup of an idle virtual CPU, whose cost on a shared
 * VM is large and drifts from minute to minute.
 */
void
pinToOneCpu()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (CPU_ISSET(cpu, &set)) {
            CPU_ZERO(&set);
            CPU_SET(cpu, &set);
            sched_setaffinity(0, sizeof(set), &set);
            return;
        }
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::string(argv[1]) == "compare") {
        if (argc != 4)
            usage("compare takes two result files");
        return compareResults(argv[2], argv[3]);
    }
    RunContext ctx;
    ctx.opt = parseArgs(argc, argv);
    pinToOneCpu();
    mkdir(kOutDir, 0755);

    runWorkload(ctx);

    // Every listed metric, and nothing else, in list order.
    Sheet printed;
    if (ctx.opt.trace) {
        for (const MetricName &n : perLayerMetrics()) {
            const Metric *m = ctx.layer.find(n.name);
            if (!m) {
                ctx.absent.emplace(n.name, "not exercised by " +
                                               ctx.opt.workload);
                printed.set(n.name, 0, n.unit);
                continue;
            }
            check(m->unit == n.unit, n.name + " has unit " + m->unit);
            printed.set(n.name, m->value, n.unit, m->base, m->base_unit);
        }
        check(printed.all().size() == ctx.layer.all().size() +
                                          ctx.absent.size(),
              "a per-layer metric is not in the published list");
    } else {
        for (const MetricName &n : endToEndMetrics()) {
            const Metric *m = ctx.e2e.find(n.name);
            check(m != nullptr, n.name + " was not measured");
            check(m->unit == n.unit, n.name + " has unit " + m->unit);
            check(m->value > 0, n.name + " is not positive");
            printed.set(n.name, m->value, n.unit);
        }
        check(printed.all().size() == ctx.e2e.all().size(),
              "an end-to-end metric is not in the published list");
    }
    checkDigestFile(ctx, "cells", ctx.digest);
    if (ctx.has_probe)
        checkDigestFile(ctx, "probe", ctx.probe_digest);

    const std::string stem = std::string(kOutDir) + "/" + ctx.opt.workload +
                             "-s" + std::to_string(ctx.opt.seed) + "-t" +
                             (ctx.opt.trace ? "1" : "0");
    if (ctx.opt.trace) {
        const std::vector<SpanRecord> spans = recordedSpans();
        const std::string report = traceReport(ctx, printed, spans);
        std::fputs(report.c_str(), stderr);
        check(writeFile(stem + "-report.txt", report),
              "cannot write the report");
        check(writeChromeTrace(stem + "-spans.json", spans),
              "cannot write the span trace");
    }
    const std::string prov = provenanceJson(ctx);
    const std::string metrics = metricsJson(printed);
    const std::string result =
        "{\"correct\": true, \"attempted\": " +
        std::to_string(ctx.attempted) + ", \"failed\": 0, \"metrics\": " +
        metrics + "}";
    check(writeFile(stem + ".json",
                    "{\"provenance\": " + prov + ", \"digest\": \"" +
                        ctx.digest.hex() + "\", \"result\": " + result +
                        "}\n"),
          "cannot write the result file");
    std::printf("{\"provenance\": %s, \"digest\": \"%s\"}\n", prov.c_str(),
                ctx.digest.hex().c_str());
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return 0;
}
