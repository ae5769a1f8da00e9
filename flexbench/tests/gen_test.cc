/**
 * @file
 * The benchmark's own test: every seeded input generator reproduces
 * byte-identical inputs from one seed, two seeds give different
 * inputs, and each generated program prints its expected console when
 * simulated.
 *
 *   cmake --build .bench_build --target flexbench-gen-test
 *   .bench_build/flexbench-gen-test
 */

#include <cstdio>
#include <string>

#include "gen.h"
#include "sim/sim_request.h"

using namespace fb;

namespace {

int g_failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

bool
same(const GenProgram &a, const GenProgram &b)
{
    return a.source == b.source && a.expected_console == b.expected_console;
}

/** Simulate @p p on @p cores cores and compare its console. */
bool
printsExpected(const GenProgram &p, u32 cores)
{
    flexcore::SystemConfig config;
    config.num_cores = cores;
    const flexcore::SimOutcome out =
        flexcore::SimRequest(config).source(p.source).run();
    return out.result.exit == flexcore::RunResult::Exit::kExited &&
           out.result.console == p.expected_console;
}

}  // namespace

int
main()
{
    for (u64 seed : {1ull, 2ull, 977ull}) {
        const std::string s = " (seed " + std::to_string(seed) + ")";
        expect(same(coldProgram(seed, 5), coldProgram(seed, 5)),
               "cold program reproduces" + s);
        expect(!same(coldProgram(seed, 5), coldProgram(seed + 1, 5)),
               "cold program differs across seeds" + s);
        expect(!same(coldProgram(seed, 5), coldProgram(seed, 6)),
               "cold programs are unique per request" + s);
        expect(printsExpected(coldProgram(seed, 9), 1),
               "cold program prints its expected console" + s);

        for (u32 cores : {1u, 2u, 8u}) {
            const std::string c = s + " at " + std::to_string(cores) +
                                  " cores";
            expect(same(sharedWindowProgram(seed, cores, 50),
                        sharedWindowProgram(seed, cores, 50)),
                   "shared-window program reproduces" + c);
            expect(!same(sharedWindowProgram(seed, cores, 50),
                         sharedWindowProgram(seed + 1, cores, 50)),
                   "shared-window program differs across seeds" + c);
            expect(printsExpected(sharedWindowProgram(seed, cores, 50),
                                  cores),
                   "shared-window program prints its expected console" +
                       c);
        }

        const auto plan = [&](u64 sd, u64 index) {
            return faultPlan(sd, index, 5000).format();
        };
        expect(plan(seed, 3) == plan(seed, 3), "fault plan reproduces" + s);
        expect(plan(seed, 3) != plan(seed + 1, 3),
               "fault plan differs across seeds" + s);
        expect(flexcore::validateFaultPlan(faultPlan(seed, 4, 10))
                   .empty(),
               "fault plan validates" + s);
    }
    std::printf("%s\n", g_failures ? "FAILED" : "all passed");
    return g_failures ? 1 : 0;
}
