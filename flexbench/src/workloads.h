/**
 * @file
 * The four benchmark workloads and the metric names they report.
 */

#ifndef FLEXBENCH_WORKLOADS_H_
#define FLEXBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "bench.h"

namespace fb {

/** A metric name and its unit, as BENCHMARK.json lists them. */
struct MetricName
{
    std::string name;
    std::string unit;
};

/** Every end-to-end metric; each workload reports all of them. */
const std::vector<MetricName> &endToEndMetrics();
/** Every per-layer metric; each traced run reports all of them. */
const std::vector<MetricName> &perLayerMetrics();

/** paper-grid, fast-modes, multicore, serve-mix. */
const std::vector<std::string> &workloadNames();

/** Run one workload (ctx.opt.workload) and fill @p ctx. */
void runWorkload(RunContext &ctx);

}  // namespace fb

#endif  // FLEXBENCH_WORKLOADS_H_
