// The four end-to-end workloads and the traced per-layer suite.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/timing_graph.h"
#include "harness.h"
#include "sweep/sweep.h"

namespace rlcbench {

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "table1_transient", "xtalk_small_transient", "clock_tree_graph",
      "bus_repeater_opt"};
  return names;
}

// One untraced workload run at one library thread.
struct WorkloadResult {
  CallSeries series;         // timed calls
  double max_err_pct = 0.0;  // fast model vs full-MNA reference
  double peak_rss_mb = 0.0;  // taken after the timed calls, before the reference
  std::vector<Check> checks;
};
WorkloadResult run_workload(const std::string& name, std::uint64_t seed,
                            double seconds);

// Result bytes and item accounting shared by the workloads and the traced
// suite's bit-identity checks.
CallOutcome sweep_outcome(const rlcsim::sweep::SweepResult& result);
CallOutcome graph_outcome(const rlcsim::graph::GraphResult& result);

// The traced run: spans around every layer call (Chrome trace written to
// `trace_path`) plus the per-layer metrics, measured on the workloads' own
// seeded inputs. obs.metrics_overhead_pct and obs.trace_coverage_pct need a
// second process and the trace digest, so run.py adds them.
struct LayerReport {
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};
LayerReport run_layers(std::uint64_t seed, const std::string& trace_path);

// table1_transient work_per_s over `seconds` of calls, for the telemetry
// overhead probe (run.py launches it with and without RLCSIM_METRICS=0).
double probe_table1_rate(std::uint64_t seed, double seconds);

}  // namespace rlcbench
