// rlcbench — the repository benchmark binary (see ../README.md).
//
//   rlcbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//            [--trace-file PATH] [--probe-metrics]
//
// Untraced (--trace 0): runs the named workload(s) at one library thread
// and prints the end-to-end metrics, each repeated-call metric as a median
// with its quartiles, p90 and sample count, then one JSON line. Traced
// (--trace 1): runs the per-layer suite with spans written to --trace-file.
// --probe-metrics: prints only table1_transient's work_per_s (the telemetry
// overhead probe). Exit status: 0 all checks passed, 1 a check failed or a
// call threw, 2 usage error.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "inputs.h"
#include "workloads.h"

using namespace rlcbench;

namespace {

struct Args {
  std::string workload = "all";
  std::uint64_t seed = kDefaultSeed;
  double seconds = 25.0;
  bool trace = false;
  std::string trace_file = "rlcbench_trace.json";
  bool probe_metrics = false;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr, "rlcbench: %s\n", message);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
      if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (arg == "--trace-file") {
      a.trace_file = value();
    } else if (arg == "--probe-metrics") {
      a.probe_metrics = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  bool known = a.workload == "all";
  for (const std::string& name : workload_names()) known = known || name == a.workload;
  if (!known) usage(("unknown workload " + a.workload).c_str());
  return a;
}

// The end-to-end metrics of one workload run, in report order. The first
// list is printed; the second is the JSON metric set (BENCHMARK.json).
// call_ms_p90 and failed_frac are printed only: p90 exists only with >= 100
// calls, and failures travel as the JSON's attempted/failed counts. Times
// and rates are at the reference host speed (harness.h, host_factor); the
// printed list ends with the calls' wall time as measured and the host
// factors that scaled it.
void e2e_metrics(const WorkloadResult& r, std::vector<Metric>& shown,
                 std::vector<Metric>& json) {
  const auto summarize_ms = [](const std::vector<double>& seconds) {
    std::vector<double> ms;
    for (const double s : seconds) ms.push_back(1e3 * s);
    return summarize(std::move(ms));
  };
  const Summary calls_ms = summarize_ms(r.series.call_seconds);
  const Summary rate = summarize(r.series.items_per_second);
  const double failed_frac =
      r.series.attempted == 0
          ? 1.0
          : static_cast<double>(r.series.failed) / static_cast<double>(r.series.attempted);
  json = {{"setup_s", "s", r.series.setup_seconds, {}},
          {"work_per_s", "items/s", rate.p50, rate},
          {"call_ms_p50", "ms", calls_ms.p50, calls_ms},
          {"max_err_pct", "%", r.max_err_pct, {}},
          {"peak_rss_mb", "MB", r.peak_rss_mb, {}}};
  shown = json;
  // p90 only where >= 10 samples lie beyond it.
  if (calls_ms.count >= 100)
    shown.push_back({"call_ms_p90", "ms", calls_ms.p90, calls_ms});
  shown.push_back({"failed_frac", "ratio", failed_frac, {}});
  const Summary wall_ms = summarize_ms(r.series.wall_call_seconds);
  const Summary factors = summarize(r.series.host_factors);
  shown.push_back({"call_ms_p50_wall", "ms", wall_ms.p50, wall_ms});
  shown.push_back({"host_factor", "x", factors.p50, factors});
}

int run_untraced(const Args& a) {
  std::vector<std::string> names;
  if (a.workload == "all") names = workload_names();
  else names = {a.workload};
  bool ok = true;
  for (const std::string& name : names) {
    const WorkloadResult r = run_workload(name, a.seed, a.seconds);
    std::vector<Metric> shown, json;
    e2e_metrics(r, shown, json);
    const std::string title = name + " (seed " + std::to_string(a.seed) +
                              ", 1 library thread)";
    ok = print_report(title, shown, json, r.checks, r.series.attempted,
                      r.series.failed) && ok;
  }
  return ok ? 0 : 1;
}

int run_traced(const Args& a) {
  const LayerReport r = run_layers(a.seed, a.trace_file);
  const std::string title = "traced per-layer run (seed " + std::to_string(a.seed) + ")";
  return print_report(title, r.metrics, r.metrics, r.checks, r.attempted, r.failed)
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    if (a.probe_metrics) {
      std::printf("{\"work_per_s\": %.17g}\n", probe_table1_rate(a.seed, a.seconds));
      return 0;
    }
    return a.trace ? run_traced(a) : run_untraced(a);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "rlcbench: %s\n", error.what());
    return 1;
  }
}
