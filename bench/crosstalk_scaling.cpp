// Crosstalk-sweep throughput scaling: points/sec of a coupled-bus victim
// delay grid versus thread count, with a bit-identity check across thread
// counts — the crosstalk twin of bench/sweep_scaling.
//
// The workload is the coupled-bus tentpole claim: a (Cc/Ct, Lm/Lt, driver)
// grid of 3-line buses evaluated with the full MNA transient engine, every
// bus a K-segment coupled ladder on the sparse path, every thread replaying
// ONE recorded symbolic factorization pair. Patterns are restricted to the
// switching corners (same-/opposite-phase) so every grid value is a real
// delay and the bit-identity comparison is exact. The sweep's delay points
// stop stepping at the victim's 50% crossing, so the first thread count's
// values are also compared byte for byte against per-point full-horizon
// core::analyze_crosstalk runs (untimed). Emits one JSON document; the exit
// status IS the check (0 iff every thread count produced the same bits and
// they match analyze_crosstalk), so CI can gate on it directly.
//
// Usage: crosstalk_scaling [--fast] [--points N] [--threads a,b,c]
//   --fast      64-point grid, thread counts 1,2 (CI smoke run)
//   --points N  approximate grid size (rounded to a 3-axis box x 2 patterns)
//   --threads   comma list of thread counts (default 1,2,4,8)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/crosstalk.h"
#include "sweep/sweep.h"

namespace {

using namespace rlcsim;

sweep::SweepSpec grid_of(std::size_t target_points) {
  // Two switching patterns are fixed; split the rest across three axes.
  const std::size_t box = (target_points + 1) / 2;
  const int side = static_cast<int>(std::cbrt(static_cast<double>(box)));
  const int na = std::max(2, side), nb = std::max(2, side);
  const int nc =
      std::max(2, static_cast<int>((box + na * nb - 1) / (na * nb)));

  sweep::SweepSpec spec;
  spec.base.system = {100.0, {200.0, 5e-9, 1e-12}, 50e-15};
  spec.base.xtalk.bus_lines = 3;
  // Coupling ranges stay strictly positive so every grid point shares ONE
  // sparsity pattern (a zero Cc/Lm drops stamps and forks the topology).
  spec.axes = {
      sweep::linspace(sweep::Variable::kCouplingCapRatio, 0.1, 0.6, na),
      sweep::linspace(sweep::Variable::kMutualRatio, 0.05, 0.4, nb),
      sweep::linspace(sweep::Variable::kDriverResistance, 50.0, 400.0, nc),
      sweep::switching_patterns({core::SwitchingPattern::kSamePhase,
                                 core::SwitchingPattern::kOppositePhase}),
  };
  return spec;
}

// True iff `values` are byte-equal to per-point core::analyze_crosstalk
// victim delays, seeded the way a one-thread sweep seeds: grid point 0
// records the symbolic factorizations and every point replays them.
bool matches_analyze_crosstalk(const sweep::SweepSpec& spec, int segments,
                               const std::vector<double>& values) {
  sim::SolverReuse reuse;
  for (std::size_t flat = 0; flat < spec.size(); ++flat) {
    const sweep::Scenario s = spec.at(flat);
    core::CrosstalkOptions options;
    options.driver_resistance = s.system.driver_resistance;
    options.load_capacitance = s.system.load_capacitance;
    options.segments = segments;
    options.reuse = &reuse;
    const double delay =
        core::analyze_crosstalk(tline::make_bus(s.xtalk.bus_lines, s.system.line,
                                                s.xtalk.cc_ratio, s.xtalk.lm_ratio),
                                s.xtalk.pattern, options)
            .victim_delay_50.value_or(std::nan(""));
    if (std::memcmp(&delay, &values[flat], sizeof(double)) != 0) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t target_points = 512;
  std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      target_points = 64;
      thread_counts = {1, 2};
    } else if (std::strcmp(argv[i], "--points") == 0 && i + 1 < argc) {
      target_points = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      try {
        thread_counts = benchutil::parse_thread_list(argv[++i]);
      } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "crosstalk_scaling: %s\n", error.what());
        return 2;
      }
    }
  }

  const sweep::SweepSpec spec = grid_of(target_points);
  constexpr int kSegments = 16;  // 3-line bus ~ 150 unknowns: sparse path live
  const std::size_t points = spec.size();

  std::printf("{\n");
  benchutil::manifest_json_block("crosstalk_scaling");
  std::printf("  \"bench\": \"crosstalk_scaling\",\n");
  std::printf("  \"analysis\": \"crosstalk_delay\",\n");
  std::printf("  \"bus_lines\": %d,\n", spec.base.xtalk.bus_lines);
  std::printf("  \"points\": %zu,\n", points);
  std::printf("  \"segments\": %d,\n", kSegments);
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"runs\": [\n");

  std::vector<double> reference;
  bool all_identical = true;
  double base_pps = 0.0;
  for (std::size_t t = 0; t < thread_counts.size(); ++t) {
    sweep::EngineOptions options;
    options.threads = thread_counts[t];
    options.segments = kSegments;
    const sweep::SweepEngine engine(options);
    const sweep::SweepResult result =
        engine.run(spec, sweep::Analysis::kCrosstalkDelay);

    bool identical = true;
    if (t == 0) {
      reference = result.values;
      base_pps = result.points_per_second;
    } else {
      identical = result.values == reference;  // exact, bit-for-bit (no NaNs)
      all_identical = all_identical && identical;
    }

    benchutil::scaling_run_json(
        thread_counts[t], result.elapsed_seconds, result.points_per_second,
        base_pps > 0.0 ? result.points_per_second / base_pps : 1.0,
        result.symbolic_factorizations, result.solver_reuse_hits, identical,
        t + 1 == thread_counts.size());
  }

  std::printf("  ],\n");
  benchutil::metrics_json_block();
  // After the metrics block, so its counters describe the sweeps alone.
  const bool matches = matches_analyze_crosstalk(spec, kSegments, reference);
  std::printf("  \"matches_analyze_crosstalk\": %s,\n", matches ? "true" : "false");
  std::printf("  \"all_thread_counts_bit_identical\": %s\n",
              all_identical ? "true" : "false");
  std::printf("}\n");
  return all_identical && matches ? 0 : 1;
}
