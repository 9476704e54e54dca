// Sweep-engine throughput scaling: points/sec of a transient design-space
// sweep versus thread count, with a bit-identity check across thread counts.
//
// The workload is the tentpole claim of the sweep subsystem: a >= 5k-point
// (driver, load, inductance) grid evaluated with the full MNA transient
// engine on a sparse-path ladder, where each thread replays ONE recorded
// symbolic factorization (see sweep/sweep.h). Emits one JSON document:
// per-thread-count wall time, points/sec, speedup vs 1 thread, symbolic
// factorization counts, and whether every thread count produced the exact
// same bits. Speedups are only meaningful up to the machine's core count —
// the JSON carries hardware_concurrency so readers can judge.
//
// Usage: sweep_scaling [--fast] [--points N] [--threads a,b,c] [--dump F]
//   --fast      512-point grid, thread counts 1,2 (CI smoke run)
//   --points N  approximate grid size (rounded to a 3-axis box)
//   --threads   comma list of thread counts (default 1,2,4,8)
//   --dump F    write the reference run's raw result bytes to file F — the
//               CI tracing-on/off gate cmp's two dumps to prove telemetry
//               cannot perturb results
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "sweep/sweep.h"

namespace {

using namespace rlcsim;

sweep::SweepSpec grid_of(std::size_t target_points) {
  // Split the target across three axes: inductance gets the leftovers so the
  // grid lands close to (and at or above) the target.
  const int side = static_cast<int>(std::cbrt(static_cast<double>(target_points)));
  const int na = std::max(2, side), nb = std::max(2, side);
  const int nc = std::max(
      2, static_cast<int>((target_points + na * nb - 1) / (na * nb)));

  sweep::SweepSpec spec;
  spec.base.system = {500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  spec.axes = {
      sweep::linspace(sweep::Variable::kDriverResistance, 100.0, 1000.0, na),
      sweep::linspace(sweep::Variable::kLoadCapacitance, 0.1e-12, 1e-12, nb),
      sweep::logspace(sweep::Variable::kLineInductance, 1e-8, 1e-6, nc),
  };
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t target_points = 5120;
  std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  const char* dump_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      target_points = 512;
      thread_counts = {1, 2};
    } else if (std::strcmp(argv[i], "--points") == 0 && i + 1 < argc) {
      target_points = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--dump") == 0 && i + 1 < argc) {
      dump_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      try {
        thread_counts = benchutil::parse_thread_list(argv[++i]);
      } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "sweep_scaling: %s\n", error.what());
        return 2;
      }
    }
  }

  const sweep::SweepSpec spec = grid_of(target_points);
  const std::size_t points = spec.size();

  std::printf("{\n");
  benchutil::manifest_json_block("sweep_scaling");
  std::printf("  \"bench\": \"sweep_scaling\",\n");
  std::printf("  \"analysis\": \"transient_delay\",\n");
  std::printf("  \"points\": %zu,\n", points);
  std::printf("  \"segments\": 25,\n");
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"runs\": [\n");

  std::vector<double> reference;
  bool all_identical = true;
  double base_pps = 0.0;
  for (std::size_t t = 0; t < thread_counts.size(); ++t) {
    sweep::EngineOptions options;
    options.threads = thread_counts[t];
    options.segments = 25;  // ~80 unknowns: sparse path, symbolic reuse live
    const sweep::SweepEngine engine(options);
    const sweep::SweepResult result =
        engine.run(spec, sweep::Analysis::kTransientDelay);

    bool identical = true;
    if (t == 0) {
      reference = result.values;
      base_pps = result.points_per_second;
    } else {
      identical = result.values == reference;  // exact, bit-for-bit
      all_identical = all_identical && identical;
    }

    benchutil::scaling_run_json(
        thread_counts[t], result.elapsed_seconds, result.points_per_second,
        base_pps > 0.0 ? result.points_per_second / base_pps : 1.0,
        result.symbolic_factorizations, result.solver_reuse_hits,
        result.batched_points, result.scalar_points, identical,
        t + 1 == thread_counts.size());
  }

  std::printf("  ],\n");
  benchutil::metrics_json_block();
  std::printf("  \"all_thread_counts_bit_identical\": %s\n",
              all_identical ? "true" : "false");
  std::printf("}\n");

  if (dump_path != nullptr) {
    // Raw reference bytes (not text): the CI tracing-on/off gate compares
    // two dumps with cmp, so any formatting would only blur the identity.
    std::FILE* f = std::fopen(dump_path, "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "sweep_scaling: cannot open --dump path %s\n",
                   dump_path);
      return 2;
    }
    std::fwrite(reference.data(), sizeof(double), reference.size(), f);
    std::fclose(f);
  }
  return all_identical ? 0 : 1;
}
