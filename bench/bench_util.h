// Shared JSON helpers for the benches. Every bench prints one JSON document
// that leads with the manifest block and carries the metrics block; the
// machine-independent members are gated against bench/baselines/ by
// tools/perfkit/perfkit_compare.
#pragma once

#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "numeric/sparse_batch.h"
#include "obs/obs.h"
#include "runtime/thread_pool.h"

// Build provenance, injected per bench target by CMakeLists.txt
// (target_compile_definitions). The fallbacks keep bench TUs compiling in
// ad-hoc builds (e.g. a bare `c++ bench/foo.cpp`) that bypass CMake.
#ifndef RLCSIM_GIT_SHA
#define RLCSIM_GIT_SHA "unknown"
#endif
#ifndef RLCSIM_BUILD_TYPE
#define RLCSIM_BUILD_TYPE "unknown"
#endif
#ifndef RLCSIM_BUILD_CXX_FLAGS
#define RLCSIM_BUILD_CXX_FLAGS ""
#endif
#ifndef RLCSIM_NATIVE_BUILD
#define RLCSIM_NATIVE_BUILD 0
#endif

namespace benchutil {

// Bumped whenever a bench's JSON shape changes incompatibly (keys renamed,
// arrays restructured). tools/perfkit/perfkit_compare refuses to compare
// across schema versions — a shape change must re-bless bench/baselines/.
inline constexpr int kBenchSchemaVersion = 1;

// Run provenance: the `"manifest": {...},` member every BENCH_*.json leads
// with, so any archived result can be traced to the exact code, build, and
// host shape that produced it. Call it right after printing the opening
// `{` of the document. lane_width/default_threads reflect the env knobs
// (RLCSIM_LANES, RLCSIM_THREADS) in effect at emit time; host_cores is the
// physical context that makes cross-machine rate comparisons guesswork —
// which is why perfkit baselines gate machine-independent metrics only.
inline void manifest_json_block(const char* bench_name) {
  std::printf(
      "  \"manifest\": {\"schema_version\": %d, \"bench\": \"%s\", "
      "\"git_sha\": \"%s\", \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"native_build\": %s, \"lane_width\": %zu, "
      "\"default_threads\": %zu, \"host_cores\": %u},\n",
      kBenchSchemaVersion, bench_name, RLCSIM_GIT_SHA, RLCSIM_BUILD_TYPE,
      RLCSIM_BUILD_CXX_FLAGS, RLCSIM_NATIVE_BUILD ? "true" : "false",
      rlcsim::numeric::default_lane_width(),
      rlcsim::runtime::default_thread_count(),
      std::thread::hardware_concurrency());
}

// "--threads a,b,c" parser shared by the scaling benches. Every entry must
// be a positive integer: junk, nonpositive, or empty entries throw
// std::invalid_argument naming the offender — a typo'd thread list must not
// silently shrink to the valid subset (or to nothing, which would quietly
// skip the whole scaling study). Benches catch this in main() and exit 2.
inline std::vector<std::size_t> parse_thread_list(const char* arg) {
  std::vector<std::size_t> out;
  std::string text(arg);
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = text.find(',', pos);
    const std::string item = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    errno = 0;
    char* end = nullptr;
    const long n = std::strtol(item.c_str(), &end, 10);
    if (item.empty() || end == item.c_str() || *end != '\0' ||
        errno == ERANGE || n <= 0 || n > 65536)
      throw std::invalid_argument("--threads: expected a comma list of "
                                  "positive integers (<= 65536), got \"" +
                                  item + "\" in \"" + text + "\"");
    out.push_back(static_cast<std::size_t>(n));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

// One per-thread-count record of a scaling bench's JSON "runs" array. The
// two determinism-gated benches (sweep_scaling, crosstalk_scaling) share
// this format so their CI gates cannot drift apart. It carries the sweep's
// batched/scalar point split (SweepResult::batched_points/scalar_points), so
// a baseline can gate the batch eligibility the bit-identical fallback
// would otherwise hide.
inline void scaling_run_json(std::size_t threads, double seconds,
                             double points_per_second, double speedup,
                             std::size_t symbolic_factorizations,
                             std::size_t solver_reuse_hits,
                             std::size_t batched_points,
                             std::size_t scalar_points, bool identical,
                             bool last) {
  std::printf("    {\"threads\": %zu, \"seconds\": %.3f, "
              "\"points_per_second\": %.1f, \"speedup_vs_1\": %.2f, "
              "\"symbolic_factorizations\": %zu, \"solver_reuse_hits\": %zu, "
              "\"batched_points\": %zu, \"scalar_points\": %zu, "
              "\"bit_identical_to_first\": %s}%s\n",
              threads, seconds, points_per_second, speedup,
              symbolic_factorizations, solver_reuse_hits, batched_points,
              scalar_points, identical ? "true" : "false", last ? "" : ",");
}

// One per-(lanes, threads) record of the batched-sweep bench's JSON "runs"
// array: scaling_run_json's fields plus the lane width, the batch ejection
// counter (SweepResult::ejected_lanes — every ejection is a full scalar
// refactorization, so a nonzero count explains a throughput dip), and the
// batched/scalar point split (SweepResult::batched_points/scalar_points —
// the accounting that keeps the batch's silent scalar fallback honest).
inline void batch_run_json(std::size_t lanes, std::size_t threads,
                           double seconds, double points_per_second,
                           double speedup, std::size_t symbolic_factorizations,
                           std::size_t solver_reuse_hits,
                           std::size_t ejected_lanes,
                           std::size_t batched_points,
                           std::size_t scalar_points, bool identical,
                           bool last) {
  std::printf("    {\"lanes\": %zu, \"threads\": %zu, \"seconds\": %.3f, "
              "\"points_per_second\": %.1f, \"speedup_vs_scalar\": %.2f, "
              "\"symbolic_factorizations\": %zu, \"solver_reuse_hits\": %zu, "
              "\"ejected_lanes\": %zu, \"batched_points\": %zu, "
              "\"scalar_points\": %zu, \"bit_identical_to_first\": %s}%s\n",
              lanes, threads, seconds, points_per_second, speedup,
              symbolic_factorizations, solver_reuse_hits, ejected_lanes,
              batched_points, scalar_points, identical ? "true" : "false",
              last ? "" : ",");
}

// The unified observability block every BENCH_*.json carries: one
// process-wide aggregation of all obs counters and histograms at emit
// time (see README "Observability" for the metric catalog). Printed as a
// `"metrics": {...},` member — call it right before the JSON's final key
// (or with last=true when metrics itself closes the document).
inline void metrics_json_block(bool last = false) {
  std::printf("  \"metrics\": %s%s\n", rlcsim::obs::metrics_json(2).c_str(),
              last ? "" : ",");
}

inline double pct(double value, double reference) {
  return 100.0 * (value - reference) / reference;
}

}  // namespace benchutil
