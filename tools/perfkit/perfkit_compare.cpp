// perfkit_compare — noise-aware bench-regression comparator.
//
// Compares a current BENCH_*.json against a committed baseline
// (bench/baselines/<bench>.json) metric by metric and classifies each as
//   match        value identical to the baseline
//   noise        inside the metric's tolerance window
//   improvement  outside the window in the GOOD direction (re-bless soon)
//   regression   outside the window in the BAD direction
// and exits nonzero when any GATED metric regresses. This is the consumer
// side of the observability stack: PR 9 made every bench emit counters,
// spans, and a metrics block; this tool is what turns those numbers into a
// tracked trajectory with teeth (cf. google/benchmark's compare.py and
// LNT-style perf tracking).
//
// Noise model: window = max(tolerance * |baseline|, abs_tolerance). The
// committed baselines gate only MACHINE-INDEPENDENT metrics — exact
// deterministic counts (symbolic factorizations, cache hits, obs counters),
// bit-identity booleans, and accuracy percentages with a small absolute
// floor for cross-libm variance. Wall-clock rates are either tracked
// ungated (gate: false) or gated with a catastrophic-only 75% window,
// because the blessing host and the CI runner do not share a core count or
// ISA (the manifest records both sides).
//
// Modes:
//   perfkit_compare [--trajectory F] [--expect GOLDEN] BASELINE CURRENT
//   perfkit_compare --bless --out BASELINE CURRENT
//
// Exit status: 0 clean (match/noise/improvement only), 1 gated regression
// (or golden mismatch under --expect), 2 usage/parse/schema/missing-metric
// errors. Same single-file plain-C++ ground rules as tools/lint.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>
#include <vector>

#include "perfkit_json.h"

namespace {

using perfkit::JsonValue;

inline constexpr int kBaselineFormatVersion = 1;

enum class Direction { kHigher, kLower, kExact };

const char* direction_name(Direction d) {
  switch (d) {
    case Direction::kHigher: return "higher";
    case Direction::kLower: return "lower";
    case Direction::kExact: return "exact";
  }
  return "exact";
}

struct MetricSpec {
  std::string name;       // stable report/trajectory identifier
  std::string pointer;    // perfkit_json.h pointer-with-selectors
  Direction direction;    // which way "better" points (exact: neither)
  double tolerance;       // relative window half-width vs |baseline|
  double abs_tolerance;   // absolute window floor (libm / rounding slack)
  bool gate;              // false = tracked in report+trajectory, never fails
};

struct BenchCatalog {
  const char* bench;
  std::vector<MetricSpec> metrics;
};

// paper_claims' records (bench/paper_claims.cpp), one pair per claim id:
// `reproduced` is held exactly, and `measured` in a two-sided window of 2%
// relative with a 0.001 absolute floor. That is mor_accuracy's
// accuracy-percentage shape, two-sided because a claim's value has no good
// direction, and tighter because no claim depends on timing or threads.
std::vector<MetricSpec> claim_metrics(std::initializer_list<const char*> ids) {
  std::vector<MetricSpec> specs;
  specs.reserve(2 * ids.size());
  for (const char* raw : ids) {
    const std::string id = raw;
    const std::string claim = "/claims/id=" + id;
    specs.push_back({id + ".reproduced", claim + "/reproduced",
                     Direction::kExact, 0.0, 0.0, true});
    specs.push_back({id + ".measured", claim + "/measured", Direction::kExact,
                     0.02, 0.001, true});
  }
  return specs;
}

// The blessing catalog: which members of each bench's JSON are headline
// metrics, and how tightly each is held. `--bless` resolves these pointers
// against a real run to mint bench/baselines/<bench>.json; compare mode
// reads the SPECS BACK FROM THE BASELINE FILE, so a committed baseline is
// self-describing and survives catalog edits until re-blessed.
const std::vector<BenchCatalog>& catalog() {
  static const std::vector<BenchCatalog> kCatalog = {
      {"sweep_scaling",
       {
           {"bit_identical_all_threads", "/all_thread_counts_bit_identical",
            Direction::kExact, 0.0, 0.0, true},
           {"symbolic_factorizations@t1",
            "/runs/threads=1/symbolic_factorizations", Direction::kExact, 0.0,
            0.0, true},
           {"solver_reuse_hits@t1", "/runs/threads=1/solver_reuse_hits",
            Direction::kExact, 0.0, 0.0, true},
           {"lu.symbolic", "/metrics/counters/lu.symbolic", Direction::kExact,
            0.0, 0.0, true},
           {"cache.lu_dt.hits", "/metrics/counters/cache.lu_dt.hits",
            Direction::kExact, 0.0, 0.0, true},
           // Catastrophic backstop only: rate, machine-dependent.
           {"points_per_second@t1", "/runs/threads=1/points_per_second",
            Direction::kHigher, 0.75, 0.0, true},
           {"points_per_second@t8", "/runs/threads=8/points_per_second",
            Direction::kHigher, 0.75, 0.0, false},
       }},
      {"crosstalk_scaling",
       {
           {"bit_identical_all_threads", "/all_thread_counts_bit_identical",
            Direction::kExact, 0.0, 0.0, true},
           {"symbolic_factorizations@t1",
            "/runs/threads=1/symbolic_factorizations", Direction::kExact, 0.0,
            0.0, true},
           {"solver_reuse_hits@t1", "/runs/threads=1/solver_reuse_hits",
            Direction::kExact, 0.0, 0.0, true},
           {"sweep.runs", "/metrics/counters/sweep.runs", Direction::kExact,
            0.0, 0.0, true},
           {"points_per_second@t1", "/runs/threads=1/points_per_second",
            Direction::kHigher, 0.75, 0.0, true},
       }},
      {"mor_accuracy",
       {
           // Accuracy percentages: deterministic modulo cross-libm ULPs,
           // held to 25% relative with a 0.05pp absolute floor.
           {"q4_worst_pct", "/gates/gate=q4_worst_pct/value",
            Direction::kLower, 0.25, 0.05, true},
           {"q4_mean_pct", "/gates/gate=q4_mean_pct/value", Direction::kLower,
            0.25, 0.05, true},
           {"q8_worst_pct", "/gates/gate=q8_worst_pct/value",
            Direction::kLower, 0.25, 0.05, true},
           {"bus_delay_q4up_worst_pct",
            "/gates/gate=bus_delay_q4up_worst_pct/value", Direction::kLower,
            0.25, 0.05, true},
           {"bus_noise_q4up_worst_pct",
            "/gates/gate=bus_noise_q4up_worst_pct/value", Direction::kLower,
            0.25, 0.05, true},
           {"reduced_sweep_symbolic_factorizations",
            "/reduced_sweep/symbolic_factorizations", Direction::kExact, 0.0,
            0.0, true},
           {"reduced_sweep_bit_identical",
            "/reduced_sweep/bit_identical_1_vs_3_threads", Direction::kExact,
            0.0, 0.0, true},
           {"single_line_wall_time_speedup", "/single_line/wall_time_speedup",
            Direction::kHigher, 0.75, 0.0, false},
       }},
      {"repbus_frontier",
       {
           {"composed_vs_mna_worst_delay_pct",
            "/gates/gate=composed_vs_mna_worst_delay_pct/value",
            Direction::kLower, 0.25, 0.05, true},
           // Deterministic delay/noise ratios of two simulated placements:
           // exact up to printed precision + cross-libm slack.
           {"staggered_over_uniform_opposite_delay",
            "/gates/gate=staggered_over_uniform_opposite_delay/value",
            Direction::kExact, 0.0, 0.002, true},
           {"staggered_over_uniform_quiet_noise",
            "/gates/gate=staggered_over_uniform_quiet_noise/value",
            Direction::kExact, 0.0, 0.002, true},
           {"optimizer_bit_identical",
            "/optimizer_determinism/bit_identical_1_vs_3_threads",
            Direction::kExact, 0.0, 0.0, true},
           {"inner_loop_speedup", "/inner_loop/speedup", Direction::kHigher,
            0.75, 0.0, true},
           // Analytic-scan grid points the optimizer walks: a switching
           // walk that scans extrema again (or any scan change) moves it.
           {"mor.scan_samples", "/metrics/counters/mor.scan_samples",
            Direction::kExact, 0.0, 0.0, true},
       }},
      {"graph_scaling",
       {
           {"h_tree_max_arrival_err_pct",
            "/gates/gate=h_tree_max_arrival_err_pct/value", Direction::kLower,
            0.25, 0.05, true},
           {"h_tree_max_slew_err_pct",
            "/gates/gate=h_tree_max_slew_err_pct/value", Direction::kLower,
            0.25, 0.05, true},
           {"h_tree_skew_err_pct", "/gates/gate=h_tree_skew_err_pct/value",
            Direction::kLower, 0.25, 0.05, true},
           {"thread_determinism_failures",
            "/gates/gate=thread_determinism_failures/value", Direction::kExact,
            0.0, 0.0, true},
           {"graph.nodes_evaluated", "/metrics/counters/graph.nodes_evaluated",
            Direction::kExact, 0.0, 0.0, true},
           // Analytic-scan grid points walked: any change to the sampling
           // grid, the dead-time skip or an early exit moves it.
           {"mor.scan_samples", "/metrics/counters/mor.scan_samples",
            Direction::kExact, 0.0, 0.0, true},
       }},
      {"sweep_batch",
       {
           {"bit_identical", "/gates/bit_identical", Direction::kExact, 0.0,
            0.0, true},
           // Deterministic point accounting (batched vs scalar fallback).
           {"transient_min_batched_fraction",
            "/gates/transient_min_batched_fraction", Direction::kExact, 0.0,
            0.001, true},
           {"lu.ejected_lanes", "/metrics/counters/lu.ejected_lanes",
            Direction::kExact, 0.0, 0.0, true},
           // Vectorization-dependent: the blessing host's portable build and
           // CI's -march=native build sit far apart; track, don't gate.
           {"transient_speedup_w8_vs_w1",
            "/gates/transient_speedup_w8_vs_w1", Direction::kHigher, 0.75, 0.0,
            false},
       }},
      {"paper_claims",
       claim_metrics({"table1_worst_err_pct", "table1_mean_err_pct",
                      "table1_low_r_worst_err_pct", "table1_low_r_mean_err_pct",
                      "ladder_vs_exact_worst_pct", "fig2_rtct0_worst_dev_pct",
                      "fig2_rtct1_worst_dev_pct", "fig2_rtct5_worst_dev_pct",
                      "eq14_15_excess_delay_worst_pct",
                      "chain_rc_over_closed_form_t5_pct",
                      "chain_rc_over_optimum_t5_pct",
                      "eq16_delay_increase_t3_pct", "rc_penalty_vs_optimum_t3_pct",
                      "eq16_delay_increase_t5_pct", "rc_penalty_vs_optimum_t5_pct",
                      "eq16_delay_increase_t10_pct",
                      "rc_penalty_vs_optimum_t10_pct", "eq18_area_increase_t3_pct",
                      "eq18_area_increase_t5_pct", "rlc_sizing_power_saved_pct",
                      "eq9_fit_exp_scale", "eq9_fit_exp_power", "eq9_fit_linear",
                      "eq9_fit_worst_point_pct", "eq14_fit_a", "eq14_fit_b",
                      "eq15_fit_a", "eq15_fit_b", "length_exponent_rc_wire",
                      "length_exponent_lc_wire", "tech_t_lr_250nm",
                      "tech_area_increase_250nm_pct", "tech_t_lr_130nm",
                      "tech_area_increase_130nm_pct"})},
      // Synthetic bench for the comparator's own golden tests
      // (tools/perfkit/testdata): one metric per classification knob.
      {"demo",
       {
           {"points_per_second", "/results/points_per_second",
            Direction::kHigher, 0.05, 0.0, true},
           {"symbolic_factorizations", "/results/symbolic_factorizations",
            Direction::kExact, 0.0, 0.0, true},
           {"cache_hit_rate", "/results/cache_hit_rate", Direction::kHigher,
            0.02, 0.01, true},
           {"span_p99_seconds", "/results/span_p99_seconds", Direction::kLower,
            0.10, 0.0, true},
           {"tracked_rate", "/results/tracked_rate", Direction::kHigher, 0.5,
            0.0, false},
       }},
  };
  return kCatalog;
}

std::string manifest_string(const JsonValue& doc, const char* key) {
  const JsonValue* manifest = doc.find("manifest");
  if (manifest == nullptr) return "unknown";
  const JsonValue* value = manifest->find(key);
  if (value == nullptr || value->kind != JsonValue::Kind::kString)
    return "unknown";
  return value->string;
}

// ------------------------------------------------------------------- bless

int bless(const std::string& out_path, const std::string& current_path) {
  JsonValue current;
  try {
    current = perfkit::parse_json_file(current_path);
  } catch (const std::runtime_error& error) {
    std::cerr << "perfkit_compare: " << error.what() << "\n";
    return 2;
  }
  const std::string bench = manifest_string(current, "bench");
  const JsonValue* manifest = current.find("manifest");
  const auto schema = perfkit::as_number(
      manifest ? manifest->find("schema_version") : nullptr);
  if (bench == "unknown" || !schema) {
    std::cerr << "perfkit_compare: " << current_path
              << " has no /manifest/{bench,schema_version}; cannot bless a "
                 "run with no provenance\n";
    return 2;
  }
  const BenchCatalog* specs = nullptr;
  for (const BenchCatalog& entry : catalog())
    if (bench == entry.bench) specs = &entry;
  if (specs == nullptr) {
    std::cerr << "perfkit_compare: no metric catalog for bench '" << bench
              << "' (add one in tools/perfkit/perfkit_compare.cpp)\n";
    return 2;
  }

  // Resolve everything BEFORE touching the output path: a bless that dies
  // on a missing metric must not leave a truncated baseline behind.
  std::vector<double> values;
  for (const MetricSpec& spec : specs->metrics) {
    const auto value =
        perfkit::as_number(perfkit::resolve_pointer(current, spec.pointer));
    if (!value) {
      std::cerr << "perfkit_compare: cannot bless '" << bench << "': metric "
                << spec.name << " (" << spec.pointer
                << ") is missing or non-numeric in " << current_path << "\n";
      return 2;
    }
    values.push_back(*value);
  }

  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::cerr << "perfkit_compare: cannot write " << out_path << "\n";
    return 2;
  }
  out << "{\n";
  out << "  \"perfkit_baseline\": " << kBaselineFormatVersion << ",\n";
  out << "  \"bench\": \"" << bench << "\",\n";
  out << "  \"schema_version\": " << perfkit::format_number(*schema) << ",\n";
  out << "  \"blessed_git_sha\": \"" << manifest_string(current, "git_sha")
      << "\",\n";
  out << "  \"metrics\": [\n";
  for (std::size_t i = 0; i < specs->metrics.size(); ++i) {
    const MetricSpec& spec = specs->metrics[i];
    out << "    {\"name\": \"" << spec.name << "\", \"pointer\": \""
        << spec.pointer << "\", \"direction\": \""
        << direction_name(spec.direction)
        << "\", \"tolerance\": " << perfkit::format_number(spec.tolerance)
        << ", \"abs_tolerance\": "
        << perfkit::format_number(spec.abs_tolerance)
        << ", \"gate\": " << (spec.gate ? "true" : "false")
        << ", \"baseline\": " << perfkit::format_number(values[i]) << "}"
        << (i + 1 < specs->metrics.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("perfkit_compare: blessed %zu metrics of '%s' into %s\n",
              specs->metrics.size(), bench.c_str(), out_path.c_str());
  return 0;
}

// ----------------------------------------------------------------- compare

struct Comparison {
  std::string name;
  double baseline = 0.0;
  double current = 0.0;
  bool gate = true;
  std::string status;  // match | noise | improvement | regression
  std::string detail;  // window / delta rendering for the report line
};

std::string classify(const MetricSpec& spec, double baseline, double current,
                     std::string* detail) {
  const double delta = current - baseline;
  const double window =
      std::max(spec.tolerance * std::fabs(baseline), spec.abs_tolerance);
  char buffer[128];
  if (baseline != 0.0) {
    std::snprintf(buffer, sizeof buffer, "delta=%+.2f%% window=%.2f%%",
                  100.0 * delta / std::fabs(baseline),
                  100.0 * window / std::fabs(baseline));
  } else {
    std::snprintf(buffer, sizeof buffer, "delta=%s window=%s",
                  perfkit::format_number(delta).c_str(),
                  perfkit::format_number(window).c_str());
  }
  *detail = buffer;
  if (delta == 0.0) return "match";
  if (std::fabs(delta) <= window) return "noise";
  // Exact metrics have no good direction: any out-of-window drift is a
  // regression (a deterministic count that CHANGED is news either way).
  if (spec.direction == Direction::kExact) return "regression";
  const bool good = spec.direction == Direction::kHigher ? delta > 0.0
                                                         : delta < 0.0;
  return good ? "improvement" : "regression";
}

int compare(const std::string& baseline_path, const std::string& current_path,
            const std::string& trajectory_path,
            const std::string& expect_path) {
  JsonValue baseline_doc, current;
  try {
    baseline_doc = perfkit::parse_json_file(baseline_path);
    current = perfkit::parse_json_file(current_path);
  } catch (const std::runtime_error& error) {
    std::cerr << "perfkit_compare: " << error.what() << "\n";
    return 2;
  }

  const auto format = perfkit::as_number(baseline_doc.find("perfkit_baseline"));
  if (!format || *format != kBaselineFormatVersion) {
    std::cerr << "perfkit_compare: " << baseline_path
              << " is not a perfkit_baseline v" << kBaselineFormatVersion
              << " file\n";
    return 2;
  }
  const JsonValue* bench_value = baseline_doc.find("bench");
  const std::string bench =
      bench_value && bench_value->kind == JsonValue::Kind::kString
          ? bench_value->string
          : "unknown";

  // Schema handshake: a bench whose JSON shape changed must be re-blessed,
  // not silently compared across shapes.
  const auto baseline_schema =
      perfkit::as_number(baseline_doc.find("schema_version"));
  const JsonValue* manifest = current.find("manifest");
  const auto current_schema = perfkit::as_number(
      manifest ? manifest->find("schema_version") : nullptr);
  if (!baseline_schema || !current_schema) {
    std::cerr << "perfkit_compare: missing schema_version (baseline "
              << (baseline_schema ? "ok" : "missing") << ", current manifest "
              << (current_schema ? "ok" : "missing") << ")\n";
    return 2;
  }
  if (*baseline_schema != *current_schema) {
    std::cerr << "perfkit_compare: schema mismatch for '" << bench
              << "': baseline v" << perfkit::format_number(*baseline_schema)
              << " vs current v" << perfkit::format_number(*current_schema)
              << " — re-bless bench/baselines/" << bench << ".json\n";
    return 2;
  }

  const JsonValue* metrics = baseline_doc.find("metrics");
  if (metrics == nullptr || metrics->kind != JsonValue::Kind::kArray ||
      metrics->array.empty()) {
    std::cerr << "perfkit_compare: " << baseline_path
              << " declares no metrics\n";
    return 2;
  }

  std::vector<Comparison> rows;
  for (const JsonValue& entry : metrics->array) {
    MetricSpec spec{};
    const JsonValue* name = entry.find("name");
    const JsonValue* pointer = entry.find("pointer");
    const JsonValue* direction = entry.find("direction");
    const auto tolerance = perfkit::as_number(entry.find("tolerance"));
    const auto abs_tolerance = perfkit::as_number(entry.find("abs_tolerance"));
    const auto gate = perfkit::as_number(entry.find("gate"));
    const auto base_value = perfkit::as_number(entry.find("baseline"));
    if (name == nullptr || name->kind != JsonValue::Kind::kString ||
        pointer == nullptr || pointer->kind != JsonValue::Kind::kString ||
        direction == nullptr ||
        direction->kind != JsonValue::Kind::kString || !tolerance ||
        !abs_tolerance || !gate || !base_value) {
      std::cerr << "perfkit_compare: malformed metric entry in "
                << baseline_path << "\n";
      return 2;
    }
    if (direction->string == "higher") spec.direction = Direction::kHigher;
    else if (direction->string == "lower") spec.direction = Direction::kLower;
    else if (direction->string == "exact") spec.direction = Direction::kExact;
    else {
      std::cerr << "perfkit_compare: metric " << name->string
                << " has unknown direction '" << direction->string << "'\n";
      return 2;
    }
    spec.tolerance = *tolerance;
    spec.abs_tolerance = *abs_tolerance;

    const auto current_value =
        perfkit::as_number(perfkit::resolve_pointer(current, pointer->string));
    if (!current_value) {
      std::cerr << "perfkit_compare: metric " << name->string << " ("
                << pointer->string << ") is missing or non-numeric in the "
                << "current run of '" << bench << "' — bench output shape "
                << "changed without a schema_version bump?\n";
      return 2;
    }

    Comparison row;
    row.name = name->string;
    row.baseline = *base_value;
    row.current = *current_value;
    row.gate = *gate != 0.0;
    row.status = classify(spec, row.baseline, row.current, &row.detail);
    rows.push_back(std::move(row));
  }

  // ------------------------------------------------------------- reporting
  // No absolute paths in the report: goldens under tools/perfkit/testdata
  // compare this byte-for-byte across checkouts.
  const JsonValue* blessed_sha = baseline_doc.find("blessed_git_sha");
  std::vector<std::string> report;
  report.push_back(
      "perfkit_compare: bench '" + bench + "' current " +
      manifest_string(current, "git_sha") + " vs baseline blessed at " +
      (blessed_sha && blessed_sha->kind == JsonValue::Kind::kString
           ? blessed_sha->string
           : "unknown"));
  std::size_t gated = 0, regressions = 0, improvements = 0;
  for (const Comparison& row : rows) {
    if (row.gate) ++gated;
    if (row.status == "regression" && row.gate) ++regressions;
    if (row.status == "improvement") ++improvements;
    char line[256];
    std::snprintf(line, sizeof line,
                  "  [%-11s] %-7s %-38s baseline=%s current=%s %s",
                  row.status.c_str(), row.gate ? "gated" : "tracked",
                  row.name.c_str(), perfkit::format_number(row.baseline).c_str(),
                  perfkit::format_number(row.current).c_str(),
                  row.detail.c_str());
    report.push_back(line);
  }
  char summary[160];
  std::snprintf(summary, sizeof summary,
                "summary: %zu metrics (%zu gated): %zu regression, "
                "%zu improvement",
                rows.size(), gated, regressions, improvements);
  report.push_back(summary);
  if (regressions > 0) {
    for (const Comparison& row : rows)
      if (row.gate && row.status == "regression")
        report.push_back("perfkit_compare: REGRESSION in '" + bench +
                         "': " + row.name + " (baseline " +
                         perfkit::format_number(row.baseline) + ", current " +
                         perfkit::format_number(row.current) + ", " +
                         row.detail + ")");
  } else if (improvements > 0) {
    report.push_back("perfkit_compare: improvements held out of the gate — "
                     "consider re-blessing bench/baselines/" + bench +
                     ".json");
  }

  // ------------------------------------------------------------ trajectory
  // One self-contained JSONL row per comparison: history accumulates across
  // CI runs (uploaded as an artifact) without any server-side state.
  if (!trajectory_path.empty()) {
    std::ofstream trajectory(trajectory_path, std::ios::app);
    if (!trajectory) {
      std::cerr << "perfkit_compare: cannot append to " << trajectory_path
                << "\n";
      return 2;
    }
    trajectory << "{\"perfkit_trajectory\": 1, \"bench\": \"" << bench
               << "\", \"schema_version\": "
               << perfkit::format_number(*current_schema)
               << ", \"current_git_sha\": \""
               << manifest_string(current, "git_sha")
               << "\", \"result\": \""
               << (regressions > 0 ? "regression" : "pass")
               << "\", \"metrics\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Comparison& row = rows[i];
      trajectory << (i > 0 ? ", " : "") << "{\"name\": \"" << row.name
                 << "\", \"baseline\": " << perfkit::format_number(row.baseline)
                 << ", \"current\": " << perfkit::format_number(row.current)
                 << ", \"gate\": " << (row.gate ? "true" : "false")
                 << ", \"status\": \"" << row.status << "\"}";
    }
    trajectory << "]}\n";
  }

  // ---------------------------------------------------------------- golden
  if (!expect_path.empty()) {
    std::vector<std::string> expected;
    std::ifstream golden(expect_path);
    if (!golden) {
      std::cerr << "perfkit_compare: cannot read golden file " << expect_path
                << "\n";
      return 2;
    }
    for (std::string line; std::getline(golden, line);) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty() || line[0] == '#') continue;
      expected.push_back(line);
    }
    // Under --expect the exit status reports the GOLDEN verdict only (the
    // regression exit contract has its own plain-mode WILL_FAIL test):
    // conflating the two would make "golden matched a regression report"
    // indistinguishable from "golden did not match".
    if (report == expected) {
      std::printf("perfkit_compare: golden self-test passed (%zu lines, %s)\n",
                  report.size(), regressions > 0 ? "regression" : "clean");
      return 0;
    }
    std::cerr << "perfkit_compare: golden mismatch\n--- expected\n";
    for (const auto& line : expected) std::cerr << line << "\n";
    std::cerr << "--- actual\n";
    for (const auto& line : report) std::cerr << line << "\n";
    return 1;
  }

  for (const std::string& line : report) std::printf("%s\n", line.c_str());
  return regressions > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool bless_mode = false;
  std::string out_path, trajectory_path, expect_path;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bless") {
      bless_mode = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--trajectory" && i + 1 < argc) {
      trajectory_path = argv[++i];
    } else if (arg == "--expect" && i + 1 < argc) {
      expect_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "perfkit_compare: unknown option " << arg << "\n";
      return 2;
    } else {
      positional.push_back(arg);
    }
  }

  if (bless_mode) {
    if (out_path.empty() || positional.size() != 1) {
      std::cerr << "usage: perfkit_compare --bless --out BASELINE.json "
                   "CURRENT.json\n";
      return 2;
    }
    return bless(out_path, positional[0]);
  }
  if (positional.size() != 2) {
    std::cerr << "usage: perfkit_compare [--trajectory FILE.jsonl] "
                 "[--expect GOLDEN.txt] BASELINE.json CURRENT.json\n"
                 "       perfkit_compare --bless --out BASELINE.json "
                 "CURRENT.json\n";
    return 2;
  }
  return compare(positional[0], positional[1], trajectory_path, expect_path);
}
