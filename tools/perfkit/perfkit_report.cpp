// perfkit_report — span-attribution digest over an RLCSIM_TRACE file.
//
// Answers "where did the time go" from the command line, without loading
// Perfetto: parses the Chrome-trace JSON the obs layer writes (complete
// "X" events, one tid per pool shard), rebuilds the per-thread span nesting
// from intervals, and prints a per-span-name table of
//   calls      how many spans carried this name
//   total      wall time inside spans of this name (children included)
//   self       total minus time inside DIRECT child spans (the attribution
//              answer: self sums to the covered wall, nothing double-counts)
// plus the fraction of the traced wall covered by any span at all — an
// honesty figure: a trace whose spans cover 60% of the wall is attributing
// a minority of the run, and the table should be read accordingly.
//
// With --metrics BENCH_*.json (the bench's own JSON, which embeds the
// metrics snapshot) it also derives the rates the obs counters were built
// for: factorizations/sec, steal ratio, cache hit rates.
//
// Modes / exit status:
//   perfkit_report TRACE.json [--metrics BENCH.json] [--top N]
//                  [--min-coverage PCT] [--expect GOLDEN.txt]
// 0 on success, 1 when --min-coverage is not met (or golden mismatch),
// 2 on usage/parse errors. Same single-file ground rules as tools/lint.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "perfkit_json.h"

namespace {

using perfkit::JsonValue;

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  long tid = 0;
};

struct NameStats {
  std::size_t calls = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

// Sum of the union of [start, end) intervals — the "covered wall" figure.
double union_us(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0, cursor = -1.0;
  for (const auto& [start, end] : intervals) {
    const double from = std::max(start, cursor);
    if (end > from) covered += end - from;
    cursor = std::max(cursor, end);
  }
  return covered;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path, metrics_path, expect_path;
  std::size_t top_n = 20;
  double min_coverage_pct = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--top" && i + 1 < argc) {
      top_n = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--min-coverage" && i + 1 < argc) {
      min_coverage_pct = std::strtod(argv[++i], nullptr);
    } else if (arg == "--expect" && i + 1 < argc) {
      expect_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "perfkit_report: unknown option " << arg << "\n";
      return 2;
    } else if (trace_path.empty()) {
      trace_path = arg;
    } else {
      std::cerr << "perfkit_report: unexpected argument " << arg << "\n";
      return 2;
    }
  }
  if (trace_path.empty()) {
    std::cerr << "usage: perfkit_report TRACE.json [--metrics BENCH.json] "
                 "[--top N] [--min-coverage PCT] [--expect GOLDEN.txt]\n";
    return 2;
  }

  JsonValue trace;
  try {
    trace = perfkit::parse_json_file(trace_path);
  } catch (const std::runtime_error& error) {
    std::cerr << "perfkit_report: " << error.what() << "\n";
    return 2;
  }
  const JsonValue* events = trace.find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    std::cerr << "perfkit_report: " << trace_path
              << " has no traceEvents array (not a Chrome trace?)\n";
    return 2;
  }

  std::vector<Span> spans;
  for (const JsonValue& event : events->array) {
    const JsonValue* ph = event.find("ph");
    if (ph == nullptr || ph->kind != JsonValue::Kind::kString ||
        ph->string != "X")
      continue;  // the obs layer only writes complete events; skip others
    const JsonValue* name = event.find("name");
    const auto ts = perfkit::as_number(event.find("ts"));
    const auto dur = perfkit::as_number(event.find("dur"));
    const auto tid = perfkit::as_number(event.find("tid"));
    if (name == nullptr || name->kind != JsonValue::Kind::kString || !ts ||
        !dur)
      continue;
    spans.push_back({name->string, *ts, *ts + *dur,
                     static_cast<long>(tid.value_or(0.0))});
  }
  if (spans.empty()) {
    std::cerr << "perfkit_report: " << trace_path
              << " contains no complete (ph=X) span events\n";
    return 2;
  }

  // Traced wall: first span start to last span end, across all threads.
  double wall_start = spans.front().start_us, wall_end = spans.front().end_us;
  std::vector<std::pair<double, double>> all_intervals;
  for (const Span& span : spans) {
    wall_start = std::min(wall_start, span.start_us);
    wall_end = std::max(wall_end, span.end_us);
    all_intervals.emplace_back(span.start_us, span.end_us);
  }
  const double wall_us = std::max(wall_end - wall_start, 1e-9);
  const double covered_us = union_us(std::move(all_intervals));
  const double coverage_pct = 100.0 * covered_us / wall_us;

  // Per-thread nesting reconstruction: sort (start asc, dur desc) so a
  // parent precedes its children, then a simple interval stack attributes
  // each span's direct-child time. Map key = name, aggregated across tids.
  std::map<long, std::vector<Span>> by_tid;
  for (const Span& span : spans) by_tid[span.tid].push_back(span);
  std::map<std::string, NameStats> stats;
  for (auto& [tid, thread_spans] : by_tid) {
    (void)tid;
    std::sort(thread_spans.begin(), thread_spans.end(),
              [](const Span& a, const Span& b) {
                if (a.start_us != b.start_us) return a.start_us < b.start_us;
                return (a.end_us - a.start_us) > (b.end_us - b.start_us);
              });
    struct Open { const Span* span; double child_us; };
    std::vector<Open> stack;
    auto close = [&stats, &stack]() {
      const Open top = stack.back();
      stack.pop_back();
      const double dur = top.span->end_us - top.span->start_us;
      NameStats& entry = stats[top.span->name];
      entry.calls += 1;
      entry.total_us += dur;
      entry.self_us += std::max(dur - top.child_us, 0.0);
      if (!stack.empty()) stack.back().child_us += dur;
    };
    for (const Span& span : thread_spans) {
      while (!stack.empty() && span.start_us >= stack.back().span->end_us)
        close();
      stack.push_back({&span, 0.0});
    }
    while (!stack.empty()) close();
  }

  std::vector<std::pair<std::string, NameStats>> rows(stats.begin(),
                                                      stats.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.self_us != b.second.self_us)
      return a.second.self_us > b.second.self_us;
    return a.first < b.first;
  });

  std::vector<std::string> report;
  char line[256];
  std::snprintf(line, sizeof line,
                "perfkit_report: %zu spans on %zu threads, wall %.3f ms, "
                "coverage %.1f%% of wall",
                spans.size(), by_tid.size(), wall_us / 1e3, coverage_pct);
  report.push_back(line);
  std::snprintf(line, sizeof line, "  %-24s %8s %12s %8s %12s %8s", "span",
                "calls", "total ms", "total%", "self ms", "self%");
  report.push_back(line);
  for (std::size_t i = 0; i < rows.size() && i < top_n; ++i) {
    const auto& [name, entry] = rows[i];
    std::snprintf(line, sizeof line,
                  "  %-24s %8zu %12.3f %7.1f%% %12.3f %7.1f%%", name.c_str(),
                  entry.calls, entry.total_us / 1e3,
                  100.0 * entry.total_us / wall_us, entry.self_us / 1e3,
                  100.0 * entry.self_us / wall_us);
    report.push_back(line);
  }
  if (rows.size() > top_n) {
    std::snprintf(line, sizeof line, "  ... %zu more span names (--top %zu)",
                  rows.size() - top_n, top_n);
    report.push_back(line);
  }

  // ------------------------------------------------------- derived rates
  // The counters a rate needs live in the bench JSON's metrics block; the
  // covered wall (not the full wall) is the honest denominator because the
  // counters only tick inside instrumented code.
  if (!metrics_path.empty()) {
    JsonValue bench_doc;
    try {
      bench_doc = perfkit::parse_json_file(metrics_path);
    } catch (const std::runtime_error& error) {
      std::cerr << "perfkit_report: " << error.what() << "\n";
      return 2;
    }
    const JsonValue* counters =
        perfkit::resolve_pointer(bench_doc, "/metrics/counters");
    if (counters == nullptr)
      counters = bench_doc.find("counters");  // bare snapshot also accepted
    if (counters == nullptr) {
      std::cerr << "perfkit_report: " << metrics_path
                << " has neither /metrics/counters nor /counters\n";
      return 2;
    }
    auto counter = [counters](const char* name) {
      return perfkit::as_number(counters->find(name)).value_or(0.0);
    };
    report.push_back("derived rates (counters over covered wall):");
    const double covered_s = covered_us / 1e6;
    // Transient solves are batched solves (W lanes each, W = 1 for a
    // scalar run), so they count as batch.solves; lu.solves covers the
    // direct SparseLu solves (DC, AC, reduction).
    std::snprintf(line, sizeof line,
                  "  lu.numeric/s: %.0f   lu.solves/s: %.0f   "
                  "batch.solves/s: %.0f",
                  counter("lu.numeric") / covered_s,
                  counter("lu.solves") / covered_s,
                  counter("batch.solves") / covered_s);
    report.push_back(line);
    const double tasks = counter("pool.tasks_executed");
    std::snprintf(line, sizeof line,
                  "  steal ratio: %.3f (pool.steals %0.f / "
                  "pool.tasks_executed %.0f)",
                  tasks > 0.0 ? counter("pool.steals") / tasks : 0.0,
                  counter("pool.steals"), tasks);
    report.push_back(line);
    const double lu_dt = counter("cache.lu_dt.hits") + counter("cache.lu_dt.misses");
    const double reuse = counter("reuse.solver_hits") + counter("reuse.solver_misses");
    std::snprintf(line, sizeof line,
                  "  cache.lu_dt hit rate: %.3f   reuse.solver hit rate: %.3f",
                  lu_dt > 0.0 ? counter("cache.lu_dt.hits") / lu_dt : 0.0,
                  reuse > 0.0 ? counter("reuse.solver_hits") / reuse : 0.0);
    report.push_back(line);
  }

  bool coverage_ok = true;
  if (min_coverage_pct > 0.0 && coverage_pct < min_coverage_pct) {
    coverage_ok = false;
    std::snprintf(line, sizeof line,
                  "perfkit_report: coverage %.1f%% below required %.1f%% — "
                  "spans are missing from the hot path",
                  coverage_pct, min_coverage_pct);
    report.push_back(line);
  }

  if (!expect_path.empty()) {
    std::vector<std::string> expected;
    std::ifstream golden(expect_path);
    if (!golden) {
      std::cerr << "perfkit_report: cannot read golden file " << expect_path
                << "\n";
      return 2;
    }
    for (std::string text; std::getline(golden, text);) {
      if (!text.empty() && text.back() == '\r') text.pop_back();
      if (text.empty() || text[0] == '#') continue;
      expected.push_back(text);
    }
    // Golden verdict only (coverage gating has its own plain-mode test).
    if (report == expected) {
      std::printf("perfkit_report: golden self-test passed (%zu lines)\n",
                  report.size());
      return 0;
    }
    std::cerr << "perfkit_report: golden mismatch\n--- expected\n";
    for (const auto& text : expected) std::cerr << text << "\n";
    std::cerr << "--- actual\n";
    for (const auto& text : report) std::cerr << text << "\n";
    return 1;
  }

  for (const std::string& text : report) std::printf("%s\n", text.c_str());
  return coverage_ok ? 0 : 1;
}
