// Timing-graph engine gates + scaling. Emits one JSON document; the EXIT
// STATUS is the CI gate (0 = pass, 1 = a gate failed, 2 = usage error):
//
//   1. DETERMINISM — evaluating the same graph at 1/2/3 threads returns
//      BIT-IDENTICAL results (every arrival, slew and noise compared as raw
//      bytes). The levelized parallel evaluation owns no shared mutable
//      state, so this is exact, not a tolerance.
//   2. H-TREE ACCURACY — per-sink arrival and slew of a >= 15-stage clock
//      H-tree (structurally imbalanced, so skew is nonzero) within 3% of
//      the cascaded full-MNA oracle, and the skew disagreement within 3% of
//      the mean sink arrival.
//
// Plus nodes/sec scaling of a deep synthetic fanout tree per thread count.
//
// Usage: graph_scaling [--fast] [--threads a,b,c]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "graph/h_tree.h"
#include "graph/timing_graph.h"

using namespace rlcsim;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

bool identical_graph(const graph::GraphResult& a,
                     const graph::GraphResult& b) {
  if (a.nodes.size() != b.nodes.size()) return false;
  for (std::size_t k = 0; k < a.nodes.size(); ++k) {
    const graph::NodeMetrics& m = a.nodes[k];
    const graph::NodeMetrics& n = b.nodes[k];
    if (!bits_equal(m.arrival, n.arrival) ||
        !bits_equal(m.peak_noise, n.peak_noise) ||
        m.slew.size() != n.slew.size())
      return false;
    for (std::size_t s = 0; s < m.slew.size(); ++s) {
      if (m.slew[s].has_value() != n.slew[s].has_value()) return false;
      if (m.slew[s] && !bits_equal(*m.slew[s], *n.slew[s])) return false;
    }
  }
  return true;
}

graph::HTreeSpec tree_spec(bool fast) {
  graph::HTreeSpec spec;
  spec.levels = fast ? 4 : 5;  // 15 / 31 stages
  spec.root_line = {150.0, 5e-10, 3e-13};
  spec.taper = 0.6;
  spec.buffer = {3000.0, 5e-15, 1.0, 0.0};
  spec.size = 32.0;
  spec.source_rise = 2e-11;
  spec.segments_per_branch = fast ? 6 : 8;
  spec.sink_capacitance = 2e-14;
  spec.sink_imbalance = 0.15;
  spec.order = 4;
  return spec;
}

bool gate(const char* name, double value, double limit, bool* pass,
          bool last) {
  const bool ok = value <= limit;
  if (!ok) *pass = false;
  std::printf("    {\"gate\": \"%s\", \"value\": %.4f, \"limit\": %.4f, "
              "\"pass\": %s}%s\n",
              name, value, limit, ok ? "true" : "false", last ? "" : ",");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  std::vector<std::size_t> threads = {1, 2, 3};
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--fast") == 0) {
        fast = true;
      } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
        threads = benchutil::parse_thread_list(argv[++i]);
      } else {
        std::fprintf(stderr, "graph_scaling: unknown argument \"%s\"\n",
                     argv[i]);
        return 2;
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "graph_scaling: %s\n", error.what());
    return 2;
  }

  bool pass = true;
  std::printf("{\n");
  benchutil::manifest_json_block("graph_scaling");
  std::printf("  \"bench\": \"graph_scaling\",\n");
  std::printf("  \"fast\": %s,\n", fast ? "true" : "false");

  // ------------------------------------- 2. H-tree vs cascaded-MNA oracle
  const graph::HTreeSpec tree = tree_spec(fast);
  const graph::HTreeComparison compare = graph::compare_h_tree(tree);
  std::printf("  \"h_tree\": {\"levels\": %d, \"stages\": %zu, \"sinks\": "
              "%zu,\n",
              tree.levels, compare.stages, compare.sinks);
  std::printf("    \"graph_skew_ps\": %.3f, \"mna_skew_ps\": %.3f,\n",
              compare.graph_skew * 1e12, compare.mna_skew * 1e12);
  std::printf("    \"max_arrival_err_pct\": %.3f, \"max_slew_err_pct\": "
              "%.3f, \"skew_err_pct\": %.3f},\n",
              100.0 * compare.max_arrival_error,
              100.0 * compare.max_slew_error, 100.0 * compare.skew_error);

  // -------------------------- 1. determinism + nodes/sec thread scaling
  // Scaling workload: the H-tree graph (wide levels) evaluated repeatedly.
  graph::HTreeGraph scaling_tree = graph::build_h_tree(tree);
  std::vector<graph::GraphResult> per_thread;
  std::printf("  \"scaling\": [\n");
  double base_pps = 0.0;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    const int repeats = fast ? 3 : 10;
    double best = 1e300;
    graph::GraphResult result;
    for (int r = 0; r < repeats; ++r) {
      const double t0 = now_seconds();
      result = scaling_tree.graph.evaluate(threads[i]);
      best = std::min(best, now_seconds() - t0);
    }
    const double nps =
        static_cast<double>(result.nodes.size()) / std::max(best, 1e-12);
    if (i == 0) base_pps = nps;
    std::printf("    {\"threads\": %zu, \"seconds\": %.6f, "
                "\"nodes_per_second\": %.0f, \"speedup_vs_first\": %.2f}%s\n",
                threads[i], best, nps, base_pps > 0.0 ? nps / base_pps : 1.0,
                i + 1 == threads.size() ? "" : ",");
    per_thread.push_back(std::move(result));
  }
  std::printf("  ],\n");
  bool deterministic = true;
  for (std::size_t i = 1; i < per_thread.size(); ++i)
    deterministic =
        deterministic && identical_graph(per_thread[0], per_thread[i]);
  if (!deterministic) pass = false;
  std::printf("  \"determinism\": {\"bit_identical_across_threads\": %s},\n",
              deterministic ? "true" : "false");

  // ----------------------------------------------------------------- gates
  std::printf("  \"gates\": [\n");
  gate("h_tree_max_arrival_err_pct", 100.0 * compare.max_arrival_error, 3.0,
       &pass, false);
  gate("h_tree_max_slew_err_pct", 100.0 * compare.max_slew_error, 3.0, &pass,
       false);
  gate("h_tree_skew_err_pct", 100.0 * compare.skew_error, 3.0, &pass, false);
  // Boolean gates framed as 0/1 ratios so `value <= limit` reads uniformly.
  gate("thread_determinism_failures", deterministic ? 0.0 : 1.0, 0.0, &pass,
       true);
  std::printf("  ],\n");
  benchutil::metrics_json_block();
  std::printf("  \"pass\": %s\n}\n", pass ? "true" : "false");
  return pass ? 0 : 1;
}
