// Clock H-tree workload for the timing-graph engine, with its cascaded
// full-MNA correctness oracle.
//
// The tree is `levels` levels of identical 3-branch stages: a trunk from the
// stage driver to a branch point, then a left and a right arm (a
// sim::WireTree — the per-element topology stamping the graph engine
// needed). Each arm end either drives the next level's buffer (internal
// levels) or a leaf sink load. Per level the wire totals taper by
// `taper`; the RIGHT arm's load is scaled by (1 + sink_imbalance) at EVERY
// level, so the skew between the 2^levels sinks is structurally nonzero —
// the quantity the reduced graph must reproduce against the MNA oracle.
//
// Both paths share every physical choice (driver r0/h, buffer loads h*c0,
// per-level output edges, loads, segment counts); they differ ONLY in the
// evaluation machinery — closed-form reduced stages composed by fire times
// versus one flat transient of the whole tree with behavioral buffers.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/repeater.h"
#include "graph/timing_graph.h"
#include "sim/circuit.h"
#include "tline/rlc.h"

namespace rlcsim::graph {

struct HTreeSpec {
  int levels = 4;               // buffer levels; 2^levels - 1 stages
  tline::LineParams root_line;  // level-0 stage totals (trunk + one arm)
  double taper = 0.5;           // per-level wire-total scaling
  core::MinBuffer buffer;       // minimum repeater (r0, c0)
  double size = 4.0;            // h — every stage driver is h-sized
  double vdd = 1.0;
  double source_rise = 0.0;     // root input edge, s
  int segments_per_branch = 8;  // ladder cells per trunk/arm
  double sink_capacitance = 0.0;  // leaf sink load, F
  double sink_imbalance = 0.1;    // right-arm load excess (fraction)
  int order = 4;                  // AWE reduction order per stage transfer
};

// Throws std::invalid_argument (naming the field) on invalid specs.
void validate(const HTreeSpec& spec);

// Wire totals of one level-`level` stage (root_line tapered), split as
// trunk = arms = half the level totals.
tline::LineParams level_line(const HTreeSpec& spec, int level);

// The level-`level` stage driver's output edge duration: the shared
// 2.2 * (r0/h) * (stage wire cap + both loads) estimate, used identically
// as the graph stage ramp and the MNA buffer output_rise.
double stage_edge(const HTreeSpec& spec, int level);

// The graph form: 2^levels - 1 stage nodes in heap order (stage s's
// children are 2s+1 / 2s+2; fanin output 0 = left arm, 1 = right arm), one
// reduced StageModel per level shared by all stages of that level (one
// mor::ConductanceReuse spans the build). `sinks` lists the 2^levels leaf
// pins left to right.
struct HTreeGraph {
  TimingGraph graph;
  std::vector<int> stage_nodes;  // heap order, size 2^levels - 1
  std::vector<Pin> sinks;        // leaf (node, output) pins, left to right
};
HTreeGraph build_h_tree(const HTreeSpec& spec);

// The oracle form: the whole tree as ONE circuit — step source behind r0/h,
// every stage a stamped WireTree, every internal arm end a behavioral
// switching buffer (threshold vdd/2, output edge stage_edge of its level),
// every leaf an explicit sink cap. `sink_nodes` (non-null) receives the
// leaf node names left to right, aligned with HTreeGraph::sinks.
sim::Circuit build_h_tree_circuit(const HTreeSpec& spec,
                                  std::vector<std::string>* sink_nodes);

// Reduced-graph vs cascaded-MNA comparison over every sink.
struct HTreeComparison {
  std::vector<double> graph_arrival;  // per sink, s
  std::vector<double> mna_arrival;
  std::vector<double> graph_slew;  // 10-90, s
  std::vector<double> mna_slew;
  double graph_skew = 0.0;  // max - min sink arrival
  double mna_skew = 0.0;
  double max_arrival_error = 0.0;  // max per-sink |g - m| / m
  double max_slew_error = 0.0;     // max per-sink |g - m| / m
  // Skew disagreement normalized by the mean MNA arrival (skew itself can
  // be arbitrarily small, so a delay-normalized gate is the robust one).
  double skew_error = 0.0;
  std::size_t stages = 0;
  std::size_t sinks = 0;
  std::size_t threads_used = 0;
};

// Builds both forms, evaluates the graph with `threads`, and probes every
// sink's 10/50/90% crossings on the oracle transient (horizon auto-extended
// until all cross, else it throws naming the sink).
HTreeComparison compare_h_tree(const HTreeSpec& spec, std::size_t threads = 0);

}  // namespace rlcsim::graph
