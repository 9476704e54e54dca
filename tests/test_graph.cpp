// Timing-graph engine (src/graph/): wire-tree stamping, construction
// validation, H-tree skew/slew against the cascaded full-MNA oracle, and
// thread-count determinism of the levelized parallel evaluation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "graph/h_tree.h"
#include "graph/timing_graph.h"
#include "sim/builders.h"
#include "sim/transient.h"

namespace {

using namespace rlcsim;

const core::MinBuffer kBuf{3000.0, 5e-15, 1.0, 0.0};

graph::HTreeSpec tree_spec() {
  graph::HTreeSpec spec;
  spec.levels = 4;  // 15 stages, 16 sinks
  spec.root_line = {150.0, 5e-10, 3e-13};
  spec.taper = 0.6;
  spec.buffer = kBuf;
  spec.size = 32.0;
  spec.source_rise = 2e-11;
  spec.segments_per_branch = 5;
  spec.sink_capacitance = 2e-14;
  spec.sink_imbalance = 0.15;
  spec.order = 4;
  return spec;
}

// ---------------------------------------------------------------------------
// Wire-tree stamping (the per-element topology refactor under the graph)
// ---------------------------------------------------------------------------

TEST(WireTree, SingleBranchMatchesLadder) {
  // A one-branch tree IS a ladder: same element stamping order, same values,
  // so the transient responses agree to the last bit.
  const tline::LineParams line{300.0, 2e-9, 4e-13};
  auto build = [&](bool as_tree) {
    sim::Circuit circuit;
    circuit.add_voltage_source("in", "0", sim::StepSpec{0.0, 1.0, 0.0, 0.0},
                               "v");
    circuit.add_resistor("in", "drv", 150.0, "r");
    if (as_tree) {
      sim::WireTree tree;
      tree.branches.push_back({-1, line, 8, 3e-14});
      std::vector<std::string> ends;
      sim::add_wire_tree(circuit, "w", "drv", tree, &ends);
      return std::make_pair(circuit, ends[0]);
    }
    sim::add_rlc_ladder(circuit, "w.b0", "drv", "w.b0.end", line, 8);
    circuit.add_capacitor("w.b0.end", "0", 3e-14, 0.0, "w.b0.cs");
    return std::make_pair(circuit, std::string("w.b0.end"));
  };
  const auto [ladder, ladder_end] = build(false);
  const auto [tree, tree_end] = build(true);
  sim::TransientOptions options;
  options.t_stop = 5e-9;
  const auto a = sim::run_transient(ladder, options);
  const auto b = sim::run_transient(tree, options);
  const sim::Trace ta = a.waveforms.trace(ladder_end);
  const sim::Trace tb = b.waveforms.trace(tree_end);
  const auto& va = ta.value();
  const auto& vb = tb.value();
  ASSERT_EQ(va.size(), vb.size());
  EXPECT_EQ(std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)), 0);
}

TEST(WireTree, BranchPointSplitsTheResponse) {
  // A 3-branch Y: both arm ends settle to vdd, and the (identical) arms
  // agree with each other exactly while lagging the branch point.
  const tline::LineParams line{200.0, 1e-9, 2e-13};
  sim::Circuit circuit;
  circuit.add_voltage_source("in", "0", sim::StepSpec{0.0, 1.0, 0.0, 0.0}, "v");
  circuit.add_resistor("in", "drv", 100.0, "r");
  sim::WireTree tree;
  tree.branches.push_back({-1, line, 6, 0.0});
  tree.branches.push_back({0, line, 6, 2e-14});
  tree.branches.push_back({0, line, 6, 2e-14});
  std::vector<std::string> ends;
  sim::add_wire_tree(circuit, "y", "drv", tree, &ends);
  ASSERT_EQ(ends.size(), 3u);
  sim::TransientOptions options;
  options.t_stop = 10e-9;
  const auto result = sim::run_transient(circuit, options);
  const auto trunk = result.waveforms.trace(ends[0]);
  const auto left = result.waveforms.trace(ends[1]);
  const auto right = result.waveforms.trace(ends[2]);
  EXPECT_NEAR(left.final_value(), 1.0, 1e-3);
  const double t_trunk = *trunk.crossing(0.5, 0.0, +1);
  const double t_left = *left.crossing(0.5, 0.0, +1);
  EXPECT_GT(t_left, t_trunk);
  // Symmetric arms agree to solver precision (row order differs per branch).
  EXPECT_NEAR(t_left, *right.crossing(0.5, 0.0, +1), 1e-6 * t_left);
}

TEST(WireTree, ValidationRejectsBadTrees) {
  const tline::LineParams line{100.0, 0.0, 1e-13};
  sim::WireTree tree;
  EXPECT_THROW(sim::validate(tree), std::invalid_argument);  // empty
  tree.branches.push_back({0, line, 4, 0.0});  // parent must precede: self
  EXPECT_THROW(sim::validate(tree), std::invalid_argument);
  tree.branches[0].parent = -1;
  EXPECT_NO_THROW(sim::validate(tree));
  tree.branches.push_back({2, line, 4, 0.0});  // forward reference
  EXPECT_THROW(sim::validate(tree), std::invalid_argument);
  tree.branches[1].parent = 0;
  tree.branches[1].segments = 0;
  EXPECT_THROW(sim::validate(tree), std::invalid_argument);
  tree.branches[1].segments = 4;
  tree.branches[1].sink_capacitance = -1e-15;
  EXPECT_THROW(sim::validate(tree), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Graph construction validation
// ---------------------------------------------------------------------------

graph::StageModel tiny_stage_model() {
  sim::Circuit circuit;
  circuit.add_voltage_source("in", "0", sim::DcSpec{0.0}, "v");
  circuit.add_resistor("in", "drv", 100.0, "r");
  sim::add_rlc_ladder(circuit, "w", "drv", "out", {200.0, 1e-9, 2e-13}, 6);
  return graph::reduce_stage(circuit, {"out"}, 3, 1e-10);
}

TEST(TimingGraph, DagByConstructionRejectsForwardFanin) {
  graph::TimingGraph g;
  graph::StageNode node;
  node.model = tiny_stage_model();
  node.fanin = {0, 0};  // no node 0 yet: cycles are unrepresentable
  EXPECT_THROW(g.add_stage(node), std::invalid_argument);
  node.fanin = {-1, 0};
  const int first = g.add_stage(node);
  EXPECT_EQ(first, 0);
  node.fanin = {0, 1};  // node 0 has a single output
  EXPECT_THROW(g.add_stage(node), std::invalid_argument);
  node.fanin = {0, 0};
  EXPECT_EQ(g.add_stage(node), 1);
  node.pre = node.post = 0.5;  // a non-transition is not a stage
  EXPECT_THROW(g.add_stage(node), std::invalid_argument);
}

TEST(TimingGraph, ReduceStageRejectsNonSingleDriverCircuits) {
  sim::Circuit circuit;
  circuit.add_voltage_source("in", "0", sim::DcSpec{0.0}, "v");
  circuit.add_resistor("in", "out", 100.0, "r");
  circuit.add_capacitor("out", "0", 1e-13, 0.0, "c");
  EXPECT_NO_THROW(graph::reduce_stage(circuit, {"out"}, 2, 0.0));
  EXPECT_THROW(graph::reduce_stage(circuit, {"out"}, 0, 0.0),
               std::invalid_argument);
  sim::Circuit buffered = circuit;
  buffered.add_buffer("out", "b", 100.0, 1e-15, 1.0, 0.5, "buf");
  EXPECT_THROW(graph::reduce_stage(buffered, {"out"}, 2, 0.0),
               std::invalid_argument);
  circuit.add_voltage_source("in2", "0", sim::DcSpec{0.0}, "v2");
  circuit.add_resistor("in2", "out", 100.0, "r2");
  EXPECT_THROW(graph::reduce_stage(circuit, {"out"}, 2, 0.0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// H-tree: reduced graph vs cascaded-MNA oracle, and determinism
// ---------------------------------------------------------------------------

TEST(HTree, SkewAndSlewWithinThreePercentOfMnaOracle) {
  const graph::HTreeComparison compare = graph::compare_h_tree(tree_spec());
  EXPECT_EQ(compare.stages, 15u);
  EXPECT_EQ(compare.sinks, 16u);
  // The imbalanced right-arm loads make the skew structurally nonzero.
  EXPECT_GT(compare.mna_skew, 0.0);
  EXPECT_LT(compare.max_arrival_error, 0.03);
  EXPECT_LT(compare.max_slew_error, 0.03);
  EXPECT_LT(compare.skew_error, 0.03);
}

TEST(HTree, EvaluationBitIdenticalAcrossThreadCounts) {
  const graph::HTreeGraph tree = graph::build_h_tree(tree_spec());
  const graph::GraphResult one = tree.graph.evaluate(1);
  EXPECT_EQ(one.threads_used, 1u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{3}}) {
    const graph::GraphResult many = tree.graph.evaluate(threads);
    ASSERT_EQ(many.nodes.size(), one.nodes.size());
    for (std::size_t k = 0; k < one.nodes.size(); ++k) {
      const auto& a = one.nodes[k];
      const auto& b = many.nodes[k];
      ASSERT_EQ(a.arrival.size(), b.arrival.size());
      EXPECT_EQ(std::memcmp(a.arrival.data(), b.arrival.data(),
                            a.arrival.size() * sizeof(double)),
                0);
      EXPECT_EQ(a.peak_noise, b.peak_noise);
      for (std::size_t s = 0; s < a.slew.size(); ++s) {
        ASSERT_EQ(a.slew[s].has_value(), b.slew[s].has_value());
        if (a.slew[s]) {
          EXPECT_EQ(*a.slew[s], *b.slew[s]);
        }
      }
    }
  }
}

TEST(HTree, FireTimesAccumulateDownTheLevels) {
  // Every child's sink arrival strictly exceeds its parent's (fire-time
  // semantics: the child's ramp STARTS at the parent's 50% crossing).
  const graph::HTreeGraph tree = graph::build_h_tree(tree_spec());
  const graph::GraphResult result = tree.graph.evaluate();
  for (std::size_t stage = 1; stage < tree.stage_nodes.size(); ++stage) {
    const std::size_t parent = (stage - 1) / 2;
    const auto& p = result.nodes[static_cast<std::size_t>(
        tree.stage_nodes[parent])];
    const auto& c =
        result.nodes[static_cast<std::size_t>(tree.stage_nodes[stage])];
    const double parent_arrival =
        p.arrival[stage == 2 * parent + 1 ? 0 : 1];
    EXPECT_GT(c.arrival[0], parent_arrival);
    EXPECT_GT(c.arrival[1], parent_arrival);
  }
  // The imbalanced right arm is always the later one within a stage.
  for (const int node : tree.stage_nodes) {
    const auto& metrics = result.nodes[static_cast<std::size_t>(node)];
    EXPECT_GT(metrics.arrival[1], metrics.arrival[0]);
  }
}

}  // namespace
