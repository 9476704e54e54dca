#include "graph/h_tree.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "sim/builders.h"
#include "sim/transient_batch.h"

namespace rlcsim::graph {

void validate(const HTreeSpec& spec) {
  if (spec.levels < 1)
    throw std::invalid_argument("HTreeSpec: levels must be >= 1");
  if (spec.levels > 12)
    throw std::invalid_argument("HTreeSpec: levels > 12 (4095+ stages) is not a workload");
  tline::validate_rc(spec.root_line);
  if (!(spec.taper > 0.0) || !std::isfinite(spec.taper))
    throw std::invalid_argument("HTreeSpec: taper must be finite and > 0");
  core::validate(spec.buffer);
  if (!(spec.size > 0.0))
    throw std::invalid_argument("HTreeSpec: size must be > 0");
  if (!(spec.vdd > 0.0))
    throw std::invalid_argument("HTreeSpec: vdd must be > 0");
  if (!(spec.source_rise >= 0.0) || !std::isfinite(spec.source_rise))
    throw std::invalid_argument("HTreeSpec: source_rise must be finite and >= 0");
  if (spec.segments_per_branch < 1)
    throw std::invalid_argument("HTreeSpec: segments_per_branch must be >= 1");
  if (!(spec.sink_capacitance >= 0.0) || !std::isfinite(spec.sink_capacitance))
    throw std::invalid_argument("HTreeSpec: sink_capacitance must be finite and >= 0");
  if (!(spec.sink_imbalance >= 0.0) || !std::isfinite(spec.sink_imbalance))
    throw std::invalid_argument("HTreeSpec: sink_imbalance must be finite and >= 0");
  if (spec.order < 1)
    throw std::invalid_argument("HTreeSpec: order must be >= 1");
}

tline::LineParams level_line(const HTreeSpec& spec, int level) {
  const double factor = std::pow(spec.taper, level);
  tline::LineParams line = spec.root_line;
  line.total_resistance *= factor;
  line.total_inductance *= factor;
  line.total_capacitance *= factor;
  return line;
}

namespace {

// (left, right) loads hanging off a level's arm ends: the next level's
// buffer inputs, or the leaf sink caps, right side scaled by the imbalance.
struct ArmLoads {
  double left = 0.0;
  double right = 0.0;
};

ArmLoads arm_loads(const HTreeSpec& spec, int level) {
  const bool leaf = level == spec.levels - 1;
  const double base =
      leaf ? spec.sink_capacitance : spec.size * spec.buffer.c0;
  return {base, base * (1.0 + spec.sink_imbalance)};
}

// The stage's 3-branch wire tree; `with_loads` stamps the arm loads as sink
// caps (the reduced stage circuit), the MNA form stamps them itself (buffer
// input caps plus the explicit imbalance cap).
sim::WireTree stage_tree(const HTreeSpec& spec, int level, bool with_loads) {
  const tline::LineParams half = level_line(spec, level).section(2);
  const ArmLoads loads = arm_loads(spec, level);
  sim::WireTree tree;
  tree.branches.push_back({-1, half, spec.segments_per_branch, 0.0});
  tree.branches.push_back(
      {0, half, spec.segments_per_branch, with_loads ? loads.left : 0.0});
  tree.branches.push_back(
      {0, half, spec.segments_per_branch, with_loads ? loads.right : 0.0});
  return tree;
}

int level_of_stage(int stage) {
  int level = 0;
  while ((2 << level) - 1 <= stage) ++level;
  return level;
}

}  // namespace

double stage_edge(const HTreeSpec& spec, int level) {
  const tline::LineParams half = level_line(spec, level).section(2);
  const ArmLoads loads = arm_loads(spec, level);
  const double wire_cap = 3.0 * half.total_capacitance;  // trunk + both arms
  return 2.2 * (spec.buffer.r0 / spec.size) *
         (wire_cap + loads.left + loads.right);
}

HTreeGraph build_h_tree(const HTreeSpec& spec) {
  validate(spec);
  const double r_drv = spec.buffer.r0 / spec.size;

  // One reduced model per level, one symbolic factorization for all of them
  // (every level's stage circuit has the same topology).
  mor::ConductanceReuse reuse;
  std::vector<StageModel> models;
  models.reserve(spec.levels);
  for (int level = 0; level < spec.levels; ++level) {
    sim::Circuit circuit;
    circuit.add_voltage_source("in", "0", sim::DcSpec{0.0}, "vin");
    circuit.add_resistor("in", "drv", r_drv, "rdrv");
    std::vector<std::string> ends;
    sim::add_wire_tree(circuit, "t", "drv",
                       stage_tree(spec, level, /*with_loads=*/true), &ends);
    const tline::LineParams half = level_line(spec, level).section(2);
    const double max_delay = 2.0 * half.time_of_flight();
    models.push_back(reduce_stage(circuit, {ends[1], ends[2]}, spec.order,
                                  max_delay, &reuse));
  }

  HTreeGraph tree;
  const int stages = (1 << spec.levels) - 1;
  tree.stage_nodes.reserve(stages);
  for (int stage = 0; stage < stages; ++stage) {
    const int level = level_of_stage(stage);
    StageNode node;
    node.model = models[static_cast<std::size_t>(level)];
    if (stage == 0) {
      node.fanin = {-1, 0};
      node.ramp = spec.source_rise;
    } else {
      const int parent = (stage - 1) / 2;
      node.fanin = {tree.stage_nodes[static_cast<std::size_t>(parent)],
                    stage == 2 * parent + 1 ? 0 : 1};
      node.ramp = stage_edge(spec, level);
    }
    node.pre = 0.0;
    node.post = spec.vdd;
    tree.stage_nodes.push_back(tree.graph.add_stage(std::move(node)));
  }
  const int first_leaf = (1 << (spec.levels - 1)) - 1;
  for (int stage = first_leaf; stage < stages; ++stage) {
    const int node = tree.stage_nodes[static_cast<std::size_t>(stage)];
    tree.sinks.push_back({node, 0});
    tree.sinks.push_back({node, 1});
  }
  return tree;
}

sim::Circuit build_h_tree_circuit(const HTreeSpec& spec,
                                  std::vector<std::string>* sink_nodes) {
  validate(spec);
  const double r_drv = spec.buffer.r0 / spec.size;
  const double c_in = spec.size * spec.buffer.c0;
  const int stages = (1 << spec.levels) - 1;

  sim::Circuit circuit;
  circuit.add_voltage_source(
      "vin", "0", sim::StepSpec{0.0, spec.vdd, 0.0, spec.source_rise}, "vin");
  circuit.add_resistor("vin", "s0.drv", r_drv, "rdrv0");
  if (sink_nodes) sink_nodes->clear();

  for (int stage = 0; stage < stages; ++stage) {
    const int level = level_of_stage(stage);
    const bool leaf = level == spec.levels - 1;
    const std::string prefix = "s" + std::to_string(stage);
    std::vector<std::string> ends;
    sim::add_wire_tree(circuit, prefix, prefix + ".drv",
                       stage_tree(spec, level, /*with_loads=*/false), &ends);
    const ArmLoads loads = arm_loads(spec, level);
    for (int side = 0; side < 2; ++side) {
      const std::string& arm = ends[static_cast<std::size_t>(1 + side)];
      if (leaf) {
        const double sink = side == 0 ? loads.left : loads.right;
        if (sink > 0.0)
          circuit.add_capacitor(arm, "0", sink, 0.0,
                                prefix + ".sink" + std::to_string(side));
        if (sink_nodes) sink_nodes->push_back(arm);
      } else {
        const int child = 2 * stage + 1 + side;
        const std::string child_drv =
            "s" + std::to_string(child) + ".drv";
        // The buffer stamps the base h*c0 input load; the right arm's
        // imbalance excess is an explicit extra cap so both sides present
        // exactly the loads the reduced stage model was built with.
        circuit.add_switching_buffer(arm, child_drv, r_drv, c_in, +1, 0.0,
                                     spec.vdd, stage_edge(spec, level + 1),
                                     spec.vdd, 0.5,
                                     prefix + ".buf" + std::to_string(side));
        if (side == 1 && spec.sink_imbalance > 0.0)
          circuit.add_capacitor(arm, "0", loads.right - loads.left, 0.0,
                                prefix + ".imb");
      }
    }
  }
  return circuit;
}

HTreeComparison compare_h_tree(const HTreeSpec& spec, std::size_t threads) {
  HTreeGraph tree = build_h_tree(spec);
  const GraphResult graph = tree.graph.evaluate(threads);

  HTreeComparison out;
  out.stages = tree.stage_nodes.size();
  out.sinks = tree.sinks.size();
  out.threads_used = graph.threads_used;
  for (const Pin& sink : tree.sinks) {
    const NodeMetrics& metrics =
        graph.nodes[static_cast<std::size_t>(sink.node)];
    out.graph_arrival.push_back(
        metrics.arrival[static_cast<std::size_t>(sink.output)]);
    const auto& slew = metrics.slew[static_cast<std::size_t>(sink.output)];
    if (!slew)
      throw std::runtime_error(
          "compare_h_tree: a sink response never bracketed the 10-90 band");
    out.graph_slew.push_back(*slew);
  }

  std::vector<std::string> sink_nodes;
  const sim::Circuit circuit = build_h_tree_circuit(spec, &sink_nodes);

  // Horizon: a per-level RC + time-of-flight bound summed over the root-to-
  // sink path, with headroom; extended x4 until every sink crosses 10/50/90%.
  double horizon = spec.source_rise;
  for (int level = 0; level < spec.levels; ++level) {
    const tline::LineParams line = level_line(spec, level);
    horizon += 4.0 * ((spec.buffer.r0 / spec.size) *
                          (1.5 * line.total_capacitance +
                           spec.size * spec.buffer.c0) +
                      line.rc_time() + line.time_of_flight()) +
               stage_edge(spec, level);
  }
  sim::TransientOptions options;
  options.t_stop = horizon;
  std::vector<sim::CrossingProbe> probes;
  for (const std::string& node : sink_nodes)
    for (const double fraction : {0.1, 0.5, 0.9})
      probes.push_back({node, fraction * spec.vdd});
  const std::vector<double> crossings =
      sim::measure_transient(circuit, probes, {}, options, "compare_h_tree").crossings;
  for (std::size_t s = 0; s < sink_nodes.size(); ++s) {
    out.mna_arrival.push_back(crossings[3 * s + 1]);
    out.mna_slew.push_back(crossings[3 * s + 2] - crossings[3 * s]);
  }

  const auto span = [](const std::vector<double>& v) {
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    return *hi - *lo;
  };
  out.graph_skew = span(out.graph_arrival);
  out.mna_skew = span(out.mna_arrival);
  double mean_mna = 0.0;
  for (std::size_t s = 0; s < out.sinks; ++s) {
    mean_mna += out.mna_arrival[s];
    out.max_arrival_error = std::max(
        out.max_arrival_error,
        std::abs(out.graph_arrival[s] - out.mna_arrival[s]) /
            out.mna_arrival[s]);
    out.max_slew_error =
        std::max(out.max_slew_error,
                 std::abs(out.graph_slew[s] - out.mna_slew[s]) / out.mna_slew[s]);
  }
  mean_mna /= static_cast<double>(out.sinks);
  out.skew_error = std::abs(out.graph_skew - out.mna_skew) / mean_mna;
  return out;
}

}  // namespace rlcsim::graph
