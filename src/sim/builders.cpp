#include "sim/builders.h"

#include <cmath>
#include <stdexcept>

#include "sim/transient_batch.h"
#include "tline/rc_line.h"

namespace rlcsim::sim {

void add_pi_segment(Circuit& circuit, const std::string& tag,
                    const std::string& near, const std::string& far,
                    double r_seg, double l_seg, double c_half) {
  circuit.add_capacitor(near, "0", c_half, 0.0, tag + ".cn");
  if (l_seg > 0.0) {
    const std::string mid = tag + ".m";
    circuit.add_resistor(near, mid, r_seg, tag + ".r");
    circuit.add_inductor(mid, far, l_seg, 0.0, tag + ".l");
  } else {
    circuit.add_resistor(near, far, r_seg, tag + ".r");
  }
  circuit.add_capacitor(far, "0", c_half, 0.0, tag + ".cf");
}

void add_rlc_ladder(Circuit& circuit, const std::string& prefix, const std::string& in,
                    const std::string& out, const tline::LineParams& line,
                    int segments) {
  if (segments < 1) throw std::invalid_argument("add_rlc_ladder: segments must be >= 1");
  tline::validate_rc(line);
  const double n = static_cast<double>(segments);
  const double r_seg = line.total_resistance / n;
  const double l_seg = line.total_inductance / n;
  const double c_half = line.total_capacitance / (2.0 * n);

  std::string near = in;
  for (int i = 0; i < segments; ++i) {
    const std::string tag = prefix + "." + std::to_string(i);
    const std::string far = (i == segments - 1) ? out : prefix + ".n" + std::to_string(i);
    add_pi_segment(circuit, tag, near, far, r_seg, l_seg, c_half);
    near = far;
  }
}

void validate(const WireTree& tree) {
  if (tree.branches.empty())
    throw std::invalid_argument("WireTree: tree has no branches");
  for (std::size_t k = 0; k < tree.branches.size(); ++k) {
    const WireBranch& branch = tree.branches[k];
    const std::string where = "WireTree: branch " + std::to_string(k);
    if (branch.parent < -1 || branch.parent >= static_cast<int>(k))
      throw std::invalid_argument(where +
                                  ": parent must precede the branch (-1 = root)");
    if (branch.segments < 1)
      throw std::invalid_argument(where + ": segments must be >= 1");
    if (!(branch.sink_capacitance >= 0.0) ||
        !std::isfinite(branch.sink_capacitance))
      throw std::invalid_argument(where + ": sink capacitance must be >= 0");
    tline::validate_rc(branch.line);
  }
}

void add_wire_tree(Circuit& circuit, const std::string& prefix,
                   const std::string& in, const WireTree& tree,
                   std::vector<std::string>* ends) {
  validate(tree);
  std::vector<std::string> far_nodes(tree.branches.size());
  for (std::size_t k = 0; k < tree.branches.size(); ++k) {
    const WireBranch& branch = tree.branches[k];
    const std::string tag = prefix + ".b" + std::to_string(k);
    const std::string& start = branch.parent < 0 ? in : far_nodes[branch.parent];
    const std::string end = tag + ".end";
    add_rlc_ladder(circuit, tag, start, end, branch.line, branch.segments);
    if (branch.sink_capacitance > 0.0)
      circuit.add_capacitor(end, "0", branch.sink_capacitance, 0.0, tag + ".cs");
    far_nodes[k] = end;
  }
  if (ends) *ends = std::move(far_nodes);
}

Circuit build_gate_line_load(const tline::GateLineLoad& system, int segments,
                             double vdd, double source_rise) {
  tline::validate(system);
  Circuit circuit;
  circuit.add_voltage_source("vin", "0", StepSpec{0.0, vdd, 0.0, source_rise}, "vsrc");
  if (system.driver_resistance > 0.0) {
    circuit.add_resistor("vin", "drv", system.driver_resistance, "rtr");
  } else {
    // Zero driver resistance: the ladder hangs directly off the source.
    // A tiny series resistance keeps the topology uniform without affecting
    // the response (1e-6 of the line resistance or 1 micro-ohm).
    const double tiny = std::max(1e-6, 1e-9 * system.line.total_resistance);
    circuit.add_resistor("vin", "drv", tiny, "rtr");
  }
  add_rlc_ladder(circuit, "line", "drv", "out", system.line, segments);
  if (system.load_capacitance > 0.0)
    circuit.add_capacitor("out", "0", system.load_capacitance, 0.0, "cload");
  return circuit;
}

double default_transient_horizon(const tline::GateLineLoad& system) {
  const double elmore = tline::elmore_delay(
      system.driver_resistance, system.line.total_resistance,
      system.line.total_capacitance, system.load_capacitance);
  const double tof = std::sqrt(system.line.total_inductance *
                               (system.line.total_capacitance + system.load_capacitance));
  return 8.0 * std::max(elmore, tof);
}

double simulate_gate_line_delay(const tline::GateLineLoad& system, int segments,
                                double t_stop, double dt, double threshold) {
  const Circuit circuit = build_gate_line_load(system, segments);
  TransientOptions options;
  options.t_stop = (t_stop > 0.0) ? t_stop : default_transient_horizon(system);
  options.dt = dt;
  return first_crossing(circuit, "out", threshold * 1.0, options,
                        "simulate_gate_line_delay");
}

void add_coupled_lines(Circuit& circuit, const std::string& prefix,
                       const std::string& in_a, const std::string& out_a,
                       const std::string& in_b, const std::string& out_b,
                       const CoupledLinesSpec& spec) {
  // A coupled pair IS a 2-line bus: the per-segment coupling coefficient
  // equals Lm/Lt, so inductive_k maps to Lm = k * Lt.
  tline::CoupledBus bus;
  bus.lines = 2;
  bus.line = spec.line;
  bus.coupling_capacitance = spec.coupling_capacitance;
  bus.mutual_inductance = spec.inductive_k * spec.line.total_inductance;
  add_coupled_bus(circuit, prefix, {in_a, in_b}, {out_a, out_b}, bus,
                  spec.segments);
}

Circuit build_crosstalk_pair(const CoupledLinesSpec& spec, double driver_resistance,
                             double load_capacitance, double vdd) {
  if (!(driver_resistance > 0.0))
    throw std::invalid_argument("build_crosstalk_pair: driver resistance must be > 0");
  Circuit circuit;
  circuit.add_voltage_source("agg.vin", "0", StepSpec{0.0, vdd, 0.0, 0.0}, "vagg");
  circuit.add_resistor("agg.vin", "agg.drv", driver_resistance, "agg.rtr");
  // Quiet victim: held low through an identical driver.
  circuit.add_voltage_source("vic.vin", "0", DcSpec{0.0}, "vvic");
  circuit.add_resistor("vic.vin", "vic.drv", driver_resistance, "vic.rtr");

  add_coupled_lines(circuit, "xt", "agg.drv", "agg.out", "vic.drv", "vic.out", spec);

  if (load_capacitance > 0.0) {
    circuit.add_capacitor("agg.out", "0", load_capacitance, 0.0, "agg.cl");
    circuit.add_capacitor("vic.out", "0", load_capacitance, 0.0, "vic.cl");
  }
  return circuit;
}

double simulate_crosstalk_peak(const CoupledLinesSpec& spec,
                               double driver_resistance, double load_capacitance,
                               double t_stop) {
  const Circuit circuit =
      build_crosstalk_pair(spec, driver_resistance, load_capacitance);
  const tline::GateLineLoad one{driver_resistance, spec.line, load_capacitance};
  TransientOptions options;
  options.t_stop = (t_stop > 0.0) ? t_stop : default_transient_horizon(one);
  const Extrema victim =
      measure_transient(circuit, {}, {"vic.out"}, options, "simulate_crosstalk_peak")
          .extrema[0];
  return std::max(std::fabs(victim.max), std::fabs(victim.min));
}

void add_coupled_bus(Circuit& circuit, const std::string& prefix,
                     const std::vector<std::string>& ins,
                     const std::vector<std::string>& outs,
                     const tline::CoupledBus& bus, int segments) {
  tline::validate(bus);
  if (segments < 1)
    throw std::invalid_argument("add_coupled_bus: segments must be >= 1");
  const std::size_t n = static_cast<std::size_t>(bus.lines);
  if (ins.size() != n || outs.size() != n)
    throw std::invalid_argument(
        "add_coupled_bus: ins/outs must have one node per bus line");

  const auto line_prefix = [&](int i) {
    return prefix + ".l" + std::to_string(i);
  };
  for (int i = 0; i < bus.lines; ++i)
    add_rlc_ladder(circuit, line_prefix(i), ins[i], outs[i], bus.line_at(i),
                   segments);

  // The ladder names its far nodes "<prefix>.n<j>", except the final `out`.
  const auto node_of = [&](int i, int j) {
    return (j == segments - 1) ? outs[static_cast<std::size_t>(i)]
                               : line_prefix(i) + ".n" + std::to_string(j);
  };
  // All coupled pairs: adjacent ones always (the nearest-neighbor fast path,
  // with the historical ".p<i>" names), plus every farther pair carried by a
  // full-coupling bus (".p<i>x<j>" names). An ADJACENT pair whose Cc/Lm
  // happen to be exactly 0 still stamps STRUCTURAL elements (explicit zero
  // values, same pattern) — a coupling axis sweeping through 0 must not
  // fork the sparsity pattern and silently re-run the symbolic
  // factorization mid-sweep. Entirely-zero FAR pairs are never stamped: no
  // sweep axis varies them (nearest-neighbor buses have none by
  // construction, and a full-coupling bus whose far entries are all 0 stays
  // bit-identical to its nearest-neighbor equivalent).
  for (int i = 0; i < bus.lines; ++i) {
    for (int far = i + 1; far < bus.lines; ++far) {
      const double cc = bus.coupling_cc(i, far);
      const double lm = bus.coupling_lm(i, far);
      if (cc <= 0.0 && lm <= 0.0 && far > i + 1) continue;
      const std::string pair =
          far == i + 1 ? prefix + ".p" + std::to_string(i)
                       : prefix + ".p" + std::to_string(i) + "x" + std::to_string(far);
      const double cc_seg = cc / segments;
      // Per-segment coupling coefficient of the pair: (Lm/K)/sqrt(Li/K * Lj/K)
      // — the 1/K cancels, so k is segment-count independent. A 0/0 pair
      // (zero Lm over inductor-less lines) is simply uncoupled, not NaN.
      const bool inductive = bus.line_at(i).total_inductance > 0.0 &&
                             bus.line_at(far).total_inductance > 0.0;
      const double k = lm > 0.0 || inductive
                           ? lm / std::sqrt(bus.line_at(i).total_inductance *
                                            bus.line_at(far).total_inductance)
                           : 0.0;
      for (int j = 0; j < segments; ++j) {
        circuit.add_structural_capacitor(node_of(i, j), node_of(far, j),
                                         cc_seg, 0.0,
                                         pair + ".cc" + std::to_string(j));
        // A structural mutual needs its two segment inductors to exist —
        // add_rlc_ladder only creates them for inductive lines.
        if (k > 0.0 || inductive) {
          const std::string tag = "." + std::to_string(j) + ".l";
          circuit.add_mutual(line_prefix(i) + tag, line_prefix(far) + tag, k,
                             pair + ".k" + std::to_string(j));
        }
      }
    }
  }
}

Circuit build_coupled_bus(const tline::CoupledBus& bus,
                          const std::vector<BusDrive>& drives,
                          double driver_resistance, double load_capacitance,
                          int segments, double vdd, double source_rise) {
  if (!(driver_resistance > 0.0))
    throw std::invalid_argument("build_coupled_bus: driver resistance must be > 0");
  if (load_capacitance < 0.0)
    throw std::invalid_argument("build_coupled_bus: load capacitance must be >= 0");
  if (!(source_rise >= 0.0) || !std::isfinite(source_rise))
    throw std::invalid_argument("build_coupled_bus: source rise must be >= 0");
  if (drives.size() != static_cast<std::size_t>(bus.lines))
    throw std::invalid_argument("build_coupled_bus: one drive per bus line");

  Circuit circuit;
  std::vector<std::string> ins, outs;
  for (int i = 0; i < bus.lines; ++i) {
    const std::string tag = "line" + std::to_string(i);
    const BusDrive drive = drives[static_cast<std::size_t>(i)];
    SourceSpec spec;
    switch (drive) {
      case BusDrive::kQuietLow: spec = DcSpec{0.0}; break;
      case BusDrive::kQuietHigh: spec = DcSpec{vdd}; break;
      case BusDrive::kRising: spec = StepSpec{0.0, vdd, 0.0, source_rise}; break;
      case BusDrive::kFalling: spec = StepSpec{vdd, 0.0, 0.0, source_rise}; break;
      case BusDrive::kShieldGrounded: spec = DcSpec{0.0}; break;
    }
    circuit.add_voltage_source(tag + ".in", "0", spec, tag + ".v");
    circuit.add_resistor(tag + ".in", tag + ".drv", driver_resistance,
                         tag + ".rtr");
    ins.push_back(tag + ".drv");
    outs.push_back(tag + ".out");
    if (drive == BusDrive::kShieldGrounded) {
      // Dual-ended grounding: a shield has no receiver; its far end ties to
      // ground through the same resistance instead of loading a gate.
      circuit.add_resistor(tag + ".out", "0", driver_resistance, tag + ".tie");
    } else if (load_capacitance > 0.0) {
      circuit.add_capacitor(tag + ".out", "0", load_capacitance, 0.0,
                            tag + ".cl");
    }
  }
  add_coupled_bus(circuit, "bus", ins, outs, bus, segments);
  return circuit;
}

Circuit build_repeater_chain(const RepeaterChainSpec& spec) {
  tline::validate_rc(spec.line);
  if (spec.sections < 1)
    throw std::invalid_argument("build_repeater_chain: sections must be >= 1");
  if (!(spec.size > 0.0))
    throw std::invalid_argument("build_repeater_chain: size h must be > 0");
  if (!(spec.r0 > 0.0 && spec.c0 > 0.0))
    throw std::invalid_argument("build_repeater_chain: r0 and c0 must be > 0");

  const tline::LineParams section = spec.line.section(spec.sections);
  const double rtr = spec.r0 / spec.size;
  const double cin = spec.c0 * spec.size;

  Circuit circuit;
  // Stage 1: ideal step behind the buffer output resistance.
  circuit.add_voltage_source("vin", "0", StepSpec{0.0, spec.vdd, 0.0, 0.0}, "vsrc");
  circuit.add_resistor("vin", "stage1.drv", rtr, "stage1.rtr");
  add_rlc_ladder(circuit, "stage1", "stage1.drv", "stage1.out", section,
                 spec.segments_per_section);

  for (int i = 2; i <= spec.sections; ++i) {
    const std::string prev_out = "stage" + std::to_string(i - 1) + ".out";
    const std::string tag = "stage" + std::to_string(i);
    circuit.add_buffer(prev_out, tag + ".drv", rtr, cin, spec.vdd, 0.5, tag + ".buf");
    add_rlc_ladder(circuit, tag, tag + ".drv", tag + ".out", section,
                   spec.segments_per_section);
  }

  // The final section drives the input capacitance of the next logic stage.
  const std::string last_out = "stage" + std::to_string(spec.sections) + ".out";
  circuit.add_capacitor(last_out, "0", cin, 0.0, "cload");
  return circuit;
}

double simulate_repeater_chain_delay(const RepeaterChainSpec& spec, double t_stop,
                                     double dt) {
  const Circuit circuit = build_repeater_chain(spec);
  const std::string last_out = "stage" + std::to_string(spec.sections) + ".out";

  // Horizon estimate: k times a generous single-section bound.
  const tline::LineParams section = spec.line.section(spec.sections);
  const tline::GateLineLoad one{spec.r0 / spec.size, section, spec.c0 * spec.size};
  const double elmore = tline::elmore_delay(
      one.driver_resistance, section.total_resistance, section.total_capacitance,
      one.load_capacitance);
  const double tof = std::sqrt(section.total_inductance *
                               (section.total_capacitance + one.load_capacitance));
  TransientOptions options;
  options.t_stop =
      (t_stop > 0.0) ? t_stop : 10.0 * spec.sections * std::max(elmore, tof);
  options.dt = dt;
  return first_crossing(circuit, last_out, 0.5 * spec.vdd, options,
                        "simulate_repeater_chain_delay");
}

}  // namespace rlcsim::sim
