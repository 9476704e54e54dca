#include "repbus/bus_chain.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/builders.h"
#include "sim/transient_batch.h"
#include "tline/rc_line.h"

namespace rlcsim::repbus {
namespace {

// Driver boundaries of one line on the global S = k * m segment grid.
// Uniform/interleaved lines: {0, m, 2m, ..., (k-1)m}. Staggered alternate
// lines: {0, m/2, m/2 + m, ..., m/2 + (k-2)m} — the classic half-stage
// offset with the SAME k drivers (half-length first section, 1.5-length
// last), so every placement costs equal repeater area.
std::vector<int> driver_boundaries(const RepeaterBusSpec& spec, int line,
                                   int victim) {
  const int m = spec.segments_per_section;
  std::vector<int> boundaries{0};
  if (spec.placement == Placement::kStaggered && is_alternate_line(line, victim)) {
    for (int j = 0; j + 1 < spec.sections; ++j)
      boundaries.push_back(m / 2 + j * m);
  } else {
    for (int j = 1; j < spec.sections; ++j) boundaries.push_back(j * m);
  }
  return boundaries;
}

}  // namespace

DriveLevels drive_levels(sim::BusDrive drive, double vdd) {
  switch (drive) {
    case sim::BusDrive::kRising: return {0.0, vdd};
    case sim::BusDrive::kFalling: return {vdd, 0.0};
    case sim::BusDrive::kQuietHigh: return {vdd, vdd};
    case sim::BusDrive::kQuietLow:
    case sim::BusDrive::kShieldGrounded: return {0.0, 0.0};
  }
  return {0.0, 0.0};
}

const char* placement_name(Placement placement) {
  switch (placement) {
    case Placement::kUniform: return "uniform";
    case Placement::kStaggered: return "staggered";
    case Placement::kInterleaved: return "interleaved";
  }
  return "unknown";
}

double resolved_buffer_rise(const RepeaterBusSpec& spec) {
  if (spec.buffer_rise >= 0.0) return spec.buffer_rise;
  // Auto default: the 10-90 edge of the repeater's output resistance
  // driving its OWN stage load — the wire section plus the next repeater's
  // input. (Not just 2.2*r0*c0: the wire term dominates for realistic
  // stages, and an unrealistically sharp edge would understate the edge-
  // overlap effects placement comparisons hinge on.)
  const double r_out = spec.buffer.r0 / spec.size;
  const double c_stage =
      spec.bus.line_at(spec.bus.victim_index()).total_capacitance /
          static_cast<double>(spec.sections) +
      spec.buffer.c0 * spec.size;
  return 2.2 * r_out * c_stage;
}

bool is_alternate_line(int line, int victim) {
  return std::abs(line - victim) % 2 == 1;
}

void validate(const RepeaterBusSpec& spec) {
  tline::validate(spec.bus);
  core::validate(spec.buffer);
  if (spec.sections < 1)
    throw std::invalid_argument("RepeaterBusSpec: sections must be >= 1");
  if (spec.placement == Placement::kStaggered && spec.sections < 2)
    throw std::invalid_argument(
        "RepeaterBusSpec: staggered placement needs sections >= 2 (a single "
        "stage has no boundary to offset)");
  if (!(spec.size > 0.0) || !std::isfinite(spec.size))
    throw std::invalid_argument("RepeaterBusSpec: size h must be > 0");
  if (spec.segments_per_section < 1)
    throw std::invalid_argument(
        "RepeaterBusSpec: segments_per_section must be >= 1");
  if (spec.placement == Placement::kStaggered && spec.segments_per_section % 2 != 0)
    throw std::invalid_argument(
        "RepeaterBusSpec: staggered placement needs an even "
        "segments_per_section (half-stage boundaries must land on the "
        "segment grid)");
  if (!(spec.vdd > 0.0))
    throw std::invalid_argument("RepeaterBusSpec: vdd must be > 0");
  if (!(spec.source_rise >= 0.0) || !std::isfinite(spec.source_rise))
    throw std::invalid_argument("RepeaterBusSpec: source_rise must be >= 0");
  if (spec.buffer_rise >= 0.0 && !std::isfinite(spec.buffer_rise))
    throw std::invalid_argument("RepeaterBusSpec: buffer_rise must be finite");
  if (spec.shield_every < 0)
    throw std::invalid_argument("RepeaterBusSpec: shield_every must be >= 0");
}

int repeaters_on_line(const RepeaterBusSpec& spec, int line) {
  const int victim = spec.bus.victim_index();
  if (core::is_shield_line(line, victim, spec.shield_every)) return 0;
  // Staggered lines shift their k drivers by half a stage (half-length
  // first section, 1.5-length last) but keep the same driver COUNT, so
  // placement comparisons are equal-area by construction.
  return spec.sections;
}

double repeater_area(const RepeaterBusSpec& spec) {
  double total = 0.0;
  for (int i = 0; i < spec.bus.lines; ++i)
    total += static_cast<double>(repeaters_on_line(spec, i));
  return total * spec.size * spec.buffer.area;
}

BusChainCircuit build_bus_chain(const RepeaterBusSpec& spec,
                                core::SwitchingPattern pattern) {
  validate(spec);
  const tline::CoupledBus& bus = spec.bus;
  const int victim = bus.victim_index();
  const int m = spec.segments_per_section;
  const int total_segments = spec.sections * m;
  const double rtr = spec.buffer.r0 / spec.size;
  const double cin = spec.buffer.c0 * spec.size;
  const double buffer_edge = resolved_buffer_rise(spec);
  const std::vector<sim::BusDrive> drives =
      core::pattern_drives(bus.lines, victim, pattern, spec.shield_every);

  BusChainCircuit chain;
  chain.victim = victim;
  sim::Circuit& circuit = chain.circuit;

  // Wire node at grid position g of line i: the driver-output node at
  // position 0, "l<i>.n<g>" everywhere else (at an interior boundary this is
  // the buffer INPUT — the upstream wire's end; the buffer output "l<i>.d<g>"
  // starts the next section).
  const auto line_tag = [](int i) { return "l" + std::to_string(i); };
  const auto wire_node = [&](int i, int g) {
    return g == 0 ? line_tag(i) + ".d0"
                  : line_tag(i) + ".n" + std::to_string(g);
  };
  const auto driver_node = [&](int i, int g) {
    return line_tag(i) + ".d" + std::to_string(g);
  };

  for (int i = 0; i < bus.lines; ++i) {
    const std::string tag = line_tag(i);
    const sim::BusDrive drive = drives[static_cast<std::size_t>(i)];
    const bool shield = drive == sim::BusDrive::kShieldGrounded;
    const bool alternate = is_alternate_line(i, victim);
    const bool inverting =
        spec.placement == Placement::kInterleaved && alternate && !shield;

    // ---- external driver -------------------------------------------------
    // The stage-1 driver is itself an h-sized repeater: an ideal source
    // (carrying the FIRST DRIVER's output waveform — inverted on inverting
    // lines) behind r0/h, exactly like build_repeater_chain's stage 1.
    DriveLevels level = drive_levels(drive, spec.vdd);
    int polarity = +1;
    if (inverting) {
      level = {spec.vdd - level.pre, spec.vdd - level.post};
      polarity = -polarity;
    }
    if (level.pre == level.post)
      circuit.add_voltage_source(tag + ".in", "0", sim::DcSpec{level.pre},
                                 tag + ".v");
    else
      circuit.add_voltage_source(
          tag + ".in", "0",
          sim::StepSpec{level.pre, level.post, 0.0, spec.source_rise},
          tag + ".v");
    circuit.add_resistor(tag + ".in", driver_node(i, 0), rtr, tag + ".rtr");

    // ---- ladder segments -------------------------------------------------
    const tline::LineParams& totals = bus.line_at(i);
    const double n = static_cast<double>(total_segments);
    const double r_seg = totals.total_resistance / n;
    const double l_seg = totals.total_inductance / n;
    const double c_half = totals.total_capacitance / (2.0 * n);
    // Shields run continuous: their only "boundary" is the near-end tie.
    const std::vector<int> boundaries =
        shield ? std::vector<int>{0} : driver_boundaries(spec, i, victim);
    const auto is_boundary = [&](int g) {
      return std::find(boundaries.begin(), boundaries.end(), g) !=
             boundaries.end();
    };
    for (int g = 0; g < total_segments; ++g) {
      const std::string seg = tag + ".s" + std::to_string(g);
      const std::string near =
          is_boundary(g) ? driver_node(i, g) : wire_node(i, g);
      const std::string far = wire_node(i, g + 1);
      circuit.add_capacitor(near, "0", c_half, 0.0, seg + ".cn");
      circuit.add_resistor(near, seg + ".m", r_seg, seg + ".r");
      circuit.add_inductor(seg + ".m", far, l_seg, 0.0, seg + ".l");
      circuit.add_capacitor(far, "0", c_half, 0.0, seg + ".cf");
    }

    // ---- repeaters (walking the DC level chain) --------------------------
    // Each buffer's fire direction and output levels follow from the wire's
    // pre-/post-transition levels at its input. A quiet line's buffers are
    // armed toward the opposite rail: crosstalk noise past threshold fires
    // them — the physical glitch-propagation hazard, not an artifact.
    DriveLevels wire = level;  // stage-1 wire levels (= first driver's output)
    for (std::size_t b = 1; b < boundaries.size(); ++b) {
      const int g = boundaries[b];
      const bool switching = wire.pre != wire.post;
      const int direction =
          switching ? (wire.post > wire.pre ? +1 : -1)
                    : (wire.pre < 0.5 * spec.vdd ? +1 : -1);
      const double in_post_effective =
          switching ? wire.post : spec.vdd - wire.pre;
      const double out_pre = inverting ? spec.vdd - wire.pre : wire.pre;
      const double out_post =
          inverting ? spec.vdd - in_post_effective : in_post_effective;
      circuit.add_switching_buffer(wire_node(i, g), driver_node(i, g), rtr, cin,
                                   direction, out_pre, out_post, buffer_edge,
                                   spec.vdd, 0.5,
                                   tag + ".buf" + std::to_string(g));
      chain.buffer_info.push_back({i, static_cast<int>(b), !switching});
      if (inverting) polarity = -polarity;
      wire = {out_pre, switching ? out_post : out_pre};
    }

    // ---- far end ---------------------------------------------------------
    const std::string receiver = wire_node(i, total_segments);
    if (shield) {
      // Continuous shield: grounded through r0/h at both ends and stitched
      // at every uniform stage boundary (standard shield practice; also what
      // the per-stage composed model's dual-ended stage ties approximate).
      circuit.add_resistor(receiver, "0", rtr, tag + ".tie");
      for (int j = 1; j < spec.sections; ++j)
        circuit.add_resistor(wire_node(i, j * m), "0", rtr,
                             tag + ".tie" + std::to_string(j));
    } else {
      circuit.add_capacitor(receiver, "0", cin, 0.0, tag + ".cl");
    }
    chain.receiver_nodes.push_back(receiver);
    chain.far_polarity.push_back(polarity);
  }

  // ---- coupling ----------------------------------------------------------
  // Cc/S between corresponding grid nodes (positions 1..S — at a repeater
  // boundary the upstream wire end carries the coupling, consistent with
  // add_coupled_bus) and per-segment mutual inductors, for every coupled
  // pair (adjacent on nearest-neighbor buses, all pairs on full-coupling
  // ones).
  for (int i = 0; i < bus.lines; ++i) {
    for (int j = i + 1; j < bus.lines; ++j) {
      const double cc = bus.coupling_cc(i, j);
      const double lm = bus.coupling_lm(i, j);
      if (cc <= 0.0 && lm <= 0.0) continue;
      const std::string pair =
          "bus.p" + std::to_string(i) + "x" + std::to_string(j);
      const double cc_seg = cc / static_cast<double>(total_segments);
      const double k_mutual =
          lm / std::sqrt(bus.line_at(i).total_inductance *
                         bus.line_at(j).total_inductance);
      for (int g = 0; g < total_segments; ++g) {
        if (cc_seg > 0.0)
          circuit.add_capacitor(wire_node(i, g + 1), wire_node(j, g + 1),
                                cc_seg, 0.0, pair + ".cc" + std::to_string(g));
        if (k_mutual > 0.0) {
          const std::string tag = ".s" + std::to_string(g) + ".l";
          circuit.add_mutual(line_tag(i) + tag, line_tag(j) + tag, k_mutual,
                             pair + ".k" + std::to_string(g));
        }
      }
    }
  }
  return chain;
}

ChainMetrics simulate_bus_chain(const RepeaterBusSpec& spec,
                                core::SwitchingPattern pattern, double t_stop,
                                double dt, sim::SolverReuse* reuse) {
  const BusChainCircuit chain = build_bus_chain(spec, pattern);
  const int victim = chain.victim;
  const std::string& node =
      chain.receiver_nodes[static_cast<std::size_t>(victim)];
  const bool victim_switches = pattern != core::SwitchingPattern::kQuietVictim;

  // Horizon: k times a generous per-section bound, with the coupled
  // capacitance Miller-doubled (the slow corner the horizon must contain).
  const tline::LineParams section =
      spec.bus.line_at(victim).section(spec.sections);
  double cc_total = 0.0;
  for (int j = 0; j < spec.bus.lines; ++j)
    if (j != victim) cc_total += spec.bus.coupling_cc(victim, j);
  const double c_section =
      section.total_capacitance +
      2.0 * cc_total / static_cast<double>(spec.sections);
  const double rtr = spec.buffer.r0 / spec.size;
  const double cin = spec.buffer.c0 * spec.size;
  const double elmore = tline::elmore_delay(rtr, section.total_resistance,
                                            c_section, cin);
  const double tof =
      std::sqrt(section.total_inductance * (c_section + cin));
  sim::TransientOptions transient;
  transient.t_stop =
      t_stop > 0.0 ? t_stop
                   : 12.0 * spec.sections * std::max(elmore, tof) +
                         spec.source_rise +
                         spec.sections * resolved_buffer_rise(spec);
  transient.dt = dt;
  transient.reuse = reuse;

  std::vector<sim::CrossingProbe> crossing;
  if (victim_switches) crossing.push_back({node, 0.5 * spec.vdd});
  const sim::TransientMeasurement measured = sim::measure_transient(
      chain.circuit, crossing, {node}, transient, "simulate_bus_chain");
  ChainMetrics metrics;
  if (victim_switches) metrics.victim_delay_50 = measured.crossings[0];
  const double hi = victim_switches ? spec.vdd : 0.0;
  metrics.peak_noise =
      std::max({0.0, -measured.extrema[0].min, measured.extrema[0].max - hi});

  // Glitch scan: every fired quiet-armed repeater (finite fire time) is a
  // coupled-noise spike that crossed threshold and now drives a full swing
  // downstream. Report the deepest-propagating line's fired boundaries.
  std::vector<std::vector<int>> fired_per_line(
      static_cast<std::size_t>(spec.bus.lines));
  for (std::size_t k = 0; k < chain.buffer_info.size(); ++k) {
    const ChainBufferInfo& info = chain.buffer_info[k];
    if (info.quiet_armed && std::isfinite(measured.buffer_fire_times[k]))
      fired_per_line[static_cast<std::size_t>(info.line)].push_back(
          info.boundary);
  }
  for (auto& fired : fired_per_line) {
    if (fired.empty()) continue;
    metrics.glitch_fired = true;
    std::sort(fired.begin(), fired.end());
    if (static_cast<int>(fired.size()) > metrics.glitch_depth) {
      metrics.glitch_depth = static_cast<int>(fired.size());
      metrics.glitch_boundaries = fired;
    }
  }
  return metrics;
}

}  // namespace rlcsim::repbus
