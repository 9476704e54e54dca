#include "core/crosstalk.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <variant>
#include <vector>

#include "core/two_pole.h"
#include "mor/response.h"
#include "sim/transient_batch.h"

namespace rlcsim::core {
namespace {

// One driver's waveform decoded EXACTLY into a sum of linear edges, read
// from the BUILT circuit's actual source spec — the single source of truth
// shared with the transient path, so the two analyses of the identical
// circuit can never desynchronize if build_coupled_bus's drive table (or a
// drive override) changes. Every piecewise-linear finite spec kind maps
// losslessly: a step is one edge, a finite pulse is its leading edge plus
// the opposite-sign trailing edge, and an N-point PWL is one edge per
// value-changing segment. Shapes with NO finite linear-edge superposition —
// periodic pulse trains — and malformed PWL time axes throw instead of
// being silently collapsed to a single ramp (a trailing edge dropped here
// used to vanish from the reduced metrics without a trace).
struct DriveEdge {
  double delta = 0.0;  // voltage moved by this edge
  double rise = 0.0;   // linear edge duration (0 = ideal step)
  double start = 0.0;  // absolute onset time, >= 0
};
struct DriveDecode {
  double initial = 0.0;  // level just before the first edge
  std::vector<DriveEdge> edges;  // in onset order
};
DriveDecode decode_drive(const sim::SourceSpec& spec) {
  if (const auto* dc = std::get_if<sim::DcSpec>(&spec)) return {dc->value, {}};
  if (const auto* step = std::get_if<sim::StepSpec>(&spec)) {
    if (step->delay < 0.0)
      throw std::invalid_argument(
          "analyze_crosstalk_reduced: step delay must be >= 0");
    DriveDecode d{step->v0, {}};
    if (step->v1 != step->v0)
      d.edges.push_back({step->v1 - step->v0, step->rise, step->delay});
    return d;
  }
  if (const auto* pulse = std::get_if<sim::PulseSpec>(&spec)) {
    if (pulse->delay < 0.0)
      throw std::invalid_argument(
          "analyze_crosstalk_reduced: pulse delay must be >= 0");
    if (pulse->period > 0.0)
      throw std::invalid_argument(
          "analyze_crosstalk_reduced: periodic pulse trains have no finite "
          "edge superposition; use the transient path");
    DriveDecode d{pulse->v0, {}};
    const double swing = pulse->v1 - pulse->v0;
    if (swing != 0.0) {
      d.edges.push_back({swing, pulse->rise, pulse->delay});
      d.edges.push_back({-swing, pulse->fall,
                         pulse->delay + pulse->rise + pulse->width});
    }
    return d;
  }
  const auto& pwl = std::get<sim::PwlSpec>(spec);
  if (pwl.points.empty()) return {0.0, {}};
  DriveDecode d{pwl.points.front().second, {}};
  if (pwl.points.front().first < 0.0)
    throw std::invalid_argument(
        "analyze_crosstalk_reduced: PWL times must be >= 0");
  for (std::size_t i = 1; i < pwl.points.size(); ++i) {
    const auto& [t0, v0] = pwl.points[i - 1];
    const auto& [t1, v1] = pwl.points[i];
    if (!(t1 > t0))
      throw std::invalid_argument(
          "analyze_crosstalk_reduced: PWL times must be strictly increasing");
    if (v1 != v0) d.edges.push_back({v1 - v0, t1 - t0, t0});
  }
  return d;
}

// The push-out reference shared by the transient and reduced paths:
// absent ONLY in the documented degenerate-damping corner where the
// two-pole bracket does not exist in double precision (any other
// root-finder failure still propagates), so the two paths can never drift
// in what "reference unavailable" means.
std::optional<double> isolated_two_pole_delay(const tline::GateLineLoad& isolated) {
  try {
    return TwoPoleModel(isolated).threshold_delay(0.5);
  } catch (const BracketError&) {
    return std::nullopt;
  }
}

void validate_options(const tline::CoupledBus& bus,
                      const CrosstalkOptions& options, const char* context) {
  tline::validate(bus);
  if (!(options.driver_resistance > 0.0))
    throw std::invalid_argument(std::string(context) +
                                ": driver_resistance must be > 0");
  if (!(options.vdd > 0.0))
    throw std::invalid_argument(std::string(context) + ": vdd must be > 0");
  if (options.shield_every < 0)
    throw std::invalid_argument(std::string(context) +
                                ": shield_every must be >= 0");
  if (!options.drive_overrides.empty() &&
      options.drive_overrides.size() != static_cast<std::size_t>(bus.lines))
    throw std::invalid_argument(
        std::string(context) +
        ": drive_overrides must be empty or have one entry per line");
}

// The canonical pattern circuit, with any drive overrides swapped in. Both
// analysis paths (transient and reduced) go through here, so an override
// can never reach one path and not the other.
sim::Circuit build_pattern_bus(const tline::CoupledBus& bus,
                               SwitchingPattern pattern,
                               const CrosstalkOptions& options) {
  sim::Circuit circuit = sim::build_coupled_bus(
      bus,
      pattern_drives(bus.lines, bus.victim_index(), pattern,
                     options.shield_every),
      options.driver_resistance, options.load_capacitance, options.segments,
      options.vdd, options.source_rise);
  for (std::size_t i = 0; i < options.drive_overrides.size(); ++i)
    if (options.drive_overrides[i])
      circuit.set_voltage_source_spec(i, *options.drive_overrides[i]);
  return circuit;
}

// A switching victim's delay fields from its 50% crossing and the push-out
// reference, shared by all three analyses.
CrosstalkDelay delay_fields(double crossing, std::optional<double> reference) {
  CrosstalkDelay delay;
  delay.victim_delay_50 = crossing;
  delay.isolated_delay_two_pole = reference;
  if (reference) delay.delay_pushout = crossing - *reference;
  return delay;
}

// One pattern transient as analyze_crosstalk and analyze_crosstalk_delay
// step it: the pattern circuit, its victim node, the isolated victim line
// (the push-out reference) and the transient options with the horizon
// rule applied.
struct PatternTransient {
  tline::GateLineLoad isolated;
  sim::Circuit circuit;
  std::string victim_node;
  sim::TransientOptions transient;
};

PatternTransient pattern_transient(const tline::CoupledBus& bus,
                                   SwitchingPattern pattern,
                                   const CrosstalkOptions& options) {
  validate_options(bus, options, "analyze_crosstalk");
  const int victim_line = bus.victim_index();
  PatternTransient run{{options.driver_resistance, bus.line_at(victim_line),
                        options.load_capacitance},
                       build_pattern_bus(bus, pattern, options),
                       "line" + std::to_string(victim_line) + ".out",
                       {}};
  run.transient.t_stop = options.t_stop > 0.0
                             ? options.t_stop
                             : sim::default_transient_horizon(run.isolated);
  run.transient.dt = options.dt;
  run.transient.reuse = options.reuse;
  return run;
}

}  // namespace

bool is_shield_line(int line, int victim, int shield_every) {
  if (shield_every < 1 || line == victim) return false;
  return std::abs(line - victim) % shield_every == 0;
}

std::vector<sim::BusDrive> pattern_drives(int lines, int victim,
                                          SwitchingPattern pattern,
                                          int shield_every) {
  std::vector<sim::BusDrive> drives;
  drives.reserve(static_cast<std::size_t>(lines));
  for (int i = 0; i < lines; ++i) {
    if (is_shield_line(i, victim, shield_every)) {
      drives.push_back(sim::BusDrive::kShieldGrounded);
      continue;
    }
    switch (pattern) {
      case SwitchingPattern::kQuietVictim:
        drives.push_back(i == victim ? sim::BusDrive::kQuietLow
                                     : sim::BusDrive::kRising);
        break;
      case SwitchingPattern::kSamePhase:
        drives.push_back(sim::BusDrive::kRising);
        break;
      case SwitchingPattern::kOppositePhase:
        drives.push_back(i == victim ? sim::BusDrive::kRising
                                     : sim::BusDrive::kFalling);
        break;
    }
  }
  return drives;
}

const char* switching_pattern_name(SwitchingPattern pattern) {
  switch (pattern) {
    case SwitchingPattern::kQuietVictim: return "quiet_victim";
    case SwitchingPattern::kSamePhase: return "same_phase";
    case SwitchingPattern::kOppositePhase: return "opposite_phase";
  }
  return "unknown";
}

CrosstalkMetrics analyze_crosstalk(const tline::CoupledBus& bus,
                                   SwitchingPattern pattern,
                                   const CrosstalkOptions& options) {
  const PatternTransient run = pattern_transient(bus, pattern, options);
  const bool victim_switches = pattern != SwitchingPattern::kQuietVictim;

  // The push-out reference; computed only when a push-out exists, absent
  // (not fatal) in the degenerate-damping corner.
  std::optional<double> reference;
  if (victim_switches) reference = isolated_two_pole_delay(run.isolated);
  // The Miller-degraded corner can be much slower than the isolated
  // estimate the horizon comes from; measure_transient auto-extends.
  std::vector<sim::CrossingProbe> crossing;
  if (victim_switches) crossing.push_back({run.victim_node, 0.5 * options.vdd});
  const sim::TransientMeasurement measured = sim::measure_transient(
      run.circuit, crossing, {run.victim_node}, run.transient, "analyze_crosstalk");
  CrosstalkMetrics metrics;
  if (victim_switches)
    static_cast<CrosstalkDelay&>(metrics) = delay_fields(measured.crossings[0], reference);

  // Noise: excursion outside the victim's drive envelope [v(0), v(inf)].
  // A quiet victim's envelope collapses to its quiescent level, so this is
  // the classic peak coupled noise; a switching victim's is over/undershoot.
  const double lo = 0.0;
  const double hi = victim_switches ? options.vdd : 0.0;
  const sim::Extrema& victim = measured.extrema[0];
  metrics.peak_noise = std::max({0.0, lo - victim.min, victim.max - hi});
  return metrics;
}

CrosstalkDelay analyze_crosstalk_delay(const tline::CoupledBus& bus,
                                       SwitchingPattern pattern,
                                       const CrosstalkOptions& options) {
  const PatternTransient run = pattern_transient(bus, pattern, options);
  if (pattern == SwitchingPattern::kQuietVictim) {
    // No delay; the probe-less run only seeds and counts options.reuse.
    sim::measure_transient(run.circuit, {}, {}, run.transient, "analyze_crosstalk");
    return {};
  }
  const std::optional<double> reference = isolated_two_pole_delay(run.isolated);
  return delay_fields(sim::first_crossing(run.circuit, run.victim_node,
                                          0.5 * options.vdd, run.transient,
                                          "analyze_crosstalk"),
                      reference);
}

std::optional<std::vector<CrosstalkDelay>> analyze_crosstalk_delays(
    const std::vector<CrosstalkLane>& lanes) {
  std::vector<sim::Circuit> circuits;
  std::vector<std::optional<double>> references;
  sim::TransientOptions transient;
  std::string victim_node;
  double level = 0.0;
  for (const CrosstalkLane& lane : lanes) {
    if (lane.pattern == SwitchingPattern::kQuietVictim) return std::nullopt;
    PatternTransient run = pattern_transient(lane.bus, lane.pattern, lane.options);
    if (circuits.empty()) {
      transient = run.transient;
      victim_node = run.victim_node;
      level = 0.5 * lane.options.vdd;
    } else if (run.transient.t_stop != transient.t_stop ||
               run.transient.dt != transient.dt || run.victim_node != victim_node ||
               0.5 * lane.options.vdd != level) {
      return std::nullopt;
    }
    references.push_back(isolated_two_pole_delay(run.isolated));
    circuits.push_back(std::move(run.circuit));
  }
  const std::optional<std::vector<double>> crossings = sim::run_batched_crossings(
      circuits, victim_node, level, transient, "analyze_crosstalk");
  if (!crossings) return std::nullopt;
  std::vector<CrosstalkDelay> delays;
  for (std::size_t k = 0; k < crossings->size(); ++k)
    delays.push_back(delay_fields((*crossings)[k], references[k]));
  return delays;
}

CrosstalkMetrics analyze_crosstalk_reduced(const tline::CoupledBus& bus,
                                           SwitchingPattern pattern,
                                           const CrosstalkOptions& options,
                                           int order,
                                           mor::ConductanceReuse* reuse) {
  validate_options(bus, options, "analyze_crosstalk_reduced");
  if (order < 1)
    throw std::invalid_argument("analyze_crosstalk_reduced: order must be >= 1");

  const int victim_line = bus.victim_index();
  const bool victim_switches = pattern != SwitchingPattern::kQuietVictim;
  const sim::Circuit circuit = build_pattern_bus(bus, pattern, options);
  const std::string victim_node =
      "line" + std::to_string(victim_line) + ".out";

  const sim::MnaAssembler mna(circuit);
  const mor::LinearSystem linear = mor::make_linear_system(mna, {victim_node});
  const mor::MomentGenerator generator(linear, reuse);

  // Transport-delay candidate bound for every transfer: the victim line's
  // own time of flight (the selection in reduce_transfer adapts downward).
  const double max_delay = bus.line_at(victim_line).time_of_flight();

  // Superposition around the t = 0- DC point: every source contributes its
  // pre-switch level times its DC transfer (that sum is the victim's
  // initial level), then its swing times its step/ramp response.
  // build_coupled_bus adds exactly one voltage source per line, in line
  // order, so input column i is line i's driver; each signal is decoded
  // from that source's OWN spec, never re-derived from the drive enum.
  double initial_dc = 0.0;
  struct Contribution {
    mor::PoleResidueModel model;
    std::vector<DriveEdge> edges;
  };
  std::vector<Contribution> contributions;
  for (int i = 0; i < bus.lines; ++i) {
    const std::vector<double>& input = linear.inputs[static_cast<std::size_t>(i)];
    const DriveDecode signal = decode_drive(
        circuit.voltage_sources()[static_cast<std::size_t>(i)].spec);
    if (!signal.edges.empty()) {
      const int transfer_order =
          mor::coupled_transfer_order(order, std::abs(i - victim_line));
      const std::vector<double> moments = generator.transfer_moments(
          linear.outputs[0], input, 2 * transfer_order);
      Contribution c{mor::reduce_transfer(moments, transfer_order, max_delay),
                     signal.edges};
      // The model's DC gain IS moment 0 (pinned exactly by the
      // reduction), so the pre-switch level rides the same number.
      initial_dc += signal.initial * c.model.dc_gain;
      contributions.push_back(std::move(c));
    } else if (signal.initial != 0.0) {
      // Non-switching source held at a nonzero level: only its DC transfer
      // contributes (one solve, no reduction).
      const std::vector<double> m0 = generator.solve(input);
      double dc = 0.0;
      for (std::size_t n = 0; n < m0.size(); ++n)
        dc += linear.outputs[0][n] * m0[n];
      initial_dc += signal.initial * dc;
    }
  }

  CrosstalkMetrics metrics;
  mor::AnalyticResponse shifted(initial_dc);
  for (const auto& c : contributions) {
    // Exact superposition: one shifted contribution per linear edge of the
    // decoded drive (a step/ramp today, a pulse's two edges or an N-point
    // PWL's N-1 edges just as well).
    for (const DriveEdge& edge : c.edges) {
      if (edge.rise > 0.0)
        shifted.add_ramp(c.model, edge.delta, edge.rise, edge.start);
      else
        shifted.add_step(c.model, edge.delta, edge.start);
    }
  }

  // One measurement pass serves both delay and noise (rise metrics are not
  // part of CrosstalkMetrics, so their scans are skipped).
  const double hi = victim_switches ? options.vdd : 0.0;
  const mor::ResponseMetrics measured =
      shifted.measure(0.0, hi, /*want_rise=*/false);
  metrics.peak_noise = measured.peak_noise;
  if (victim_switches) {
    if (!measured.delay_50)
      throw std::runtime_error(
          "analyze_crosstalk_reduced: '" + victim_node +
          "' never crossed the threshold within the (auto-extended) window");
    static_cast<CrosstalkDelay&>(metrics) = delay_fields(
        *measured.delay_50,
        isolated_two_pole_delay({options.driver_resistance,
                                 bus.line_at(victim_line),
                                 options.load_capacitance}));
  }
  return metrics;
}

}  // namespace rlcsim::core
