#include "repbus/stage_compose.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "mor/response.h"
#include "sim/builders.h"
#include "sim/mna.h"
#include "sim/stamp_program.h"

namespace rlcsim::repbus {
namespace {

// One stage's parasitics: the whole bus scaled by 1/k (every total, every
// coupling, every flavor — ratios and positive definiteness are preserved).
tline::CoupledBus section_bus(const tline::CoupledBus& bus, int sections) {
  const double inv = 1.0 / static_cast<double>(sections);
  tline::CoupledBus s = bus;
  const auto scale_line = [&](tline::LineParams& line) {
    line.total_resistance *= inv;
    line.total_inductance *= inv;
    line.total_capacitance *= inv;
  };
  scale_line(s.line);
  for (auto& line : s.line_params) scale_line(line);
  s.coupling_capacitance *= inv;
  s.mutual_inductance *= inv;
  for (double& cc : s.pair_capacitance) cc *= inv;
  for (double& lm : s.pair_inductance) lm *= inv;
  const auto scale_matrix = [&](numeric::RealMatrix& m) {
    for (std::size_t i = 0; i < m.rows(); ++i)
      for (std::size_t j = 0; j < m.cols(); ++j) m(i, j) *= inv;
  };
  scale_matrix(s.full_cc);
  scale_matrix(s.full_lm);
  return s;
}

}  // namespace

StageModels build_stage_models(const RepeaterBusSpec& spec, int order,
                               mor::ConductanceReuse* reuse) {
  validate(spec);
  if (order < 1)
    throw std::invalid_argument("build_stage_models: order must be >= 1");

  const tline::CoupledBus section = section_bus(spec.bus, spec.sections);
  const int lines = section.lines;
  const int victim = section.victim_index();
  // The drive table only decides which lines are shields here (source specs
  // never enter the reduced transfers — inputs are unit incidence columns).
  const std::vector<sim::BusDrive> drives = core::pattern_drives(
      lines, victim, core::SwitchingPattern::kSamePhase, spec.shield_every);
  const sim::Circuit circuit = sim::build_coupled_bus(
      section, drives, spec.buffer.r0 / spec.size, spec.buffer.c0 * spec.size,
      spec.segments_per_section, spec.vdd);

  std::vector<std::string> outputs;
  outputs.reserve(static_cast<std::size_t>(lines));
  for (int i = 0; i < lines; ++i)
    outputs.push_back("line" + std::to_string(i) + ".out");
  // Every section of one (k, shield) layout has the same topology, so the
  // record's stamp program serves every h; a mismatch compiles its own.
  sim::StampProgramPtr program;
  if (reuse && reuse->program && reuse->program->matches(circuit)) {
    program = reuse->program;
  } else {
    program = sim::StampProgram::compile(circuit);
    if (reuse && !reuse->program) reuse->program = program;
  }
  const sim::MnaAssembler mna(std::move(program), circuit);
  const mor::LinearSystem linear = mor::make_linear_system(mna, outputs);
  const mor::MomentGenerator generator(linear, reuse);

  StageModels models;
  models.lines = lines;
  models.order = order;
  models.sections = spec.sections;
  models.shield_every = spec.shield_every;
  models.transfer.assign(static_cast<std::size_t>(lines),
                         std::vector<mor::PoleResidueModel>(
                             static_cast<std::size_t>(lines)));
  models.dc.assign(static_cast<std::size_t>(lines),
                   std::vector<double>(static_cast<std::size_t>(lines), 0.0));
  // One Krylov sequence per signal driver j serves every output row: the
  // sequence runs to the longest moment set any row needs, and each (i, j)
  // transfer reduces its own prefix (bit-identical to a per-pair call).
  const auto is_shield = [&](int line) {
    return drives[static_cast<std::size_t>(line)] ==
           sim::BusDrive::kShieldGrounded;
  };
  for (int j = 0; j < lines; ++j) {
    if (is_shield(j)) continue;  // shield drivers never move: zero model
    int count = 0;
    for (int i = 0; i < lines; ++i)
      if (!is_shield(i))
        count = std::max(
            count, 2 * mor::coupled_transfer_order(order, std::abs(i - j)));
    const std::vector<std::vector<double>> rows = generator.transfer_moments(
        linear.outputs, linear.inputs[static_cast<std::size_t>(j)], count);
    for (int i = 0; i < lines; ++i) {
      if (is_shield(i)) continue;  // shield outputs are never measured
      const int transfer_order =
          mor::coupled_transfer_order(order, std::abs(i - j));
      const std::vector<double>& row = rows[static_cast<std::size_t>(i)];
      const std::vector<double> moments(row.begin(),
                                        row.begin() + 2 * transfer_order);
      models.dc[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          moments[0];
      models.transfer[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          mor::reduce_transfer(moments, transfer_order,
                               section.line_at(i).time_of_flight());
    }
  }
  // Initial per-stage pitch estimate (needed before the first stage has
  // been measured): the victim's own section 50% delay under a unit step.
  const auto v = static_cast<std::size_t>(victim);
  mor::AnalyticResponse self;
  self.add_step(models.transfer[v][v], 1.0);
  models.pitch_estimate =
      self.first_crossing(0.5 * models.dc[v][v], +1)
          .value_or(spec.bus.line_at(victim).section(spec.sections).time_of_flight());
  return models;
}

namespace {

// Per-line drive state entering a stage.
struct StageLineState {
  double pre = 0.0;    // wire level before the transition
  double post = 0.0;   // ... after it (pre == post: quiet)
  double t = 0.0;      // absolute fire time of this stage's driver
  double ramp = 0.0;   // driver edge duration
  double pitch = 0.0;  // last measured per-stage delay (stagger smearing)
  bool glitched = false;  // a quiet-armed boundary fired: full swing follows
};

// Immutable per-walk context: everything a stage evaluation needs that does
// not change from stage to stage.
struct ChainWalk {
  const RepeaterBusSpec* spec = nullptr;
  const StageModels* models = nullptr;
  std::vector<sim::BusDrive> drives;
  int victim = 0;
  double vdd = 1.0;
  double buffer_edge = 0.0;
  double victim_quiet_level = 0.0;  // glitch reference level
  bool staggered = false;
  bool interleaved = false;
  bool victim_switches = false;
  bool want_noise = true;  // run the victim's extremum scans
};

bool walk_is_signal(const ChainWalk& walk, int i) {
  return walk.drives[static_cast<std::size_t>(i)] !=
         sim::BusDrive::kShieldGrounded;
}

const mor::PoleResidueModel& walk_model_at(const ChainWalk& walk, int i, int j) {
  return walk.models
      ->transfer[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
}

double walk_dc_at(const ChainWalk& walk, int i, int j) {
  return walk.models->dc[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
}

// Validates the spec and the models' chain geometry and captures the walk
// context (drive table, resolved buffer edge).
ChainWalk make_chain_walk(const RepeaterBusSpec& spec,
                          core::SwitchingPattern pattern,
                          const StageModels& models, bool want_noise) {
  validate(spec);
  const int lines = spec.bus.lines;
  if (models.lines != lines || models.sections != spec.sections ||
      models.shield_every != spec.shield_every)
    throw std::invalid_argument(
        "compose_bus_chain: stage models built for a different chain "
        "geometry (bus width, sections, or shield layout)");
  ChainWalk walk;
  walk.spec = &spec;
  walk.models = &models;
  walk.victim = spec.bus.victim_index();
  walk.vdd = spec.vdd;
  walk.buffer_edge = resolved_buffer_rise(spec);
  walk.staggered = spec.placement == Placement::kStaggered;
  walk.interleaved = spec.placement == Placement::kInterleaved;
  walk.drives =
      core::pattern_drives(lines, walk.victim, pattern, spec.shield_every);
  walk.victim_switches = pattern != core::SwitchingPattern::kQuietVictim;
  walk.want_noise = want_noise;
  walk.victim_quiet_level =
      drive_levels(walk.drives[static_cast<std::size_t>(walk.victim)], walk.vdd)
          .pre;
  return walk;
}

// One stage's closed-form evaluation: the measured 50% crossings per line
// (the next stage's fire times), the victim's stage noise, and — for a
// still-quiet victim at an interior boundary — whether the stage output
// crossed the downstream quiet-armed repeater's threshold (glitch firing).
struct ChainStageResult {
  std::vector<double> next_t;
  double victim_noise = 0.0;
  bool glitch_fired = false;
  double glitch_time = 0.0;  // absolute fire time of the glitched buffer
};

ChainStageResult evaluate_chain_stage(const ChainWalk& walk,
                                      const std::vector<StageLineState>& state,
                                      int stage) {
  const RepeaterBusSpec& spec = *walk.spec;
  const int lines = spec.bus.lines;
  const int victim = walk.victim;
  ChainStageResult result;
  result.next_t.assign(static_cast<std::size_t>(lines), 0.0);
  for (int i = 0; i < lines; ++i) {
    if (!walk_is_signal(walk, i)) continue;
    const StageLineState& si = state[static_cast<std::size_t>(i)];
    const bool switching = si.pre != si.post;
    if (!switching && i != victim) continue;  // nothing to measure

    // The line's stage output: DC offset from every driver's pre-switch
    // level, plus each switching driver's ramp started at its absolute
    // fire time. Staggered cross-parity pairs smear each contribution
    // over two half-weight onsets at t -/+ pitch/2 (the adjacent span
    // straddles two of the driver's stages).
    double dc0 = 0.0;
    for (int j = 0; j < lines; ++j)
      dc0 += state[static_cast<std::size_t>(j)].pre * walk_dc_at(walk, i, j);
    mor::AnalyticResponse response(dc0);
    for (int j = 0; j < lines; ++j) {
      const StageLineState& sj = state[static_cast<std::size_t>(j)];
      if (sj.pre == sj.post || !walk_is_signal(walk, j)) continue;
      const double delta = sj.post - sj.pre;
      if (walk.staggered &&
          is_alternate_line(i, victim) != is_alternate_line(j, victim)) {
        response.add_ramp(walk_model_at(walk, i, j), 0.5 * delta, sj.ramp,
                          std::max(0.0, sj.t - 0.5 * sj.pitch));
        response.add_ramp(walk_model_at(walk, i, j), 0.5 * delta, sj.ramp,
                          sj.t + 0.5 * sj.pitch);
      } else {
        response.add_ramp(walk_model_at(walk, i, j), delta, sj.ramp, sj.t);
      }
    }

    if (i == victim) {
      const double final_value = response.final_value();
      if (walk.want_noise) {
        // A glitched victim is a full-swing net: report its excursion
        // against the ORIGINAL quiet level, exactly what the MNA receiver
        // metric shows once the quiet-armed buffers have fired. Otherwise
        // the envelope is the stage's own drive levels (a quiet victim's
        // dc0 -> final differ only by rounding of the aggressors' DC
        // transfers).
        const double quiet = walk.victim_quiet_level;
        const mor::ResponseExtrema extremes = response.extrema();
        result.victim_noise =
            si.glitched ? extremes.excursion_outside(quiet, quiet)
                        : extremes.excursion_outside(dc0, final_value);
      }
      if (switching) {
        const double swing = final_value - dc0;
        const std::optional<double> t50 =
            swing != 0.0 ? response.first_crossing(dc0 + 0.5 * swing,
                                                   swing > 0.0 ? +1 : -1)
                         : std::nullopt;
        if (!t50)
          throw std::runtime_error(
              "compose_bus_chain: victim stage " + std::to_string(stage) +
              " never crossed 50% within the (auto-extended) window");
        result.next_t[static_cast<std::size_t>(i)] = *t50;
      } else if (stage < spec.sections) {
        // The stage output feeds a quiet-armed repeater (bus_chain stamps
        // the same arming): coupled noise past its threshold in the armed
        // direction fires it.
        const int direction =
            walk.victim_quiet_level < 0.5 * walk.vdd ? +1 : -1;
        const auto fired = response.first_crossing(0.5 * walk.vdd, direction);
        if (fired) {
          result.glitch_fired = true;
          result.glitch_time = *fired;
        }
      }
    } else {
      const double final_value = response.final_value();
      const double level = 0.5 * (dc0 + final_value);
      const int direction = si.post > si.pre ? +1 : -1;
      const auto crossing = response.first_crossing(level, direction);
      if (!crossing)
        throw std::runtime_error(
            "compose_bus_chain: line " + std::to_string(i) + " stage " +
            std::to_string(stage) +
            " never crossed 50% within the (auto-extended) window");
      result.next_t[static_cast<std::size_t>(i)] = *crossing;
    }
  }
  return result;
}

}  // namespace

ComposedChainMetrics compose_bus_chain(const RepeaterBusSpec& spec,
                                       core::SwitchingPattern pattern,
                                       const StageModels& models,
                                       bool want_noise) {
  const ChainWalk walk = make_chain_walk(spec, pattern, models, want_noise);
  const int lines = spec.bus.lines;
  const std::size_t victim = static_cast<std::size_t>(walk.victim);

  // The per-line state entering stage 1: levels from the drive table, the
  // stagger pitch seeded from the victim's own unit-step section delay.
  std::vector<StageLineState> state(static_cast<std::size_t>(lines));
  for (int i = 0; i < lines; ++i) {
    const DriveLevels levels =
        drive_levels(walk.drives[static_cast<std::size_t>(i)], walk.vdd);
    StageLineState& s = state[static_cast<std::size_t>(i)];
    const bool invert_first = walk.interleaved &&
                              is_alternate_line(i, walk.victim) &&
                              walk_is_signal(walk, i);
    s.pre = invert_first ? walk.vdd - levels.pre : levels.pre;
    s.post = invert_first ? walk.vdd - levels.post : levels.post;
    s.t = 0.0;
    s.ramp = spec.source_rise;
    s.pitch = models.pitch_estimate;
  }

  ComposedChainMetrics metrics;
  if (!want_noise) metrics.peak_noise = std::numeric_limits<double>::quiet_NaN();
  metrics.victim_fire_times.push_back(0.0);
  for (int stage = 1; stage <= spec.sections; ++stage) {
    const ChainStageResult result = evaluate_chain_stage(walk, state, stage);
    if (want_noise)
      metrics.peak_noise = std::max(metrics.peak_noise, result.victim_noise);
    // Boundary `stage` fired: either the first quiet-armed firing, or the
    // full swing of an already-glitched victim arriving at the next
    // boundary.
    if (result.glitch_fired ||
        (state[victim].glitched && stage < spec.sections)) {
      metrics.glitch_fired = true;
      metrics.glitch_boundaries.push_back(stage);
      metrics.glitch_depth =
          static_cast<int>(metrics.glitch_boundaries.size());
    }
    if (stage == spec.sections) {
      if (walk.victim_switches) metrics.victim_delay_50 = result.next_t[victim];
      break;
    }
    // Measured crossings become the next stage's fire times, the buffer
    // edge becomes the drive ramp, and inverting repeaters flip the next
    // stage's levels. A fired quiet-armed boundary drives the victim to the
    // opposite rail, as the MNA buffer does.
    for (int i = 0; i < lines; ++i) {
      if (!walk_is_signal(walk, i)) continue;
      StageLineState& s = state[static_cast<std::size_t>(i)];
      const bool invert = walk.interleaved && is_alternate_line(i, walk.victim);
      if (i == walk.victim && result.glitch_fired) {
        s.post = walk.vdd - s.pre;
        s.pitch = std::max(result.glitch_time - s.t, 0.0);
        s.t = result.glitch_time;
        s.ramp = walk.buffer_edge;
        s.glitched = true;
      } else if (s.pre != s.post) {
        const double t50 = result.next_t[static_cast<std::size_t>(i)];
        s.pitch = std::max(t50 - s.t, 0.0);
        s.t = t50;
        s.ramp = walk.buffer_edge;
      }
      const double pre = invert ? walk.vdd - s.pre : s.pre;
      const double post = invert ? walk.vdd - s.post : s.post;
      s.pre = pre;
      s.post = post;
    }
    metrics.victim_fire_times.push_back(state[victim].t);
  }
  return metrics;
}

ComposedChainMetrics compose_bus_chain(const RepeaterBusSpec& spec,
                                       core::SwitchingPattern pattern,
                                       int order, mor::ConductanceReuse* reuse,
                                       bool want_noise) {
  return compose_bus_chain(spec, pattern,
                           build_stage_models(spec, order, reuse), want_noise);
}

}  // namespace rlcsim::repbus
