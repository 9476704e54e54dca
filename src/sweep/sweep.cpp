#include "sweep/sweep.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/delay_model.h"
#include "numeric/fp_env.h"
#include "numeric/sparse_batch.h"
#include "obs/obs.h"
#include "repbus/stage_compose.h"
#include "runtime/thread_pool.h"
#include "sim/ac.h"
#include "sim/builders.h"
#include "sim/transient_batch.h"

namespace rlcsim::sweep {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

void apply_variable(Variable variable, double value, Scenario& scenario,
                    const tline::PerUnitLength& per_length) {
  switch (variable) {
    case Variable::kLineResistance:
      scenario.system.line.total_resistance = value;
      break;
    case Variable::kLineInductance:
      scenario.system.line.total_inductance = value;
      break;
    case Variable::kLineCapacitance:
      scenario.system.line.total_capacitance = value;
      break;
    case Variable::kLineLength:
      scenario.system.line = tline::make_line(per_length, value);
      break;
    case Variable::kDriverResistance:
      scenario.system.driver_resistance = value;
      break;
    case Variable::kLoadCapacitance:
      scenario.system.load_capacitance = value;
      break;
    case Variable::kRepeaterSize:
      scenario.design.size = value;
      break;
    case Variable::kRepeaterSections:
      scenario.design.sections = value;
      break;
    case Variable::kBusLines:
      scenario.xtalk.bus_lines = static_cast<int>(value);
      break;
    case Variable::kCouplingCapRatio:
      scenario.xtalk.cc_ratio = value;
      break;
    case Variable::kMutualRatio:
      scenario.xtalk.lm_ratio = value;
      break;
    case Variable::kSwitchingPattern:
      scenario.xtalk.pattern =
          static_cast<core::SwitchingPattern>(static_cast<int>(value));
      break;
    case Variable::kShieldEvery:
      scenario.xtalk.shield_every = static_cast<int>(value);
      break;
    case Variable::kReductionOrder:
      scenario.xtalk.reduction_order = static_cast<int>(value);
      break;
    case Variable::kStaggerMode:
      scenario.xtalk.stagger_mode = static_cast<int>(value);
      break;
  }
}

// The coupled bus of one resolved scenario — shared by the crosstalk,
// reduced and repeater-bus analyses, so they can never disagree.
tline::CoupledBus scenario_bus(const Scenario& scenario) {
  const CrosstalkScenario& x = scenario.xtalk;
  return tline::make_bus(x.bus_lines, scenario.system.line, x.cc_ratio,
                         x.lm_ratio);
}

double transient_delay_of(const Scenario& scenario, const EngineOptions& options,
                          sim::SolverReuse* reuse) {
  const sim::Circuit circuit =
      sim::build_gate_line_load(scenario.system, options.segments);
  sim::TransientOptions transient;
  transient.t_stop = options.t_stop > 0.0
                         ? options.t_stop
                         : sim::default_transient_horizon(scenario.system);
  transient.dt = options.dt;
  transient.reuse = reuse;
  return sim::first_crossing(circuit, "out", 0.5, transient,
                             "SweepEngine transient_delay");
}

double evaluate_point(const Scenario& scenario, Analysis analysis,
                      const EngineOptions& options, sim::SolverReuse* reuse,
                      mor::ConductanceReuse* mor_reuse) {
  switch (analysis) {
    case Analysis::kClosedFormDelay:
      return core::rlc_delay(scenario.system, options.fit);
    case Analysis::kTransientDelay:
      return transient_delay_of(scenario, options, reuse);
    case Analysis::kAcBandwidth: {
      const sim::Circuit circuit =
          sim::build_gate_line_load(scenario.system, options.segments);
      // "No -3 dB crossing inside the scan window" is recorded as absent
      // (NaN, the grid's uncomputed value), never as a 0 Hz sentinel.
      return sim::bandwidth_3db(circuit, "vsrc", "out", options.ac_f_lo,
                                options.ac_f_hi)
          .value_or(kNaN);
    }
    case Analysis::kRepeaterDelay:
      return core::total_delay(scenario.system.line, scenario.buffer,
                               scenario.design, options.fit);
    case Analysis::kCrosstalkDelay:
    case Analysis::kCrosstalkNoise:
    case Analysis::kCrosstalkPushout:
    case Analysis::kReducedDelay:
    case Analysis::kReducedNoise: {
      const CrosstalkScenario& x = scenario.xtalk;
      const tline::CoupledBus bus = scenario_bus(scenario);
      core::CrosstalkOptions xt;
      xt.driver_resistance = scenario.system.driver_resistance;
      xt.load_capacitance = scenario.system.load_capacitance;
      xt.segments = options.segments;
      xt.shield_every = x.shield_every;
      xt.t_stop = options.t_stop;
      xt.dt = options.dt;
      xt.reuse = reuse;
      if (analysis == Analysis::kReducedDelay ||
          analysis == Analysis::kReducedNoise) {
        // A fresh per-point reduction over the shared symbolic G
        // factorization.
        const core::CrosstalkMetrics m = core::analyze_crosstalk_reduced(
            bus, x.pattern, xt, x.reduction_order, mor_reuse);
        return analysis == Analysis::kReducedNoise
                   ? m.peak_noise
                   : m.victim_delay_50.value_or(kNaN);
      }
      // Noise needs the whole horizon; delay and push-out stop stepping at
      // the victim's 50% crossing.
      if (analysis == Analysis::kCrosstalkNoise)
        return core::analyze_crosstalk(bus, x.pattern, xt).peak_noise;
      const core::CrosstalkDelay d = core::analyze_crosstalk_delay(bus, x.pattern, xt);
      // Quiet-victim delays are absent, recorded as NaN (never 0).
      return analysis == Analysis::kCrosstalkDelay
                 ? d.victim_delay_50.value_or(kNaN)
                 : d.delay_pushout.value_or(kNaN);
    }
    case Analysis::kBusRepeaterDelay:
    case Analysis::kBusRepeaterNoise: {
      const CrosstalkScenario& x = scenario.xtalk;
      // A kStaggerMode axis is range-checked by SweepSpec::validate, but a
      // bad BASE scenario would otherwise cast to an out-of-range enum and
      // silently behave as kUniform.
      if (x.stagger_mode < 0 || x.stagger_mode > 2)
        throw std::invalid_argument(
            "SweepEngine: stagger_mode must be 0, 1, or 2 (repbus::Placement)");
      repbus::RepeaterBusSpec spec;
      spec.bus = scenario_bus(scenario);
      spec.sections = std::max(
          1, static_cast<int>(std::llround(scenario.design.sections)));
      spec.size = scenario.design.size;
      spec.buffer = scenario.buffer;
      spec.placement = static_cast<repbus::Placement>(x.stagger_mode);
      spec.segments_per_section = options.segments;
      spec.shield_every = x.shield_every;
      const repbus::ComposedChainMetrics m = repbus::compose_bus_chain(
          spec, x.pattern, x.reduction_order, mor_reuse,
          /*want_noise=*/analysis == Analysis::kBusRepeaterNoise);
      return analysis == Analysis::kBusRepeaterNoise
                 ? m.peak_noise
                 : m.victim_delay_50.value_or(kNaN);
    }
  }
  throw std::invalid_argument("SweepEngine: unknown analysis");
}

// Analyses whose hot path is the MNA transient engine — these get the
// recorded-symbolic reuse seeding in run().
bool is_transient_analysis(Analysis analysis) {
  return analysis == Analysis::kTransientDelay ||
         analysis == Analysis::kCrosstalkDelay ||
         analysis == Analysis::kCrosstalkNoise ||
         analysis == Analysis::kCrosstalkPushout;
}

// Analyses whose hot path is the mor/ moment engine — these get the
// recorded G-symbolic (mor::ConductanceReuse) seeding in run().
bool is_reduced_analysis(Analysis analysis) {
  return analysis == Analysis::kReducedDelay ||
         analysis == Analysis::kReducedNoise ||
         analysis == Analysis::kBusRepeaterDelay ||
         analysis == Analysis::kBusRepeaterNoise;
}

// The eq. 9 delay of one grid point as a tile-ordering key. The key is a
// schedule hint only: NaN when the model throws, so the point sorts last and
// fails, if at all, in its own evaluation.
double delay_key(const SweepSpec& spec, std::size_t flat,
                 const core::DelayFitConstants& fit) {
  try {
    return core::rlc_delay(spec.at(flat).system, fit);
  } catch (const std::exception&) {
    return kNaN;
  }
}

// Grid points first..size-1 in eq. 9 delay order, the grid index breaking
// ties and NaN keys last. A batched tile stops at its last lane's crossing,
// so tiles of similar delays waste no steps on their fast lanes.
std::vector<std::size_t> delay_order(const SweepSpec& spec, std::size_t first,
                                     const core::DelayFitConstants& fit) {
  std::vector<double> key(spec.size(), kNaN);
  std::vector<std::size_t> order;
  for (std::size_t flat = first; flat < spec.size(); ++flat) {
    key[flat] = delay_key(spec, flat, fit);
    order.push_back(flat);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const bool a_nan = std::isnan(key[a]), b_nan = std::isnan(key[b]);
    if (a_nan != b_nan) return b_nan;
    if (!a_nan && key[a] != key[b]) return key[a] < key[b];
    return a < b;
  });
  return order;
}

}  // namespace

const char* variable_name(Variable variable) {
  switch (variable) {
    case Variable::kLineResistance: return "line_resistance";
    case Variable::kLineInductance: return "line_inductance";
    case Variable::kLineCapacitance: return "line_capacitance";
    case Variable::kLineLength: return "line_length";
    case Variable::kDriverResistance: return "driver_resistance";
    case Variable::kLoadCapacitance: return "load_capacitance";
    case Variable::kRepeaterSize: return "repeater_size";
    case Variable::kRepeaterSections: return "repeater_sections";
    case Variable::kBusLines: return "bus_lines";
    case Variable::kCouplingCapRatio: return "coupling_cap_ratio";
    case Variable::kMutualRatio: return "mutual_ratio";
    case Variable::kSwitchingPattern: return "switching_pattern";
    case Variable::kShieldEvery: return "shield_every";
    case Variable::kReductionOrder: return "reduction_order";
    case Variable::kStaggerMode: return "stagger_mode";
  }
  return "unknown";
}

const char* analysis_name(Analysis analysis) {
  switch (analysis) {
    case Analysis::kClosedFormDelay: return "closed_form_delay";
    case Analysis::kTransientDelay: return "transient_delay";
    case Analysis::kAcBandwidth: return "ac_bandwidth";
    case Analysis::kRepeaterDelay: return "repeater_delay";
    case Analysis::kCrosstalkDelay: return "crosstalk_delay";
    case Analysis::kCrosstalkNoise: return "crosstalk_noise";
    case Analysis::kCrosstalkPushout: return "crosstalk_pushout";
    case Analysis::kReducedDelay: return "reduced_delay";
    case Analysis::kReducedNoise: return "reduced_noise";
    case Analysis::kBusRepeaterDelay: return "bus_repeater_delay";
    case Analysis::kBusRepeaterNoise: return "bus_repeater_noise";
  }
  return "unknown";
}

Axis linspace(Variable variable, double lo, double hi, int points) {
  if (points < 2) throw std::invalid_argument("sweep::linspace: points must be >= 2");
  Axis axis{variable, {}};
  axis.values.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i)
    axis.values.push_back(lo + (hi - lo) * i / (points - 1));
  return axis;
}

Axis logspace(Variable variable, double lo, double hi, int points) {
  if (points < 2) throw std::invalid_argument("sweep::logspace: points must be >= 2");
  if (!(lo > 0.0) || !(hi > lo))
    throw std::invalid_argument("sweep::logspace: need 0 < lo < hi");
  Axis axis{variable, {}};
  axis.values.reserve(static_cast<std::size_t>(points));
  const double llo = std::log(lo), lhi = std::log(hi);
  for (int i = 0; i < points; ++i)
    axis.values.push_back(std::exp(llo + (lhi - llo) * i / (points - 1)));
  return axis;
}

Axis values(Variable variable, std::vector<double> axis_values) {
  return Axis{variable, std::move(axis_values)};
}

Axis switching_patterns(std::vector<core::SwitchingPattern> patterns) {
  Axis axis{Variable::kSwitchingPattern, {}};
  axis.values.reserve(patterns.size());
  for (core::SwitchingPattern p : patterns)
    axis.values.push_back(static_cast<double>(static_cast<int>(p)));
  return axis;
}

std::size_t SweepSpec::size() const {
  std::size_t n = 1;
  for (const auto& axis : axes) n *= axis.values.size();
  return n;
}

std::vector<std::size_t> SweepSpec::indices(std::size_t flat) const {
  std::vector<std::size_t> out(axes.size(), 0);
  for (std::size_t a = axes.size(); a-- > 0;) {
    const std::size_t len = axes[a].values.size();
    out[a] = flat % len;
    flat /= len;
  }
  return out;
}

std::size_t SweepSpec::flat_index(const std::vector<std::size_t>& indices) const {
  if (indices.size() != axes.size())
    throw std::invalid_argument("SweepSpec::flat_index: wrong index count");
  std::size_t flat = 0;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (indices[a] >= axes[a].values.size())
      throw std::out_of_range("SweepSpec::flat_index: index out of range");
    flat = flat * axes[a].values.size() + indices[a];
  }
  return flat;
}

Scenario SweepSpec::at(std::size_t flat) const {
  // Allocation-free row-major decode (this runs once per grid point on the
  // hot path): the stride of axis a is the product of the axis lengths
  // after it, and axes still apply in declaration order.
  Scenario scenario = base;
  std::size_t stride = size();
  for (const Axis& axis : axes) {
    stride /= axis.values.size();
    const std::size_t idx = (flat / stride) % axis.values.size();
    apply_variable(axis.variable, axis.values[idx], scenario, per_length);
  }
  return scenario;
}

void SweepSpec::validate() const {
  for (const auto& axis : axes) {
    if (axis.values.empty())
      throw std::invalid_argument(std::string("SweepSpec: axis '") +
                                  variable_name(axis.variable) + "' has no values");
    for (double v : axis.values)
      if (!std::isfinite(v))
        throw std::invalid_argument(std::string("SweepSpec: axis '") +
                                    variable_name(axis.variable) +
                                    "' has a non-finite value");
    if (axis.variable == Variable::kLineLength &&
        (!(per_length.capacitance > 0.0) || !(per_length.inductance > 0.0)))
      throw std::invalid_argument(
          "SweepSpec: a line_length axis needs positive per_length L and C");
    // The crosstalk axes carry enum/count values through the double grid;
    // reject anything that would not round-trip.
    if (axis.variable == Variable::kBusLines)
      for (double v : axis.values)
        if (v < 2.0 || v != std::floor(v))
          throw std::invalid_argument(
              "SweepSpec: bus_lines values must be integers >= 2");
    if (axis.variable == Variable::kSwitchingPattern)
      for (double v : axis.values)
        if (v != std::floor(v) || v < 0.0 || v > 2.0)
          throw std::invalid_argument(
              "SweepSpec: switching_pattern values must be 0, 1, or 2 "
              "(core::SwitchingPattern)");
    if (axis.variable == Variable::kCouplingCapRatio)
      for (double v : axis.values)
        if (v < 0.0)
          throw std::invalid_argument(
              "SweepSpec: coupling_cap_ratio values must be >= 0");
    if (axis.variable == Variable::kMutualRatio)
      for (double v : axis.values)
        if (v < 0.0 || v >= 1.0)
          throw std::invalid_argument(
              "SweepSpec: mutual_ratio values must be in [0, 1) (the "
              "width-dependent bound tline::max_lm_ratio is enforced when "
              "each point builds its bus)");
    if (axis.variable == Variable::kShieldEvery)
      for (double v : axis.values)
        if (v < 0.0 || v != std::floor(v))
          throw std::invalid_argument(
              "SweepSpec: shield_every values must be integers >= 0");
    if (axis.variable == Variable::kReductionOrder)
      for (double v : axis.values)
        if (v < 1.0 || v != std::floor(v))
          throw std::invalid_argument(
              "SweepSpec: reduction_order values must be integers >= 1");
    if (axis.variable == Variable::kStaggerMode)
      for (double v : axis.values)
        if (v != std::floor(v) || v < 0.0 || v > 2.0)
          throw std::invalid_argument(
              "SweepSpec: stagger_mode values must be 0, 1, or 2 "
              "(repbus::Placement)");
  }
}

struct SweepEngine::Impl {
  EngineOptions options;
  mutable runtime::ThreadPool pool;

  explicit Impl(EngineOptions opts) : options(opts), pool(opts.threads) {}

  // Shared result epilogue for run()/run_custom(): stats + timing. The
  // factorization counts are summed from the per-worker reuse records
  // (run() adds the reference evaluation's before calling this).
  static void finalize(SweepResult& out, std::size_t points,
                       const std::vector<sim::SolverReuse>& reuse,
                       const std::vector<mor::ConductanceReuse>& mor_reuse,
                       const obs::Stopwatch& started) {
    for (const auto& r : reuse) {
      out.solver_reuse_hits += r.reuse_hits;
      out.symbolic_factorizations += r.symbolic_factorizations;
      out.ejected_lanes += r.ejected_lanes;
    }
    for (const auto& r : mor_reuse) {
      out.solver_reuse_hits += r.reuse_hits;
      out.symbolic_factorizations += r.symbolic_factorizations;
    }
    // Wall time feeds ONLY the elapsed/points-per-second observability
    // metadata, never a result value; obs::Stopwatch is the sanctioned
    // clock access (the lint wallclock-scope rule bans ::now() here).
    out.elapsed_seconds = started.seconds();
    out.points_per_second = out.elapsed_seconds > 0.0
                                ? static_cast<double>(points) / out.elapsed_seconds
                                : 0.0;
    OBS_COUNTER_ADD("sweep.points_batched", out.batched_points);
    OBS_COUNTER_ADD("sweep.points_scalar", out.scalar_points);
  }
};

SweepEngine::SweepEngine(EngineOptions options)
    : impl_(std::make_unique<Impl>(options)) {}

SweepEngine::~SweepEngine() = default;

std::size_t SweepEngine::threads() const { return impl_->pool.size(); }

const EngineOptions& SweepEngine::options() const { return impl_->options; }

SweepResult SweepEngine::run(const SweepSpec& spec, Analysis analysis) const {
  OBS_SPAN("sweep.run");
  OBS_COUNTER_ADD("sweep.runs", 1);
  const numeric::fp_env_guard fp_guard("sweep::SweepEngine::run");
  spec.validate();
  const std::size_t n = spec.size();
  // Timing metadata only (elapsed_seconds), not a result value.
  const obs::Stopwatch started;

  SweepResult out;
  out.threads_used = impl_->pool.size();
  out.values.assign(n, kNaN);
  std::atomic<std::size_t> batched_points{0};
  std::atomic<std::size_t> scalar_points{0};

  // Transient analyses replay a recorded (system + DC) symbolic pair;
  // reduced analyses replay a recorded G symbolic. Both seeding paths share
  // the same reference-evaluation scheme.
  const bool seeded =
      is_transient_analysis(analysis) || is_reduced_analysis(analysis);
  std::vector<sim::SolverReuse> reuse(impl_->pool.size());
  std::vector<mor::ConductanceReuse> mor_reuse(impl_->pool.size());
  std::size_t first = 0;
  if (seeded && n > 0) {
    // Reference evaluation on the calling thread: records the shared MNA
    // pattern and the symbolic factorizations every worker replays. Seeding
    // all workers from ONE donor is what makes results bit-identical at
    // every thread count — the recorded pivot order, not the schedule,
    // determines every numeric factorization.
    sim::SolverReuse reference;
    mor::ConductanceReuse mor_reference;
    out.values[0] = evaluate_point(spec.at(0), analysis, impl_->options,
                                   &reference, &mor_reference);
    // Workers inherit the recorded state, not the reference's counts.
    out.symbolic_factorizations =
        reference.symbolic_factorizations + mor_reference.symbolic_factorizations;
    reference.symbolic_factorizations = 0;
    mor_reference.symbolic_factorizations = 0;
    for (auto& r : reuse) r = reference;
    for (auto& r : mor_reuse) r = mor_reference;
    scalar_points += 1;  // the reference point is a single-circuit run
    first = 1;
  }

  const EngineOptions& options = impl_->options;

  // Scenario-batched tiling (kTransientDelay): hand workers tiles of
  // `lane_width` compatible points and step each tile as ONE SIMD batch.
  // Requires an explicit shared horizon — per-scenario default horizons
  // preclude a shared step grid — and a seeded reference (first == 1).
  // Tiles take the points in eq. 9 delay order and write each result back
  // by grid index.
  std::size_t lane_width = 1;
  if (analysis == Analysis::kTransientDelay && options.t_stop > 0.0) {
    lane_width = options.lanes != 0 ? options.lanes : numeric::default_lane_width();
    if (!numeric::is_supported_lane_width(lane_width))
      throw std::invalid_argument(
          "SweepEngine: EngineOptions::lanes must be 1, 4, or 8");
  }

  if (lane_width > 1) {
    const std::vector<std::size_t> order = delay_order(spec, first, options.fit);
    const std::size_t tiles = (order.size() + lane_width - 1) / lane_width;
    impl_->pool.parallel_for(tiles, [&](std::size_t tile, std::size_t worker) {
      OBS_SPAN("sweep.tile");
      const std::size_t end = std::min(order.size(), (tile + 1) * lane_width);
      // The short last tile (grid size not divisible by the lane width)
      // steps a W = 4 batch while at least 4 points remain, then single
      // points. A declined batch evaluates its points one by one. Every
      // path stops at the crossing and gives the same bits.
      for (std::size_t begin = tile * lane_width; begin < end;) {
        const std::size_t left = end - begin;
        const std::size_t width = left >= lane_width ? lane_width : left >= 4 ? 4 : 1;
        bool batched = false;
        if (width > 1) {
          std::vector<sim::Circuit> circuits;
          circuits.reserve(width);
          for (std::size_t k = 0; k < width; ++k)
            circuits.push_back(sim::build_gate_line_load(
                spec.at(order[begin + k]).system, options.segments));
          sim::TransientOptions transient;
          transient.t_stop = options.t_stop;
          transient.dt = options.dt;
          transient.reuse = &reuse[worker];
          const auto crossings = sim::run_batched_crossings(
              circuits, "out", 0.5, transient, "SweepEngine transient_delay");
          if (crossings) {
            for (std::size_t k = 0; k < width; ++k)
              out.values[order[begin + k]] = (*crossings)[k];
            batched = true;
          }
        }
        if (!batched) {
          for (std::size_t k = 0; k < width; ++k)
            out.values[order[begin + k]] =
                evaluate_point(spec.at(order[begin + k]), analysis, options,
                               &reuse[worker], &mor_reuse[worker]);
        }
        (batched ? batched_points : scalar_points).fetch_add(width);
        begin += width;
      }
    });
    out.batched_points = batched_points.load();
    out.scalar_points = scalar_points.load();
    Impl::finalize(out, n, reuse, mor_reuse, started);
    return out;
  }

  scalar_points += n - first;  // the non-tiled path is scalar point by point
  impl_->pool.parallel_for(n - first, [&](std::size_t i, std::size_t worker) {
    OBS_SPAN("sweep.point");
    const std::size_t flat = i + first;
    out.values[flat] = evaluate_point(spec.at(flat), analysis, options,
                                      seeded ? &reuse[worker] : nullptr,
                                      seeded ? &mor_reuse[worker] : nullptr);
  });

  out.batched_points = batched_points.load();
  out.scalar_points = scalar_points.load();
  Impl::finalize(out, n, reuse, mor_reuse, started);
  return out;
}

SweepResult SweepEngine::run_custom(
    std::size_t n,
    const std::function<double(std::size_t, PointContext&)>& eval) const {
  OBS_SPAN("sweep.run_custom");
  OBS_COUNTER_ADD("sweep.runs", 1);
  const numeric::fp_env_guard fp_guard("sweep::SweepEngine::run_custom");
  // Timing metadata only (elapsed_seconds), not a result value.
  const obs::Stopwatch started;
  SweepResult out;
  out.threads_used = impl_->pool.size();
  out.values.assign(n, kNaN);
  std::vector<sim::SolverReuse> reuse(impl_->pool.size());
  std::vector<mor::ConductanceReuse> mor_reuse(impl_->pool.size());

  impl_->pool.parallel_for(n, [&](std::size_t i, std::size_t worker) {
    OBS_SPAN("sweep.point");
    PointContext ctx{&reuse[worker], &mor_reuse[worker], worker};
    out.values[i] = eval(i, ctx);
  });

  out.scalar_points = n;  // custom evaluators never batch
  Impl::finalize(out, n, reuse, mor_reuse, started);
  return out;
}

core::DesignBatchFn SweepEngine::repeater_batch() const {
  return [this](const tline::LineParams& line, const core::MinBuffer& buffer,
                const core::DelayFitConstants& fit,
                const std::vector<core::RepeaterDesign>& candidates,
                std::vector<double>& delays) {
    delays.assign(candidates.size(), kNaN);
    impl_->pool.parallel_for(candidates.size(), [&](std::size_t i, std::size_t) {
      delays[i] = core::total_delay(line, buffer, candidates[i], fit);
    });
  };
}

core::OptimizedDesign SweepEngine::optimize_repeater(const tline::LineParams& line,
                                                     const core::MinBuffer& buffer,
                                                     double min_sections) const {
  return core::optimize(line, buffer, impl_->options.fit, min_sections,
                        repeater_batch());
}

}  // namespace rlcsim::sweep
