#include "sim/transient.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "numeric/sparse.h"
#include "obs/obs.h"

namespace rlcsim::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double node_voltage_of(const std::vector<double>& v, NodeId n) {
  return n == kGround ? 0.0 : v[static_cast<std::size_t>(n)];
}

bool same_structure(const numeric::SparsePattern& a, const numeric::SparsePattern& b) {
  return a.n == b.n && a.row_ptr == b.row_ptr && a.col_idx == b.col_idx;
}

}  // namespace

void collect_source_breakpoints(const SourceSpec& spec, double t_stop,
                                std::set<double>& out) {
  if (const auto* step = std::get_if<StepSpec>(&spec)) {
    if (step->delay <= t_stop) out.insert(step->delay);
    if (step->rise > 0.0 && step->delay + step->rise <= t_stop)
      out.insert(step->delay + step->rise);
    return;
  }
  if (const auto* pwl = std::get_if<PwlSpec>(&spec)) {
    for (const auto& [t, _] : pwl->points)
      if (t >= 0.0 && t <= t_stop) out.insert(t);
    return;
  }
  if (const auto* pulse = std::get_if<PulseSpec>(&spec)) {
    const bool repeats = pulse->period > 0.0;
    // Every cycle whose base lies inside [0, t_stop] contributes edges; the
    // count is bounded by t_stop/period, not by an arbitrary cycle cap. A
    // simulation must land a step on each edge anyway, so a cycle count no
    // run could ever integrate is a spec error, not something to truncate
    // silently: fail loudly instead of exhausting memory.
    constexpr double kMaxPulseCycles = 1'000'000;
    const double cycles =
        repeats ? std::floor((t_stop - pulse->delay) / pulse->period) : 0.0;
    // Compare BEFORE casting: a double beyond int64 range would make the
    // cast undefined and could skip this guard entirely.
    if (cycles > kMaxPulseCycles)
      throw std::invalid_argument(
          "collect_source_breakpoints: pulse period is so small that t_stop "
          "covers more than 1e6 cycles; refusing to enumerate breakpoints");
    const std::int64_t last_cycle = static_cast<std::int64_t>(cycles);
    for (std::int64_t cycle = 0; cycle <= last_cycle; ++cycle) {
      const double base = pulse->delay + static_cast<double>(cycle) * pulse->period;
      if (base > t_stop) break;
      const double edges[4] = {base, base + pulse->rise, base + pulse->rise + pulse->width,
                               base + pulse->rise + pulse->width + pulse->fall};
      for (double e : edges)
        if (e <= t_stop) out.insert(e);
    }
  }
}

std::vector<double> dc_operating_point(const Circuit& circuit, double gmin) {
  const MnaAssembler assembler(circuit);
  TransientState empty;
  empty.buffer_fire_time.assign(circuit.buffers().size(), kInf);
  return numeric::RealSparseLu(assembler.dc_sparse(gmin))
      .solve(assembler.dc_rhs(0.0, empty));
}

TransientResult run_transient(const Circuit& circuit, const TransientOptions& options) {
  OBS_SPAN("transient.run");
  OBS_COUNTER_ADD("transient.runs", 1);
  if (!(options.t_stop > 0.0))
    throw std::invalid_argument("run_transient: t_stop must be > 0");
  const double dt_nominal =
      options.dt > 0.0 ? options.dt : options.t_stop / 4000.0;
  if (dt_nominal >= options.t_stop)
    throw std::invalid_argument("run_transient: dt must be < t_stop");
  // The lower bound keeps dt/dt_quantum inside int64 range for the LU-cache
  // quantization below (1e-12 still allows million-fold event-step refinement).
  if (!(options.min_dt_fraction >= 1e-12) || options.min_dt_fraction > 1.0)
    throw std::invalid_argument(
        "run_transient: min_dt_fraction must be in [1e-12, 1]");

  const MnaAssembler assembler(circuit);

  // --- cross-run symbolic reuse (sweep hot path) ---------------------------
  // Adopt the caller's recorded patterns when they structurally match this
  // circuit's, so the recorded symbolic factorizations can be replayed; on a
  // mismatch the reuse state is re-seeded from this run.
  // `reuse` is the replay pointer; options.reuse counts every full
  // factorization this run performs, even when a mismatch disables replay.
  SolverReuse* reuse = options.reuse;
  numeric::SparsePatternPtr system_pattern = assembler.system_pattern();
  if (reuse) {
    if (!reuse->system_pattern) {
      reuse->system_pattern = system_pattern;  // first run seeds the record
    } else if (same_structure(*reuse->system_pattern, *system_pattern)) {
      system_pattern = reuse->system_pattern;
    } else {
      // Different topology: run without reuse and leave the record alone.
      // Re-seeding here would make later runs' pivot order depend on which
      // circuit a worker happened to see first — breaking the sweep
      // engine's bit-identical-at-any-thread-count guarantee.
      reuse = nullptr;
    }
  }

  // --- initial state from the DC operating point --------------------------
  TransientState state;
  {
    TransientState empty;
    empty.buffer_fire_time.assign(circuit.buffers().size(), kInf);
    const auto rhs = assembler.dc_rhs(0.0, empty);
    std::vector<double> dc_solution;
    numeric::RealSparse dc = assembler.dc_sparse(options.dc_gmin);
    SolverReuse* dc_reuse = reuse;
    if (dc_reuse) {
      if (!dc_reuse->dc_pattern) {
        dc_reuse->dc_pattern = dc.pattern_ptr();
      } else if (same_structure(*dc_reuse->dc_pattern, dc.pattern())) {
        dc = numeric::RealSparse(dc_reuse->dc_pattern, std::move(dc.values()));
      } else {
        dc_reuse = nullptr;  // same rationale as the system pattern above
      }
    }
    if (dc_reuse && dc_reuse->dc_symbolic) {
      numeric::RealSparseLu lu(*dc_reuse->dc_symbolic);  // copy: reuse symbolic
      if (lu.refactor(dc)) ++options.reuse->symbolic_factorizations;
      dc_solution = lu.solve(rhs);
    } else {
      numeric::RealSparseLu lu(dc);
      if (options.reuse) ++options.reuse->symbolic_factorizations;
      if (dc_reuse)
        dc_reuse->dc_symbolic = std::make_shared<const numeric::RealSparseLu>(lu);
      dc_solution = lu.solve(rhs);
    }
    state = assembler.initial_state(dc_solution);
  }

  // --- breakpoints ---------------------------------------------------------
  std::set<double> breakpoints;
  breakpoints.insert(0.0);
  breakpoints.insert(options.t_stop);
  for (const auto& v : circuit.voltage_sources())
    collect_source_breakpoints(v.spec, options.t_stop, breakpoints);
  for (const auto& i : circuit.current_sources())
    collect_source_breakpoints(i.spec, options.t_stop, breakpoints);

  // --- LU cache keyed by (quantized dt, integrator) ------------------------
  // Step sizes are snapped to multiples of `dt_quantum` before factorizing,
  // so breakpoint-clipped dts that differ only in the last few ulps share a
  // factorization instead of each paying a fresh one. The snap error is at
  // most half a quantum (= 0.5 * min_dt_fraction * dt_nominal), far below
  // the breakpoint landing tolerance.
  const double dt_quantum = dt_nominal * options.min_dt_fraction;
  const auto quantize = [&](double dt) {
    return static_cast<std::int64_t>(std::llround(dt / dt_quantum));
  };

  std::map<std::pair<std::int64_t, int>, numeric::RealSparseLu> lu_cache;
  std::size_t factorizations = 0;
  // All numeric factorizations share one symbolic analysis: the one
  // recorded in `reuse` from a previous compatible run when available (the
  // pattern never changes within a run, and a sweep's does not change across
  // runs either), else the first factorization of this run.
  const numeric::RealSparseLu* symbolic_donor =
      (reuse && reuse->system_symbolic) ? reuse->system_symbolic.get() : nullptr;
  if (symbolic_donor) {
    ++reuse->reuse_hits;
    OBS_COUNTER_ADD("reuse.solver_hits", 1);
  } else {
    OBS_COUNTER_ADD("reuse.solver_misses", 1);
  }
  std::vector<double> system_values;  // reused CSR value buffer

  const auto factorized = [&](double dt,
                              Integrator method) -> const numeric::RealSparseLu& {
    const auto key = std::make_pair(quantize(dt), static_cast<int>(method));
    auto it = lu_cache.find(key);
    if (it != lu_cache.end()) {
      OBS_COUNTER_ADD("cache.lu_dt.hits", 1);
    } else {
      OBS_COUNTER_ADD("cache.lu_dt.misses", 1);
    }
    if (it == lu_cache.end()) {
      assembler.system_values(MnaAssembler::transient_scale(dt, method),
                              system_values);
      const numeric::RealSparse a(system_pattern, system_values);
      if (symbolic_donor) {
        numeric::RealSparseLu factor(*symbolic_donor);  // copy: reuse symbolic
        if (factor.refactor(a) && options.reuse)
          ++options.reuse->symbolic_factorizations;
        it = lu_cache.emplace(key, std::move(factor)).first;
      } else {
        it = lu_cache.emplace(key, numeric::RealSparseLu(a)).first;
        if (options.reuse) ++options.reuse->symbolic_factorizations;
        symbolic_donor = &it->second;
        if (reuse)
          reuse->system_symbolic =
              std::make_shared<const numeric::RealSparseLu>(it->second);
      }
      ++factorizations;
    }
    return it->second;
  };

  // --- recording -----------------------------------------------------------
  std::vector<double> times;
  std::map<std::string, std::vector<double>> node_values;
  const std::size_t n_nodes = circuit.node_count();
  std::vector<std::vector<double>*> columns(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i)
    columns[i] = &node_values[circuit.node_name(static_cast<NodeId>(i))];
  const auto record = [&](const TransientState& s) {
    times.push_back(s.time);
    for (std::size_t i = 0; i < n_nodes; ++i) columns[i]->push_back(s.node_voltage[i]);
  };
  record(state);

  // --- main loop -----------------------------------------------------------
  const double min_dt = dt_nominal * options.min_dt_fraction;
  int be_steps_left = options.be_steps_after_breakpoint;
  std::size_t steps = 0;
  const auto& buffers = circuit.buffers();
  std::vector<double> solution;  // reused RHS/solution buffer

  // Marks a buffer fired at the CURRENT state time: the fire instant becomes
  // a breakpoint, and so does the end of its output ramp (a slope
  // discontinuity the step grid must land on, like a StepSpec corner).
  const auto fire_buffer = [&](int k) {
    state.buffer_fire_time[static_cast<std::size_t>(k)] = state.time;
    breakpoints.insert(state.time);
    const double rise = buffers[static_cast<std::size_t>(k)].output_rise;
    if (rise > 0.0 && state.time + rise < options.t_stop)
      breakpoints.insert(state.time + rise);
  };

  while (state.time < options.t_stop - 0.5 * min_dt) {
    // Distance to the next breakpoint bounds the step; snap to the cache
    // quantization grid so the factorization and the RHS use the same dt.
    const auto next_bp = breakpoints.upper_bound(state.time + 0.5 * min_dt);
    const double bp_time = (next_bp != breakpoints.end()) ? *next_bp : options.t_stop;
    double dt = std::min(dt_nominal, bp_time - state.time);
    dt = std::min(dt, options.t_stop - state.time);
    dt = static_cast<double>(quantize(dt)) * dt_quantum;
    if (dt <= 0.0) break;

    const Integrator method =
        (be_steps_left > 0) ? Integrator::kBackwardEuler : options.integrator;

    assembler.transient_rhs_into(dt, method, state, solution);
    factorized(dt, method).solve_in_place(solution);

    // Buffer event detection: did any unfired buffer's input cross its
    // threshold during this step? On a symmetric bus several buffers cross
    // SIMULTANEOUSLY (identical lines switching together), so events are a
    // cluster, not a single buffer: everything within a small fraction of
    // the step of the earliest crossing fires together (the interpolated
    // times of "identical" crossings differ by rounding noise only). Firing
    // one alone would leave its twins parked exactly AT their threshold,
    // where a strict crossing test can never trigger again — so an unfired
    // buffer already at/past its threshold also counts as a crossing, at
    // the step start (the belt-and-braces recovery for any parked state).
    double earliest_event = kInf;  // earliest INTERPOLATED crossing
    std::vector<std::pair<double, std::size_t>> crossings;  // (tc, buffer)
    for (std::size_t k = 0; k < buffers.size(); ++k) {
      if (state.buffer_fire_time[k] != kInf) continue;
      const auto& b = buffers[k];
      const double level = b.threshold * b.vdd;
      const double v_old = node_voltage_of(state.node_voltage, b.input);
      const double v_new = node_voltage_of(solution, b.input);
      const bool past_old =
          b.input_direction >= 0 ? v_old >= level : v_old <= level;
      const bool past_new =
          b.input_direction >= 0 ? v_new >= level : v_new <= level;
      if (!past_old && !past_new) continue;
      if (past_old) {
        // Parked at/past threshold (the simultaneity recovery): fires at
        // whatever time this step settles on, and — crucially — does NOT
        // enter the subdivision decision, or its step-start tc would mask a
        // genuine mid-step crossing of another buffer.
        crossings.emplace_back(state.time, k);
        continue;
      }
      const double tc =
          state.time + dt * (level - v_old) / (v_new - v_old);
      crossings.emplace_back(tc, k);
      earliest_event = std::min(earliest_event, tc);
    }
    const bool have_event = !crossings.empty();
    const double cluster_window = 1e-6 * dt;

    if (have_event && earliest_event > state.time + min_dt &&
        earliest_event < state.time + dt * (1.0 - 1e-9)) {
      // Reject; re-take the step so it ends exactly at the crossing, firing
      // the whole cluster there — parked buffers included (later crossings
      // stay unfired and are re-detected from the shortened step's end
      // state).
      const double dt_event =
          static_cast<double>(quantize(earliest_event - state.time)) * dt_quantum;
      assembler.transient_rhs_into(dt_event, method, state, solution);
      factorized(dt_event, method).solve_in_place(solution);
      assembler.advance_state(solution, dt_event, method, state);
      for (const auto& [tc, k] : crossings)
        if (tc <= earliest_event + cluster_window)
          fire_buffer(static_cast<int>(k));
      be_steps_left = options.be_steps_after_breakpoint;
      record(state);
      ++steps;
      continue;
    }

    const bool lands_on_breakpoint =
        std::fabs((state.time + dt) - bp_time) <= 0.5 * min_dt;
    assembler.advance_state(solution, dt, method, state);
    if (have_event) {
      // Crossing at (or numerically at) the step end — or too close to the
      // step start to subdivide: fire every detected crossing here.
      for (const auto& [tc, k] : crossings) fire_buffer(static_cast<int>(k));
      be_steps_left = options.be_steps_after_breakpoint;
    } else if (lands_on_breakpoint) {
      be_steps_left = options.be_steps_after_breakpoint;
    } else if (be_steps_left > 0) {
      --be_steps_left;
    }
    record(state);
    ++steps;
  }

  OBS_COUNTER_ADD("transient.steps", steps);
  TransientResult result;
  result.waveforms = WaveformSet(std::move(times), std::move(node_values));
  result.buffer_fire_times = state.buffer_fire_time;
  result.steps_taken = steps;
  result.lu_factorizations = factorizations;
  return result;
}

}  // namespace rlcsim::sim
