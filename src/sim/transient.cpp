#include "sim/transient.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "numeric/interpolate.h"
#include "numeric/sparse.h"
#include "numeric/sparse_batch.h"
#include "obs/obs.h"
#include "sim/transient_batch.h"

// Every transient result is memcmp'd across lane widths; excess-precision
// double evaluation would fork them (see numeric/fp_env.h).
static_assert(FLT_EVAL_METHOD == 0,
              "rlcsim batch kernels require FLT_EVAL_METHOD == 0 "
              "(strict double evaluation)");

namespace rlcsim::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double nominal_dt(const TransientOptions& options) {
  return options.dt > 0.0 ? options.dt : options.t_stop / 4000.0;
}

// The option diagnostics run_transient and measure_transient throw; nullptr
// when the options are valid. run_batched_crossings declines instead, so the
// caller's per-point first_crossing raises them.
const char* option_error(const TransientOptions& options) {
  if (!(options.t_stop > 0.0)) return "run_transient: t_stop must be > 0";
  if (!(options.dt >= 0.0))
    return "run_transient: dt must be >= 0 (0 selects t_stop / 4000)";
  if (nominal_dt(options) >= options.t_stop)
    return "run_transient: dt must be < t_stop";
  // The lower bound keeps dt/dt_quantum inside int64 range for the LU-cache
  // quantization (1e-12 still allows million-fold event-step refinement).
  if (!(options.min_dt_fraction >= 1e-12) || options.min_dt_fraction > 1.0)
    return "run_transient: min_dt_fraction must be in [1e-12, 1]";
  return nullptr;
}

std::set<double> breakpoints_of(const Circuit& circuit, double t_stop) {
  std::set<double> breakpoints;
  breakpoints.insert(0.0);
  breakpoints.insert(t_stop);
  for (const auto& v : circuit.voltage_sources())
    collect_source_breakpoints(v.spec, t_stop, breakpoints);
  for (const auto& i : circuit.current_sources())
    collect_source_breakpoints(i.spec, t_stop, breakpoints);
  return breakpoints;
}

// True when `b` has `a`'s element counts and node/branch indices, so the
// kernels can walk lane 0's topology for every lane. Only VALUES may differ.
bool same_topology(const Circuit& a, const Circuit& b) {
  const auto same = [](const auto& x, const auto& y, auto&& equal) {
    if (x.size() != y.size()) return false;
    for (std::size_t k = 0; k < x.size(); ++k)
      if (!equal(x[k], y[k])) return false;
    return true;
  };
  const auto two_nodes = [](const auto& x, const auto& y) {
    return x.n1 == y.n1 && x.n2 == y.n2;
  };
  return a.node_count() == b.node_count() &&
         same(a.capacitors(), b.capacitors(), two_nodes) &&
         same(a.inductors(), b.inductors(), two_nodes) &&
         same(a.mutuals(), b.mutuals(),
              [](const auto& x, const auto& y) {
                return x.inductor_a == y.inductor_a && x.inductor_b == y.inductor_b;
              }) &&
         same(a.voltage_sources(), b.voltage_sources(),
              [](const auto& x, const auto& y) {
                return x.positive == y.positive && x.negative == y.negative;
              }) &&
         same(a.current_sources(), b.current_sources(), [](const auto& x, const auto& y) {
           return x.to == y.to && x.from == y.from;
         });
}

// Which entry point drives the engine. Both step the same way and differ in
// bookkeeping: a scalar run (run_transient or measure_transient, one lane) may
// seed an empty SolverReuse and factorizes fresh when nothing is recorded; a
// batch (run_batched_crossings) only replays a complete record, declines
// lanes that cannot share one step grid, and counts ejected lanes.
enum class Caller { kScalar, kBatch };

struct LockstepStats {
  std::size_t steps = 0;
  std::size_t factorizations = 0;  // LU-cache misses
  std::vector<double> buffer_fire_times;
};

// Companion coefficients of one (dt, integrator) key, per element and lane:
// g = (trap ? 2 : 1) * C / dt for capacitors, the inductor and mutual
// history factors likewise, each the exact expression of the scalar
// reference. Every dt the engine steps with is a whole number of quanta, so
// the key determines dt and caching by key is value-exact.
struct StepCoeffs {
  std::int64_t key = std::numeric_limits<std::int64_t>::min();
  int method = -1;
  std::vector<double> cap_g, ind_h, mut_h;
};

// Adopts a SolverReuse pattern slot for lanes with `patterns`: an empty slot
// is seeded with lane 0's, a recorded one must match every lane
// structurally. A mismatch returns false and leaves the slot alone:
// re-seeding would make later runs' pivot order depend on which circuit a
// worker saw first, breaking the sweeps' bit-identity at any thread count.
bool adopt_pattern(numeric::SparsePatternPtr& slot,
                   const std::vector<numeric::SparsePatternPtr>& patterns) {
  if (!slot) {
    slot = patterns[0];
    return true;
  }
  return std::all_of(patterns.begin(), patterns.end(),
                     [&](const auto& p) { return numeric::same_structure(*slot, *p); });
}

// The one transient engine: W circuits of one topology stepped in lockstep
// over one step grid, every solve a SparseLuBatch over one symbolic
// factorization. State and element values are lane-major SoA arrays
// (value[element * W + lane]); each kernel performs, per lane, the
// arithmetic of MnaAssembler::transient_rhs_into / advance_state in the same
// order, so a lane's bits do not depend on W. record(time, node_voltages)
// sees the initial state and every accepted step (W values per node) and
// returns whether to go on: false ends the run after that sample. Returns
// std::nullopt when a batch cannot run; the caller then steps its circuits
// one by one. A scalar run never declines.
template <std::size_t W, typename Record>
std::optional<LockstepStats> run_lockstep(const std::vector<const Circuit*>& circuits,
                                          const TransientOptions& options,
                                          Caller caller, Record&& record) {
  const bool batch = caller == Caller::kBatch;
  const std::size_t lanes = circuits.size();  // == W
  // A batch replays RECORDED symbolic factorizations; without a complete
  // record each lane would pay (and pivot) its own analysis, which is what
  // run_transient per point does.
  SolverReuse* replay = options.reuse;
  if (batch && !(replay && replay->system_pattern && replay->system_symbolic &&
                 replay->dc_pattern && replay->dc_symbolic))
    return std::nullopt;

  const Circuit& c0 = *circuits[0];
  std::vector<MnaAssembler> assemblers;
  assemblers.reserve(lanes);
  for (const Circuit* circuit : circuits) {
    // Buffers move the step grid by state-dependent events, so only
    // buffer-free lanes can share one.
    if (batch && !circuit->buffers().empty()) return std::nullopt;
    if (circuit != &c0 && !same_topology(c0, *circuit)) return std::nullopt;
    assemblers.emplace_back(*circuit);
  }
  // Buffer-free lanes step on source corners only, so equal breakpoint sets
  // mean one (state-independent) step grid.
  std::set<double> breakpoints = breakpoints_of(c0, options.t_stop);
  for (const Circuit* circuit : circuits)
    if (circuit != &c0 && breakpoints_of(*circuit, options.t_stop) != breakpoints)
      return std::nullopt;

  // --- cross-run symbolic reuse: `replay` is the record this run replays or
  // seeds (null after a mismatch); options.reuse counts every factorization.
  std::vector<numeric::SparsePatternPtr> patterns;
  for (const MnaAssembler& a : assemblers) patterns.push_back(a.system_pattern());
  if (replay && !adopt_pattern(replay->system_pattern, patterns)) {
    if (batch) return std::nullopt;
    replay = nullptr;
  }
  const numeric::SparsePatternPtr system_pattern =
      replay ? replay->system_pattern : patterns[0];
  std::vector<numeric::RealSparse> dc;
  patterns.clear();
  for (const MnaAssembler& a : assemblers) {
    dc.push_back(a.dc_sparse(options.dc_gmin));
    patterns.push_back(dc.back().pattern_ptr());
  }
  SolverReuse* dc_replay = replay;
  if (dc_replay && !adopt_pattern(dc_replay->dc_pattern, patterns)) {
    if (batch) return std::nullopt;
    dc_replay = nullptr;
  }
  const auto count_full_factorization = [&] {
    if (options.reuse) ++options.reuse->symbolic_factorizations;
  };
  // Zero-pivot re-pivots are full factorizations too. Ejected lanes count
  // for batches only: a scalar run has no lanes to eject.
  const auto refactor_counted = [&](numeric::SparseLuBatch& lu,
                                    const numeric::BatchedValues& values) {
    const std::size_t repivots = lu.refactor(values);
    if (!options.reuse) return;
    options.reuse->symbolic_factorizations += repivots;
    if (batch) options.reuse->ejected_lanes += lu.ejected_lane_count();
  };

  // --- DC operating point --------------------------------------------------
  const std::size_t unknowns = assemblers[0].unknown_count();
  numeric::BatchedValues dc_values(dc[0].values().size(), lanes);
  numeric::BatchedValues dc_solution(unknowns, lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    dc_values.set_lane(lane, dc[lane].values());
    dc_solution.set_lane(lane, assemblers[lane].dc_rhs(0.0, TransientState{}));
  }
  std::shared_ptr<const numeric::RealSparseLu> dc_symbolic =
      dc_replay ? dc_replay->dc_symbolic : nullptr;
  if (!dc_symbolic) {
    dc_symbolic = std::make_shared<const numeric::RealSparseLu>(dc[0]);
    count_full_factorization();
    if (dc_replay) dc_replay->dc_symbolic = dc_symbolic;
  }
  numeric::SparseLuBatch dc_lu(*dc_symbolic, lanes);
  refactor_counted(dc_lu, dc_values);
  dc_lu.solve_in_place(dc_solution);
  // Work counts of this run (the DC solve is its first solve), added to the
  // obs counters once at its end.
  std::size_t solves = 1, lu_hits = 0, lu_misses = 0;

  // Every numeric factorization shares one symbolic analysis: the recorded
  // one when available, else this run's first factorization.
  std::shared_ptr<const numeric::RealSparseLu> symbolic =
      replay ? replay->system_symbolic : nullptr;
  if (symbolic) {
    replay->reuse_hits += lanes;
    OBS_COUNTER_ADD("reuse.solver_hits", lanes);
  } else {
    OBS_COUNTER_ADD("reuse.solver_misses", 1);
  }

  // --- lane-major element tables over lane 0's topology --------------------
  // Buffer input capacitances extend the capacitor table to ground, so the
  // capacitor kernel carries their companions too. Buffers, like all buffer
  // state below, are lane 0's: buffered circuits only run at W = 1.
  const std::size_t n_nodes = c0.node_count();
  const auto& inductors0 = c0.inductors();
  const auto& mutuals0 = c0.mutuals();
  const auto& vsources0 = c0.voltage_sources();
  const auto& isources0 = c0.current_sources();
  const std::vector<Buffer>& buffers = c0.buffers();
  std::vector<NodeId> cap_n1, cap_n2;
  for (const Capacitor& c : c0.capacitors()) {
    cap_n1.push_back(c.n1);
    cap_n2.push_back(c.n2);
  }
  for (const Buffer& b : buffers) {
    if (b.input_capacitance <= 0.0) continue;
    cap_n1.push_back(b.input);
    cap_n2.push_back(kGround);
  }
  const std::size_t n_caps = cap_n1.size();
  const std::size_t n_inductors = inductors0.size();
  std::vector<double> cap_c(n_caps * W), ind_l(n_inductors * W), mut_m(mutuals0.size() * W);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const Circuit& c = *circuits[lane];
    std::size_t slot = 0;
    for (const Capacitor& cap : c.capacitors()) cap_c[slot++ * W + lane] = cap.capacitance;
    for (const Buffer& b : c.buffers())
      if (b.input_capacitance > 0.0) cap_c[slot++ * W + lane] = b.input_capacitance;
    for (std::size_t k = 0; k < n_inductors; ++k)
      ind_l[k * W + lane] = c.inductors()[k].inductance;
    for (std::size_t k = 0; k < mutuals0.size(); ++k)
      mut_m[k * W + lane] = c.mutuals()[k].mutual;
  }
  std::vector<std::size_t> ind_branch, vsrc_branch;
  for (std::size_t k = 0; k < n_inductors; ++k)
    ind_branch.push_back(assemblers[0].inductor_branch(k));
  for (std::size_t k = 0; k < vsources0.size(); ++k)
    vsrc_branch.push_back(assemblers[0].vsource_branch(k));

  // --- initial state (MnaAssembler::initial_state, lane-major): node
  // voltages are the first n_nodes solution slots, capacitor histories start
  // at zero, inductor currents come from their branch unknowns, and no
  // buffer has fired.
  double time = 0.0;
  std::vector<double> nv(dc_solution.data(), dc_solution.data() + n_nodes * W);
  std::vector<double> cap_i(n_caps * W, 0.0), ind_i(n_inductors * W);
  for (std::size_t k = 0; k < n_inductors; ++k)
    for (std::size_t lane = 0; lane < lanes; ++lane)
      ind_i[k * W + lane] = dc_solution.at(ind_branch[k], lane);
  LockstepStats stats;
  std::vector<double>& fire = stats.buffer_fire_times;
  fire.assign(buffers.size(), kInf);

  // --- LU cache keyed by (quantized dt, integrator) ------------------------
  // Step sizes are snapped to multiples of `dt_quantum`, so breakpoint-
  // clipped dts that differ only in the last few ulps share a factorization.
  // The snap error is at most half a quantum, far below the breakpoint
  // landing tolerance. last_* short-circuits the map on the steady run of
  // equal steps.
  const double dt_nominal = nominal_dt(options);
  const double dt_quantum = dt_nominal * options.min_dt_fraction;
  const auto quantize = [&](double dt) {
    return static_cast<std::int64_t>(std::llround(dt / dt_quantum));
  };
  std::map<std::pair<std::int64_t, int>, numeric::SparseLuBatch> lu_cache;
  std::pair<std::int64_t, int> last_key{std::numeric_limits<std::int64_t>::min(), -1};
  const numeric::SparseLuBatch* last_factor = nullptr;
  numeric::BatchedValues system_values(static_cast<std::size_t>(system_pattern->nnz()),
                                       lanes);
  const auto factorized = [&](double dt,
                              Integrator method) -> const numeric::SparseLuBatch& {
    const auto key = std::make_pair(quantize(dt), static_cast<int>(method));
    const bool last = last_factor != nullptr && key == last_key;
    auto it = last ? lu_cache.end() : lu_cache.find(key);
    const bool hit = last || it != lu_cache.end();
    ++(hit ? lu_hits : lu_misses);
    if (last) return *last_factor;
    if (!hit) {
      const double scale = MnaAssembler::transient_scale(dt, method);
      for (std::size_t lane = 0; lane < lanes; ++lane)
        assemblers[lane].stamp_values_into(scale, system_values, lane);
      if (!symbolic) {
        std::vector<double> values;
        system_values.extract_lane(0, values);
        symbolic = std::make_shared<const numeric::RealSparseLu>(
            numeric::RealSparse(system_pattern, std::move(values)));
        count_full_factorization();
        if (replay) replay->system_symbolic = symbolic;
      }
      numeric::SparseLuBatch factor(*symbolic, lanes);
      refactor_counted(factor, system_values);
      it = lu_cache.emplace(key, std::move(factor)).first;
      ++stats.factorizations;
    }
    last_key = key;
    last_factor = &it->second;
    return *last_factor;
  };

  StepCoeffs coeffs;
  coeffs.cap_g.resize(cap_c.size());
  coeffs.ind_h.resize(ind_l.size());
  coeffs.mut_h.resize(mut_m.size());
  const auto coeffs_for = [&](double dt, Integrator method) -> const StepCoeffs& {
    const std::int64_t key = quantize(dt);
    if (coeffs.key == key && coeffs.method == static_cast<int>(method)) return coeffs;
    const bool trap = method == Integrator::kTrapezoidal;
    for (std::size_t i = 0; i < cap_c.size(); ++i)
      coeffs.cap_g[i] = (trap ? 2.0 : 1.0) * cap_c[i] / dt;
    for (std::size_t i = 0; i < ind_l.size(); ++i)
      coeffs.ind_h[i] = trap ? 2.0 * ind_l[i] / dt : ind_l[i] / dt;
    const double mutual_factor = trap ? 2.0 : 1.0;
    for (std::size_t i = 0; i < mut_m.size(); ++i)
      coeffs.mut_h[i] = mutual_factor * mut_m[i] / dt;
    coeffs.key = key;
    coeffs.method = static_cast<int>(method);
    return coeffs;
  };

  // Transient RHS: transient_rhs_into with the lane loop innermost. The
  // kernels use the LU solve program's vectorization recipe —
  // restrict-qualified base pointers, per-element staging arrays, and
  // `#pragma GCC unroll 1` to keep the lane loops as loops — because the
  // same phantom store/load aliasing otherwise compiles them scalar.
  const auto rhs_into = [&](double dt, Integrator method, const StepCoeffs& coeff,
                            numeric::BatchedValues& rhs) {
    // Only the node rows accumulate (+=) and need clearing: every branch
    // row, inductor and voltage source alike, is assigned (=) below.
    std::fill_n(rhs.data(), n_nodes * W, 0.0);
    double* __restrict const r = rhs.data();
    const double* __restrict const nvp = nv.data();
    const double* __restrict const ci = cap_i.data();
    const double* __restrict const ii = ind_i.data();
    const double* __restrict const cg = coeff.cap_g.data();
    const double* __restrict const ih = coeff.ind_h.data();
    const double* __restrict const mh = coeff.mut_h.data();
    const double t_next = time + dt;
    const bool trap = method == Integrator::kTrapezoidal;

    // Capacitor companions, buffer input capacitances included.
    double hist[W];
    for (std::size_t k = 0; k < n_caps; ++k) {
      const NodeId n1 = cap_n1[k], n2 = cap_n2[k];
#pragma GCC unroll 1
      for (std::size_t lane = 0; lane < W; ++lane) {
        const double v_prev =
            (n1 == kGround ? 0.0 : nvp[static_cast<std::size_t>(n1) * W + lane]) -
            (n2 == kGround ? 0.0 : nvp[static_cast<std::size_t>(n2) * W + lane]);
        const double g = cg[k * W + lane];
        hist[lane] = trap ? g * v_prev + ci[k * W + lane] : g * v_prev;
      }
      if (n1 != kGround) {
        double* __restrict const rn = r + static_cast<std::size_t>(n1) * W;
#pragma GCC unroll 1
        for (std::size_t lane = 0; lane < W; ++lane) rn[lane] += hist[lane];
      }
      if (n2 != kGround) {
        double* __restrict const rn = r + static_cast<std::size_t>(n2) * W;
#pragma GCC unroll 1
        for (std::size_t lane = 0; lane < W; ++lane) rn[lane] -= hist[lane];
      }
    }

    // Inductor branch histories.
    for (std::size_t k = 0; k < n_inductors; ++k) {
      const NodeId n1 = inductors0[k].n1, n2 = inductors0[k].n2;
      double* __restrict const rj = r + ind_branch[k] * W;
#pragma GCC unroll 1
      for (std::size_t lane = 0; lane < W; ++lane) {
        const double v_prev =
            (n1 == kGround ? 0.0 : nvp[static_cast<std::size_t>(n1) * W + lane]) -
            (n2 == kGround ? 0.0 : nvp[static_cast<std::size_t>(n2) * W + lane]);
        if (trap)
          rj[lane] = -v_prev - ih[k * W + lane] * ii[k * W + lane];
        else
          rj[lane] = -ih[k * W + lane] * ii[k * W + lane];
      }
    }
    // Mutual-coupling history terms mirror the matrix cross stamps. The two
    // updates hit two DIFFERENT branch rows (ia != ib), so splitting them
    // into separate lane loops preserves each row's += sequence.
    for (std::size_t k = 0; k < mutuals0.size(); ++k) {
      const std::size_t ia = mutuals0[k].inductor_a, ib = mutuals0[k].inductor_b;
      double* __restrict const ra = r + ind_branch[ia] * W;
      double* __restrict const rb = r + ind_branch[ib] * W;
#pragma GCC unroll 1
      for (std::size_t lane = 0; lane < W; ++lane)
        ra[lane] -= mh[k * W + lane] * ii[ib * W + lane];
#pragma GCC unroll 1
      for (std::size_t lane = 0; lane < W; ++lane)
        rb[lane] -= mh[k * W + lane] * ii[ia * W + lane];
    }

    // Sources evaluated at the END of the step (implicit methods).
    for (std::size_t k = 0; k < vsources0.size(); ++k) {
      double* __restrict const rj = r + vsrc_branch[k] * W;
#pragma GCC unroll 1
      for (std::size_t lane = 0; lane < W; ++lane)
        rj[lane] = source_value(circuits[lane]->voltage_sources()[k].spec, t_next);
    }
    for (std::size_t k = 0; k < isources0.size(); ++k) {
      const NodeId to = isources0[k].to, from = isources0[k].from;
#pragma GCC unroll 1
      for (std::size_t lane = 0; lane < W; ++lane) {
        const double i = source_value(circuits[lane]->current_sources()[k].spec, t_next);
        if (to != kGround) r[static_cast<std::size_t>(to) * W + lane] += i;
        if (from != kGround) r[static_cast<std::size_t>(from) * W + lane] -= i;
      }
    }
    // Buffer Norton drives (lane 0; buffered circuits never batch).
    for (std::size_t k = 0; k < buffers.size(); ++k) {
      const Buffer& b = buffers[k];
      const double v = MnaAssembler::buffer_drive(b, fire[k], t_next);
      if (b.output != kGround)
        r[static_cast<std::size_t>(b.output) * W] += v / b.output_resistance;
    }
  };

  // Post-solve update: advance_state's history recurrences over the SoA
  // state. The capacitor loop reads the OLD node voltages, which are only
  // overwritten afterwards. The restrict locals live in an inner block so
  // the trailing copy through nv.data() does not overlap their scope.
  const auto advance = [&](const numeric::BatchedValues& sol, double dt,
                           Integrator method, const StepCoeffs& coeff) {
    const bool trap = method == Integrator::kTrapezoidal;
    {
      const double* __restrict const s = sol.data();
      const double* __restrict const nvp = nv.data();
      double* __restrict const ci = cap_i.data();
      double* __restrict const ii = ind_i.data();
      const double* __restrict const cg = coeff.cap_g.data();
      for (std::size_t k = 0; k < n_caps; ++k) {
        const NodeId n1 = cap_n1[k], n2 = cap_n2[k];
#pragma GCC unroll 1
        for (std::size_t lane = 0; lane < W; ++lane) {
          const double v_old =
              (n1 == kGround ? 0.0 : nvp[static_cast<std::size_t>(n1) * W + lane]) -
              (n2 == kGround ? 0.0 : nvp[static_cast<std::size_t>(n2) * W + lane]);
          const double v_new =
              (n1 == kGround ? 0.0 : s[static_cast<std::size_t>(n1) * W + lane]) -
              (n2 == kGround ? 0.0 : s[static_cast<std::size_t>(n2) * W + lane]);
          const double g = cg[k * W + lane];
          ci[k * W + lane] =
              trap ? g * (v_new - v_old) - ci[k * W + lane] : g * (v_new - v_old);
        }
      }
      for (std::size_t k = 0; k < n_inductors; ++k) {
        const double* __restrict const sj = s + ind_branch[k] * W;
#pragma GCC unroll 1
        for (std::size_t lane = 0; lane < W; ++lane) ii[k * W + lane] = sj[lane];
      }
    }
    std::copy_n(sol.data(), n_nodes * W, nv.data());
    time += dt;
  };

  // Marks a buffer fired at the CURRENT time: the fire instant becomes a
  // breakpoint, and so does the end of its output ramp (a slope
  // discontinuity the step grid must land on, like a StepSpec corner).
  const auto fire_buffer = [&](std::size_t k) {
    fire[k] = time;
    breakpoints.insert(time);
    const double rise = buffers[k].output_rise;
    if (rise > 0.0 && time + rise < options.t_stop) breakpoints.insert(time + rise);
  };
  const auto lane0_voltage = [](const double* v, NodeId n) {
    return n == kGround ? 0.0 : v[static_cast<std::size_t>(n) * W];
  };

  bool go_on = record(time, nv.data());
  const double min_dt = dt_quantum;
  int be_steps_left = options.be_steps_after_breakpoint;
  numeric::BatchedValues solution(unknowns, W);
  std::vector<std::pair<double, std::size_t>> crossings;  // (tc, buffer)
  while (go_on && time < options.t_stop - 0.5 * min_dt) {
    // Distance to the next breakpoint bounds the step; snap to the cache
    // quantization grid so the factorization and the RHS use the same dt.
    const auto next_bp = breakpoints.upper_bound(time + 0.5 * min_dt);
    const double bp_time = (next_bp != breakpoints.end()) ? *next_bp : options.t_stop;
    double dt = std::min(dt_nominal, bp_time - time);
    dt = std::min(dt, options.t_stop - time);
    dt = static_cast<double>(quantize(dt)) * dt_quantum;
    if (dt <= 0.0) break;

    const Integrator method =
        (be_steps_left > 0) ? Integrator::kBackwardEuler : options.integrator;
    const StepCoeffs& coeff = coeffs_for(dt, method);
    rhs_into(dt, method, coeff, solution);
    factorized(dt, method).solve_in_place(solution);
    ++solves;

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
    crossings.clear();
    for (std::size_t k = 0; k < buffers.size(); ++k) {
      if (fire[k] != kInf) continue;
      const Buffer& b = buffers[k];
      const double level = b.threshold * b.vdd;
      const double v_old = lane0_voltage(nv.data(), b.input);
      const double v_new = lane0_voltage(solution.data(), b.input);
      const bool past_old = b.input_direction >= 0 ? v_old >= level : v_old <= level;
      const bool past_new = b.input_direction >= 0 ? v_new >= level : v_new <= level;
      if (!past_old && !past_new) continue;
      if (past_old) {
        // Parked at/past threshold (the simultaneity recovery): fires at
        // whatever time this step settles on, and does NOT enter the
        // subdivision decision, or its step-start tc would mask a genuine
        // mid-step crossing of another buffer.
        crossings.emplace_back(time, k);
        continue;
      }
      const double tc = time + dt * (level - v_old) / (v_new - v_old);
      crossings.emplace_back(tc, k);
      earliest_event = std::min(earliest_event, tc);
    }
    const bool have_event = !crossings.empty();
    const double cluster_window = 1e-6 * dt;

    if (have_event && earliest_event > time + min_dt &&
        earliest_event < time + dt * (1.0 - 1e-9)) {
      // Reject; re-take the step so it ends exactly at the crossing, firing
      // the whole cluster there, parked buffers included (later crossings
      // stay unfired and are re-detected from the shortened step's end).
      const double dt_event =
          static_cast<double>(quantize(earliest_event - time)) * dt_quantum;
      // coeffs_for re-keys the one coefficient slot `coeff` refers to.
      const StepCoeffs& event_coeff = coeffs_for(dt_event, method);
      rhs_into(dt_event, method, event_coeff, solution);
      factorized(dt_event, method).solve_in_place(solution);
      ++solves;
      advance(solution, dt_event, method, event_coeff);
      for (const auto& [tc, k] : crossings)
        if (tc <= earliest_event + cluster_window) fire_buffer(k);
      be_steps_left = options.be_steps_after_breakpoint;
      ++stats.steps;
      go_on = record(time, nv.data());
      continue;
    }

    const bool lands_on_breakpoint = std::fabs((time + dt) - bp_time) <= 0.5 * min_dt;
    advance(solution, dt, method, coeff);
    if (have_event) {
      // Crossing at (or numerically at) the step end, or too close to the
      // step start to subdivide: fire every detected crossing here.
      for (const auto& [tc, k] : crossings) fire_buffer(k);
      be_steps_left = options.be_steps_after_breakpoint;
    } else if (lands_on_breakpoint) {
      be_steps_left = options.be_steps_after_breakpoint;
    } else if (be_steps_left > 0) {
      --be_steps_left;
    }
    ++stats.steps;
    go_on = record(time, nv.data());
  }
  OBS_COUNTER_ADD("transient.runs", 1);
  OBS_COUNTER_ADD("transient.steps", stats.steps);
  OBS_COUNTER_ADD("batch.solves", solves);
  if (batch) {
    OBS_COUNTER_ADD("cache.lu_dt_batch.hits", lu_hits);
    OBS_COUNTER_ADD("cache.lu_dt_batch.misses", lu_misses);
  } else {
    OBS_COUNTER_ADD("cache.lu_dt.hits", lu_hits);
    OBS_COUNTER_ADD("cache.lu_dt.misses", lu_misses);
  }
  return stats;
}

// A probe resolved onto a run: its node's lane-major voltage slot
// (node * W + lane) and, for a crossing probe, the level.
struct ProbePoint {
  std::size_t slot = 0;
  double level = 0.0;
};

struct ProbeReadings {
  std::vector<std::optional<double>> crossings;  // absent: not crossed yet
  std::vector<Extrema> extrema;
  LockstepStats stats;
};

// The probe recorder of sim/transient_batch.h, read off run_lockstep as it
// steps; the extremum probes keep min_element's and max_element's
// comparisons. Returns std::nullopt when a batch declines.
template <std::size_t W>
std::optional<ProbeReadings> record_probes(const std::vector<const Circuit*>& circuits,
                                           const std::vector<ProbePoint>& crossing_probes,
                                           const std::vector<ProbePoint>& extremum_probes,
                                           const TransientOptions& options, Caller caller) {
  ProbeReadings out;
  out.crossings.resize(crossing_probes.size());
  out.extrema.resize(extremum_probes.size());
  std::vector<double> prev(crossing_probes.size());
  double prev_time = 0.0;
  bool first = true;
  std::size_t open = crossing_probes.size();
  const bool to_t_stop = !extremum_probes.empty() || open == 0;
  const auto record = [&](double time, const double* voltage) {
    for (std::size_t k = 0; k < crossing_probes.size(); ++k) {
      const ProbePoint& p = crossing_probes[k];
      const double v = voltage[p.slot];
      if (!first && !out.crossings[k] && prev[k] - p.level < 0.0 && v - p.level >= 0.0) {
        out.crossings[k] =
            numeric::find_crossing({prev_time, time}, {prev[k], v}, p.level, 0.0, +1);
        --open;
      }
      prev[k] = v;
    }
    for (std::size_t k = 0; k < extremum_probes.size(); ++k) {
      const double v = voltage[extremum_probes[k].slot];
      Extrema& e = out.extrema[k];
      if (first) e = {v, v};
      if (v < e.min) e.min = v;
      if (e.max < v) e.max = v;
    }
    prev_time = time;
    first = false;
    return open != 0 || to_t_stop;
  };
  std::optional<LockstepStats> stats = run_lockstep<W>(circuits, options, caller, record);
  if (!stats) return std::nullopt;
  out.stats = std::move(*stats);
  return out;
}

// One circuit on the recorder (scalar bookkeeping) with the auto-extend
// policy from `first_attempt` on: attempt k runs with t_stop * 4^k. A batch
// lane starts at attempt 1, because its shared window was attempt 0.
TransientMeasurement measure_from(const Circuit& circuit,
                                  const std::vector<CrossingProbe>& crossings,
                                  const std::vector<std::string>& extrema,
                                  TransientOptions options, const char* context,
                                  int first_attempt) {
  const auto probe_at = [&](const std::string& node, double level) {
    const auto found = circuit.find_node(node);
    // WaveformSet::trace's diagnostic: run_transient records no ground column.
    if (!found || *found == kGround)
      throw std::out_of_range("WaveformSet: no trace recorded for node '" + node + "'");
    return ProbePoint{static_cast<std::size_t>(*found), level};
  };
  std::vector<ProbePoint> crossing_points, extremum_points;
  for (const CrossingProbe& probe : crossings)
    crossing_points.push_back(probe_at(probe.node, probe.level));
  for (const std::string& node : extrema) extremum_points.push_back(probe_at(node, 0.0));

  std::size_t missed = 0;
  for (int k = 0; k < 4; ++k, options.t_stop *= 4.0) {
    if (k < first_attempt) continue;
    ProbeReadings readings =
        *record_probes<1>({&circuit}, crossing_points, extremum_points, options,
                          Caller::kScalar);
    const auto open = std::find(readings.crossings.begin(), readings.crossings.end(),
                                std::nullopt);
    missed = static_cast<std::size_t>(open - readings.crossings.begin());
    if (open != readings.crossings.end()) continue;
    TransientMeasurement measured{{}, std::move(readings.extrema),
                                  std::move(readings.stats.buffer_fire_times),
                                  readings.stats.steps};
    for (const std::optional<double>& crossing : readings.crossings)
      measured.crossings.push_back(*crossing);
    return measured;
  }
  throw std::runtime_error(std::string(context) + ": '" + crossings[missed].node +
                           "' never crossed the threshold within the "
                           "(auto-extended) horizon");
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
  return numeric::RealSparseLu(assembler.dc_sparse(gmin))
      .solve(assembler.dc_rhs(0.0, TransientState{}));
}

TransientResult run_transient(const Circuit& circuit, const TransientOptions& options) {
  OBS_SPAN("transient.run");
  if (const char* error = option_error(options)) throw std::invalid_argument(error);

  const std::size_t n_nodes = circuit.node_count();
  std::vector<double> times;
  std::vector<std::vector<double>> columns(n_nodes);
  const LockstepStats stats = *run_lockstep<1>(
      {&circuit}, options, Caller::kScalar, [&](double time, const double* voltage) {
        times.push_back(time);
        for (std::size_t i = 0; i < n_nodes; ++i) columns[i].push_back(voltage[i]);
        return true;
      });

  std::map<std::string, std::vector<double>> node_values;
  for (std::size_t i = 0; i < n_nodes; ++i)
    node_values[circuit.node_name(static_cast<NodeId>(i))] = std::move(columns[i]);
  TransientResult result;
  result.waveforms = WaveformSet(std::move(times), std::move(node_values));
  result.buffer_fire_times = stats.buffer_fire_times;
  result.steps_taken = stats.steps;
  result.lu_factorizations = stats.factorizations;
  return result;
}

TransientMeasurement measure_transient(const Circuit& circuit,
                                       const std::vector<CrossingProbe>& crossings,
                                       const std::vector<std::string>& extrema,
                                       const TransientOptions& options,
                                       const char* context) {
  OBS_SPAN("transient.run");
  if (const char* error = option_error(options)) throw std::invalid_argument(error);
  return measure_from(circuit, crossings, extrema, options, context, 0);
}

double first_crossing(const Circuit& circuit, const std::string& node, double level,
                      const TransientOptions& options, const char* context) {
  return measure_transient(circuit, {CrossingProbe{node, level}}, {}, options, context)
      .crossings[0];
}

std::optional<std::vector<double>> run_batched_crossings(
    const std::vector<Circuit>& circuits, const std::string& node, double level,
    const TransientOptions& options, const char* context) {
  OBS_SPAN("transient.batch");
  const std::size_t lanes = circuits.size();
  if (!numeric::is_supported_lane_width(lanes) || option_error(options) != nullptr)
    return std::nullopt;
  std::vector<const Circuit*> lane_circuits;
  std::vector<ProbePoint> probes;
  for (const Circuit& circuit : circuits) {
    const auto found = circuit.find_node(node);
    if (!found || *found == kGround) return std::nullopt;
    const std::size_t lane = lane_circuits.size();
    probes.push_back({static_cast<std::size_t>(*found) * lanes + lane, level});
    lane_circuits.push_back(&circuit);
  }

  // The shared time grid, up to the sample at which the last lane first
  // crosses (see sim/transient_batch.h).
  std::optional<ProbeReadings> window;
  const auto stepped = [&](auto record) {
    window = record(lane_circuits, probes, {}, options, Caller::kBatch);
  };
  switch (lanes) {
    case 1: stepped(record_probes<1>); break;
    case 4: stepped(record_probes<4>); break;
    case 8: stepped(record_probes<8>); break;
    default: break;  // unreachable: width validated on entry
  }
  if (!window) return std::nullopt;
  OBS_COUNTER_ADD("batch.tiles", 1);
  OBS_COUNTER_ADD("batch.lanes", lanes);

  // A lane that does not cross in the shared window continues alone from
  // attempt 1, so its value stays bit-identical to a first_crossing of that
  // circuit.
  std::vector<double> crossings(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::optional<double>& crossed = window->crossings[lane];
    crossings[lane] = crossed ? *crossed
                              : measure_from(circuits[lane], {CrossingProbe{node, level}},
                                             {}, options, context, 1)
                                    .crossings[0];
  }
  return crossings;
}

}  // namespace rlcsim::sim
