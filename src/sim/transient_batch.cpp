#include "sim/transient_batch.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "numeric/sparse_batch.h"
#include "obs/obs.h"
#include "sim/mna.h"
#include "sim/waveform.h"

// Batched stepping is memcmp'd against the scalar path; excess-precision
// double evaluation would fork the two (see numeric/fp_env.h).
static_assert(FLT_EVAL_METHOD == 0,
              "rlcsim batch kernels require FLT_EVAL_METHOD == 0 "
              "(strict double evaluation)");

namespace rlcsim::sim {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool same_structure(const numeric::SparsePattern& a, const numeric::SparsePattern& b) {
  return a.n == b.n && a.row_ptr == b.row_ptr && a.col_idx == b.col_idx;
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

}  // namespace

std::optional<std::vector<double>> run_batched_crossings(
    const std::vector<Circuit>& circuits, const std::string& node, double level,
    const TransientOptions& options, const char* context) {
  OBS_SPAN("transient.batch");
  const std::size_t lanes = circuits.size();
  if (!numeric::is_supported_lane_width(lanes)) return std::nullopt;

  // Ineligible-option combinations fall back rather than throw: the scalar
  // path then raises exactly the diagnostics run_transient documents.
  if (!(options.t_stop > 0.0)) return std::nullopt;
  const double dt_nominal =
      options.dt > 0.0 ? options.dt : options.t_stop / 4000.0;
  if (dt_nominal >= options.t_stop) return std::nullopt;
  if (!(options.min_dt_fraction >= 1e-12) || options.min_dt_fraction > 1.0)
    return std::nullopt;

  // The batch replays RECORDED symbolic factorizations — without a fully
  // seeded SolverReuse each lane would pay (and pivot) its own symbolic
  // analysis, which is exactly the scalar path.
  SolverReuse* reuse = options.reuse;
  if (!reuse || !reuse->system_pattern || !reuse->system_symbolic ||
      !reuse->dc_pattern || !reuse->dc_symbolic)
    return std::nullopt;

  // Per-lane assemblers; every lane must be buffer-free (shared step grid),
  // observe an actual node, and match the recorded system pattern.
  std::vector<MnaAssembler> assemblers;
  assemblers.reserve(lanes);
  std::vector<NodeId> node_id(lanes, kGround);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const Circuit& circuit = circuits[lane];
    if (!circuit.buffers().empty()) return std::nullopt;
    const auto found = circuit.find_node(node);
    if (!found || *found == kGround) return std::nullopt;
    node_id[lane] = *found;
    assemblers.emplace_back(circuit);
  }
  const std::size_t unknowns = assemblers[0].unknown_count();
  for (const MnaAssembler& assembler : assemblers) {
    if (assembler.unknown_count() != unknowns) return std::nullopt;
    if (!same_structure(*reuse->system_pattern, *assembler.system_pattern()))
      return std::nullopt;
  }

  // The batched RHS/advance kernels below walk lane 0's element topology for
  // EVERY lane (element-outer, lane-inner), so all lanes must agree on
  // element counts and node/branch indices — only the VALUES may differ.
  // Sweep tiles are built by one builder and always qualify; anything else
  // falls back to the scalar per-point path.
  const Circuit& c0 = circuits[0];
  const auto& caps0 = c0.capacitors();
  const auto& inductors0 = c0.inductors();
  const auto& mutuals0 = c0.mutuals();
  const auto& vsources0 = c0.voltage_sources();
  const auto& isources0 = c0.current_sources();
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    const Circuit& c = circuits[lane];
    if (c.node_count() != c0.node_count()) return std::nullopt;
    if (c.capacitors().size() != caps0.size() ||
        c.inductors().size() != inductors0.size() ||
        c.mutuals().size() != mutuals0.size() ||
        c.voltage_sources().size() != vsources0.size() ||
        c.current_sources().size() != isources0.size())
      return std::nullopt;
    for (std::size_t k = 0; k < caps0.size(); ++k)
      if (c.capacitors()[k].n1 != caps0[k].n1 ||
          c.capacitors()[k].n2 != caps0[k].n2)
        return std::nullopt;
    for (std::size_t k = 0; k < inductors0.size(); ++k)
      if (c.inductors()[k].n1 != inductors0[k].n1 ||
          c.inductors()[k].n2 != inductors0[k].n2)
        return std::nullopt;
    for (std::size_t k = 0; k < mutuals0.size(); ++k)
      if (c.mutuals()[k].inductor_a != mutuals0[k].inductor_a ||
          c.mutuals()[k].inductor_b != mutuals0[k].inductor_b)
        return std::nullopt;
    for (std::size_t k = 0; k < vsources0.size(); ++k)
      if (c.voltage_sources()[k].positive != vsources0[k].positive ||
          c.voltage_sources()[k].negative != vsources0[k].negative)
        return std::nullopt;
    for (std::size_t k = 0; k < isources0.size(); ++k)
      if (c.current_sources()[k].to != isources0[k].to ||
          c.current_sources()[k].from != isources0[k].from)
        return std::nullopt;
  }

  // Lane-major element value tables (SoA mirrors of the per-lane circuits).
  const std::size_t n_nodes = c0.node_count();
  std::vector<double> cap_c(caps0.size() * lanes);
  std::vector<double> ind_l(inductors0.size() * lanes);
  std::vector<double> mut_m(mutuals0.size() * lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const Circuit& c = circuits[lane];
    for (std::size_t k = 0; k < caps0.size(); ++k)
      cap_c[k * lanes + lane] = c.capacitors()[k].capacitance;
    for (std::size_t k = 0; k < inductors0.size(); ++k)
      ind_l[k * lanes + lane] = c.inductors()[k].inductance;
    for (std::size_t k = 0; k < mutuals0.size(); ++k)
      mut_m[k * lanes + lane] = c.mutuals()[k].mutual;
  }
  std::vector<std::size_t> ind_branch(inductors0.size());
  for (std::size_t k = 0; k < inductors0.size(); ++k)
    ind_branch[k] = assemblers[0].inductor_branch(k);
  std::vector<std::size_t> vsrc_branch(vsources0.size());
  for (std::size_t k = 0; k < vsources0.size(); ++k)
    vsrc_branch[k] = assemblers[0].vsource_branch(k);

  // Sweep tiles usually vary the passives, not the drive, so most sources
  // carry the SAME spec in every lane: detect that once here and the step
  // loop evaluates the waveform once per step instead of once per lane
  // (value-exact — identical spec, identical t, identical result).
  const auto specs_equal = [](const SourceSpec& a, const SourceSpec& b) {
    if (a.index() != b.index()) return false;
    return std::visit(
        [&](const auto& sa) {
          using T = std::decay_t<decltype(sa)>;
          const auto& sb = std::get<T>(b);
          if constexpr (std::is_same_v<T, DcSpec>) {
            return sa.value == sb.value;
          } else if constexpr (std::is_same_v<T, StepSpec>) {
            return sa.v0 == sb.v0 && sa.v1 == sb.v1 && sa.delay == sb.delay &&
                   sa.rise == sb.rise;
          } else if constexpr (std::is_same_v<T, PwlSpec>) {
            return sa.points == sb.points;
          } else {
            return sa.v0 == sb.v0 && sa.v1 == sb.v1 && sa.delay == sb.delay &&
                   sa.rise == sb.rise && sa.fall == sb.fall &&
                   sa.width == sb.width && sa.period == sb.period;
          }
        },
        a);
  };
  std::vector<char> vsrc_shared(vsources0.size(), 1);
  std::vector<char> isrc_shared(isources0.size(), 1);
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    const Circuit& c = circuits[lane];
    for (std::size_t k = 0; k < vsources0.size(); ++k)
      if (!specs_equal(c.voltage_sources()[k].spec, vsources0[k].spec))
        vsrc_shared[k] = 0;
    for (std::size_t k = 0; k < isources0.size(); ++k)
      if (!specs_equal(c.current_sources()[k].spec, isources0[k].spec))
        isrc_shared[k] = 0;
  }

  // Shared breakpoint set: buffer-free circuits step on source corners
  // only, so equal sets mean an identical (state-independent) dt sequence.
  const std::set<double> breakpoints = breakpoints_of(circuits[0], options.t_stop);
  for (std::size_t lane = 1; lane < lanes; ++lane)
    if (breakpoints_of(circuits[lane], options.t_stop) != breakpoints)
      return std::nullopt;

  // --- batched DC operating point -----------------------------------------
  numeric::BatchedValues dc_values(
      static_cast<std::size_t>(reuse->dc_pattern->nnz()), lanes);
  numeric::BatchedValues dc_solution(unknowns, lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const numeric::RealSparse dc = assemblers[lane].dc_sparse(options.dc_gmin);
    if (!same_structure(dc.pattern(), *reuse->dc_pattern)) return std::nullopt;
    dc_values.set_lane(lane, dc.values());
    TransientState empty;  // buffer-free: no fire times to carry
    dc_solution.set_lane(lane, assemblers[lane].dc_rhs(0.0, empty));
  }
  // Ejected lanes and their scalar re-pivots are counted into the record,
  // like run_transient counts its own factorizations.
  const auto refactor_counted = [&](numeric::SparseLuBatch& lu,
                                    const numeric::BatchedValues& values) {
    reuse->symbolic_factorizations += lu.refactor(values);
    reuse->ejected_lanes += lu.ejected_lane_count();
  };
  numeric::SparseLuBatch dc_lu(*reuse->dc_symbolic, lanes);
  refactor_counted(dc_lu, dc_values);
  dc_lu.solve_in_place(dc_solution);

  // Lane-major SoA transient state (the batch-kernel mirror of
  // MnaAssembler::initial_state): node voltages are the first n_nodes
  // solution slots, capacitor histories start at zero, inductor currents
  // come from their branch unknowns.
  double time = 0.0;
  std::vector<double> nv(dc_solution.data(), dc_solution.data() + n_nodes * lanes);
  std::vector<double> cap_i(caps0.size() * lanes, 0.0);
  std::vector<double> ind_i(inductors0.size() * lanes);
  for (std::size_t k = 0; k < inductors0.size(); ++k)
    for (std::size_t lane = 0; lane < lanes; ++lane)
      ind_i[k * lanes + lane] = dc_solution.at(ind_branch[k], lane);

  // --- LU cache keyed by (quantized dt, integrator), as in run_transient ---
  const double dt_quantum = dt_nominal * options.min_dt_fraction;
  const auto quantize = [&](double dt) {
    return static_cast<std::int64_t>(std::llround(dt / dt_quantum));
  };
  std::map<std::pair<std::int64_t, int>, numeric::SparseLuBatch> lu_cache;
  reuse->reuse_hits += lanes;  // one replayed system symbolic per lane
  OBS_COUNTER_ADD("reuse.solver_hits", lanes);
  OBS_COUNTER_ADD("batch.tiles", 1);
  OBS_COUNTER_ADD("batch.lanes", lanes);
  numeric::BatchedValues system_values(
      static_cast<std::size_t>(reuse->system_pattern->nnz()), lanes);

  // last_* short-circuits the map on the common steady run of equal steps
  // (the key only changes at breakpoint-clipped steps and method switches).
  std::pair<std::int64_t, int> last_key{std::numeric_limits<std::int64_t>::min(),
                                        -1};
  const numeric::SparseLuBatch* last_factor = nullptr;
  const auto factorized = [&](double dt,
                              Integrator method) -> const numeric::SparseLuBatch& {
    const auto key = std::make_pair(quantize(dt), static_cast<int>(method));
    if (last_factor != nullptr && key == last_key) {
      OBS_COUNTER_ADD("cache.lu_dt_batch.hits", 1);
      return *last_factor;
    }
    auto it = lu_cache.find(key);
    if (it != lu_cache.end()) {
      OBS_COUNTER_ADD("cache.lu_dt_batch.hits", 1);
    } else {
      OBS_COUNTER_ADD("cache.lu_dt_batch.misses", 1);
    }
    if (it == lu_cache.end()) {
      const double scale = MnaAssembler::transient_scale(dt, method);
      for (std::size_t lane = 0; lane < lanes; ++lane)
        assemblers[lane].stamp_values_into(scale, system_values, lane);
      numeric::SparseLuBatch factor(*reuse->system_symbolic, lanes);
      refactor_counted(factor, system_values);
      it = lu_cache.emplace(key, std::move(factor)).first;
    }
    last_key = key;
    last_factor = &it->second;
    return *last_factor;
  };

  // Per-(dt, integrator) companion coefficients, hoisted out of the step
  // kernels: g = (trap ? 2 : 1) * C / dt for capacitors, the inductor and
  // mutual history factors likewise. Each entry is computed with the exact
  // scalar-path expression, and the step loop's dt is RE-DERIVED from its
  // quantized key (dt = quantize(dt) * dt_quantum), so caching by key is
  // value-exact — this just moves ~element_count lane divisions per step
  // into the rare dt-change path, as the LU cache already does for stamping.
  struct StepCoeffs {
    std::int64_t key = std::numeric_limits<std::int64_t>::min();
    int method = -1;
    std::vector<double> cap_g, ind_h, mut_h;
  };
  StepCoeffs coeffs;
  coeffs.cap_g.resize(cap_c.size());
  coeffs.ind_h.resize(ind_l.size());
  coeffs.mut_h.resize(mut_m.size());
  const auto coeffs_for = [&](double dt, Integrator method) -> const StepCoeffs& {
    const std::int64_t key = quantize(dt);
    if (coeffs.key == key && coeffs.method == static_cast<int>(method))
      return coeffs;
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

  // --- recording: the shared time grid + ONE node column per lane ----------
  const std::size_t expected_steps =
      static_cast<std::size_t>(options.t_stop / dt_nominal) +
      2 * breakpoints.size() + 16;
  std::vector<double> times;
  times.reserve(expected_steps);
  std::vector<std::vector<double>> values(lanes);
  for (auto& column : values) column.reserve(expected_steps);

  // --- main loop: run_transient's grid walk, minus the (absent) buffer
  // event machinery. The stepping kernels run with a COMPILE-TIME lane
  // width W so the lane-inner loops unroll/vectorize exactly like the
  // SparseLuBatch kernels do; per lane the slot-update sequence (and every
  // expression) is the scalar transient_rhs_into / advance_state one, so
  // results stay bit-identical to W scalar runs.
  const double min_dt = dt_nominal * options.min_dt_fraction;
  numeric::BatchedValues solution(unknowns, lanes);

  const auto run_steps = [&](auto width) {
    constexpr std::size_t W = decltype(width)::value;

    // Batched transient RHS: transient_rhs_into with the lane loop innermost.
    // The dt-dependent companion factors come precomputed in `coeff` (each
    // the exact scalar-path expression; see coeffs_for above). The kernels
    // use the same vectorization recipe as SparseLuBatch::solve_kernel —
    // restrict-qualified base pointers, per-element staging arrays, and
    // `#pragma GCC unroll 1` to keep the lane loops as loops — because the
    // same phantom store/load aliasing otherwise compiles them scalar.
    const auto batched_rhs = [&](double dt, Integrator method,
                                 const StepCoeffs& coeff,
                                 numeric::BatchedValues& rhs) {
      // Only the node rows accumulate (+=) and need clearing: every branch
      // row — inductor and voltage-source alike — is assigned (=) below.
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

      // Capacitor companions (buffer input caps are absent: buffer-free).
      double hist[W];
      for (std::size_t k = 0; k < caps0.size(); ++k) {
        const NodeId n1 = caps0[k].n1, n2 = caps0[k].n2;
#pragma GCC unroll 1
        for (std::size_t lane = 0; lane < W; ++lane) {
          const double v_prev =
              (n1 == kGround ? 0.0
                             : nvp[static_cast<std::size_t>(n1) * W + lane]) -
              (n2 == kGround ? 0.0
                             : nvp[static_cast<std::size_t>(n2) * W + lane]);
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
      for (std::size_t k = 0; k < inductors0.size(); ++k) {
        const NodeId n1 = inductors0[k].n1, n2 = inductors0[k].n2;
        double* __restrict const rj = r + ind_branch[k] * W;
#pragma GCC unroll 1
        for (std::size_t lane = 0; lane < W; ++lane) {
          const double v_prev =
              (n1 == kGround ? 0.0
                             : nvp[static_cast<std::size_t>(n1) * W + lane]) -
              (n2 == kGround ? 0.0
                             : nvp[static_cast<std::size_t>(n2) * W + lane]);
          if (trap)
            rj[lane] = -v_prev - ih[k * W + lane] * ii[k * W + lane];
          else
            rj[lane] = -ih[k * W + lane] * ii[k * W + lane];
        }
      }
      // Mutual-coupling history terms mirror the matrix cross stamps. The
      // two updates hit two DIFFERENT branch rows (ia != ib), so splitting
      // them into separate lane loops preserves each row's += sequence.
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

      // Sources evaluated at the END of the step (implicit methods); a
      // lane-shared spec is evaluated once and broadcast.
      for (std::size_t k = 0; k < vsources0.size(); ++k) {
        double* __restrict const rj = r + vsrc_branch[k] * W;
        if (vsrc_shared[k]) {
          const double v = source_value(vsources0[k].spec, t_next);
#pragma GCC unroll 1
          for (std::size_t lane = 0; lane < W; ++lane) rj[lane] = v;
        } else {
#pragma GCC unroll 1
          for (std::size_t lane = 0; lane < W; ++lane)
            rj[lane] =
                source_value(circuits[lane].voltage_sources()[k].spec, t_next);
        }
      }
      for (std::size_t k = 0; k < isources0.size(); ++k) {
        const NodeId to = isources0[k].to, from = isources0[k].from;
        if (isrc_shared[k]) {
          const double i = source_value(isources0[k].spec, t_next);
          if (to != kGround) {
            double* __restrict const rn = r + static_cast<std::size_t>(to) * W;
#pragma GCC unroll 1
            for (std::size_t lane = 0; lane < W; ++lane) rn[lane] += i;
          }
          if (from != kGround) {
            double* __restrict const rn =
                r + static_cast<std::size_t>(from) * W;
#pragma GCC unroll 1
            for (std::size_t lane = 0; lane < W; ++lane) rn[lane] -= i;
          }
        } else {
#pragma GCC unroll 1
          for (std::size_t lane = 0; lane < W; ++lane) {
            const double i =
                source_value(circuits[lane].current_sources()[k].spec, t_next);
            if (to != kGround)
              r[static_cast<std::size_t>(to) * W + lane] += i;
            if (from != kGround)
              r[static_cast<std::size_t>(from) * W + lane] -= i;
          }
        }
      }
    };

    // Batched post-solve update: advance_state's history recurrences over
    // the SoA state (capacitor loop reads the OLD node voltages, which are
    // only overwritten afterwards, exactly as in the scalar version). The
    // restrict locals live in an inner block so the trailing copy through
    // nv.data() does not overlap their scope.
    const auto batched_advance = [&](const numeric::BatchedValues& sol,
                                     double dt, Integrator method,
                                     const StepCoeffs& coeff) {
      const bool trap = method == Integrator::kTrapezoidal;
      {
        const double* __restrict const s = sol.data();
        const double* __restrict const nvp = nv.data();
        double* __restrict const ci = cap_i.data();
        double* __restrict const ii = ind_i.data();
        const double* __restrict const cg = coeff.cap_g.data();
        for (std::size_t k = 0; k < caps0.size(); ++k) {
          const NodeId n1 = caps0[k].n1, n2 = caps0[k].n2;
#pragma GCC unroll 1
          for (std::size_t lane = 0; lane < W; ++lane) {
            const double v_old =
                (n1 == kGround ? 0.0
                               : nvp[static_cast<std::size_t>(n1) * W + lane]) -
                (n2 == kGround ? 0.0
                               : nvp[static_cast<std::size_t>(n2) * W + lane]);
            const double v_new =
                (n1 == kGround ? 0.0
                               : s[static_cast<std::size_t>(n1) * W + lane]) -
                (n2 == kGround ? 0.0
                               : s[static_cast<std::size_t>(n2) * W + lane]);
            const double g = cg[k * W + lane];
            ci[k * W + lane] = trap ? g * (v_new - v_old) - ci[k * W + lane]
                                    : g * (v_new - v_old);
          }
        }
        for (std::size_t k = 0; k < inductors0.size(); ++k) {
          const double* __restrict const sj = s + ind_branch[k] * W;
#pragma GCC unroll 1
          for (std::size_t lane = 0; lane < W; ++lane)
            ii[k * W + lane] = sj[lane];
        }
      }
      std::copy_n(sol.data(), n_nodes * W, nv.data());
      time += dt;
    };

    const auto record = [&]() {
      times.push_back(time);
#pragma GCC unroll 1
      for (std::size_t lane = 0; lane < W; ++lane)
        values[lane].push_back(
            nv[static_cast<std::size_t>(node_id[lane]) * W + lane]);
    };
    record();

    int be_steps_left = options.be_steps_after_breakpoint;
    while (time < options.t_stop - 0.5 * min_dt) {
      const auto next_bp = breakpoints.upper_bound(time + 0.5 * min_dt);
      const double bp_time =
          (next_bp != breakpoints.end()) ? *next_bp : options.t_stop;
      double dt = std::min(dt_nominal, bp_time - time);
      dt = std::min(dt, options.t_stop - time);
      dt = static_cast<double>(quantize(dt)) * dt_quantum;
      if (dt <= 0.0) break;

      const Integrator method =
          (be_steps_left > 0) ? Integrator::kBackwardEuler : options.integrator;

      const StepCoeffs& coeff = coeffs_for(dt, method);
      batched_rhs(dt, method, coeff, solution);
      factorized(dt, method).solve_in_place(solution);
      const bool lands_on_breakpoint =
          std::fabs((time + dt) - bp_time) <= 0.5 * min_dt;
      batched_advance(solution, dt, method, coeff);

      if (lands_on_breakpoint)
        be_steps_left = options.be_steps_after_breakpoint;
      else if (be_steps_left > 0)
        --be_steps_left;
      record();
    }
  };
  switch (lanes) {
    case 1: run_steps(std::integral_constant<std::size_t, 1>{}); break;
    case 4: run_steps(std::integral_constant<std::size_t, 4>{}); break;
    case 8: run_steps(std::integral_constant<std::size_t, 8>{}); break;
    default: return std::nullopt;  // unreachable: width validated on entry
  }

  // --- crossings; non-crossing lanes re-run the scalar auto-extend ---------
  std::vector<double> crossings(lanes, kNaN);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const Trace trace(times, values[lane]);
    if (const auto crossing = trace.crossing(level, 0.0, +1)) {
      crossings[lane] = *crossing;
      continue;
    }
    // run_until_crossing discards a non-crossing first window and re-runs at
    // 4x the horizon with the caller's dt policy — replicate its attempts
    // 2..4 (the batched pass above WAS attempt 1) so the lane's value stays
    // bit-identical to the scalar path's.
    TransientOptions scalar_options = options;
    const double dt0 = options.dt;
    scalar_options.t_stop = options.t_stop * 4.0;
    scalar_options.dt = dt0;
    bool crossed = false;
    for (int attempt = 1; attempt < 4; ++attempt) {
      const TransientResult result = run_transient(circuits[lane], scalar_options);
      const auto crossing = result.waveforms.trace(node).crossing(level, 0.0, +1);
      if (crossing) {
        crossings[lane] = *crossing;
        crossed = true;
        break;
      }
      scalar_options.t_stop *= 4.0;
      scalar_options.dt = dt0;
    }
    if (!crossed)
      throw std::runtime_error(std::string(context) + ": '" + node +
                               "' never crossed the threshold within the "
                               "(auto-extended) horizon");
  }
  return crossings;
}

}  // namespace rlcsim::sim
