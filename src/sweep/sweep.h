// Parallel design-space sweep engine.
//
// The paper's whole argument is that closed-form models (eqs. 6/9, the
// repeater formulas) let a designer explore (line, driver, load, technology)
// spaces far too large for dynamic simulation. This subsystem makes both
// sides of that comparison first-class: declare a scenario grid once, pick
// an analysis — from the closed-form tpd up to full MNA transient delay —
// and the engine evaluates every grid point on a work-stealing thread pool
// (runtime/thread_pool.h).
//
// Transient sweeps additionally reuse the sparse solver's symbolic
// factorization across grid points: every point rebuilds a topologically
// identical ladder, so the engine evaluates grid point 0 once on the calling
// thread to record the MNA sparsity pattern plus the symbolic (system + DC)
// factorizations, then seeds every worker with that reference state
// (sim::SolverReuse). A 10k-point transient sweep therefore performs ONE
// symbolic analysis per matrix kind, total, and 10k cheap numeric
// refactorizations — and because every point replays the same recorded
// pivot order, sweep results are bit-identical at every thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/crosstalk.h"
#include "core/repeater.h"
#include "core/repeater_numeric.h"
#include "mor/moments.h"
#include "sim/transient.h"
#include "tline/coupled_bus.h"
#include "tline/rlc.h"
#include "tline/transfer.h"

namespace rlcsim::sweep {

// ------------------------------------------------------------------- grid

// What a sweep axis varies. Line totals and geometry, driver strength, load,
// repeater sizing, and the coupled-bus crosstalk knobs cover the paper's
// design space plus the multi-net scenario family on top of it.
enum class Variable {
  kLineResistance,    // Rt, ohm
  kLineInductance,    // Lt, H
  kLineCapacitance,   // Ct, F
  kLineLength,        // m — line totals become per_length * length
  kDriverResistance,  // Rtr, ohm
  kLoadCapacitance,   // CL, F
  kRepeaterSize,      // h
  kRepeaterSections,  // k
  kBusLines,          // crosstalk bus width N (integral, >= 2)
  kCouplingCapRatio,  // Cc/Ct of the crosstalk bus (>= 0)
  kMutualRatio,       // Lm/Lt of the crosstalk bus: in [0, 1) up front; the
                      // width-dependent positive-definiteness bound
                      // (tline::max_lm_ratio) is enforced per grid point
  kSwitchingPattern,  // core::SwitchingPattern as 0/1/2 (integral)
  kShieldEvery,       // crosstalk shield insertion period (integral, >= 0;
                      // see core::CrosstalkOptions::shield_every)
  kReductionOrder,    // MOR order q of the reduced analyses (integral, >= 1)
  kStaggerMode,       // repeater-bus placement as 0/1/2 (integral:
                      // repbus::Placement uniform/staggered/interleaved)
};
const char* variable_name(Variable variable);

struct Axis {
  Variable variable{};
  std::vector<double> values;
};
// Axis builders. linspace/logspace require points >= 2 and (for logspace)
// 0 < lo < hi; throw std::invalid_argument otherwise.
Axis linspace(Variable variable, double lo, double hi, int points);
Axis logspace(Variable variable, double lo, double hi, int points);
Axis values(Variable variable, std::vector<double> values);
// A kSwitchingPattern axis from the enum itself (values encode as 0/1/2).
Axis switching_patterns(std::vector<core::SwitchingPattern> patterns);

// Crosstalk half of a scenario: the bus the crosstalk analyses evaluate is
// built per point as make_bus(bus_lines, system.line, cc_ratio, lm_ratio) —
// the ratios always track the point's resolved line totals, whatever order
// line and coupling axes are declared in. Driver/load come from `system`.
struct CrosstalkScenario {
  int bus_lines = 3;
  double cc_ratio = 0.0;  // Cc / Ct
  double lm_ratio = 0.0;  // Lm / Lt
  core::SwitchingPattern pattern = core::SwitchingPattern::kOppositePhase;
  int shield_every = 0;     // victim-anchored shield insertion (0 = none)
  int reduction_order = 4;  // MOR order q of the reduced analyses
  // Repeater placement of the kBusRepeater* analyses, as the integer value
  // of repbus::Placement (0 uniform, 1 staggered, 2 interleaved) — kept as
  // an int so this header does not depend on the repbus layer.
  int stagger_mode = 0;
};

// One fully resolved evaluation point: the canonical gate + line + load
// system, the repeater technology/sizing used by repeater analyses, and the
// coupled-bus setup used by crosstalk analyses.
struct Scenario {
  tline::GateLineLoad system;
  core::MinBuffer buffer;
  core::RepeaterDesign design;
  CrosstalkScenario xtalk;
};

// A scenario grid: the cartesian product of `axes` applied to `base`, in
// row-major order (the LAST axis varies fastest). Axes are applied in
// declaration order, so a kLineLength axis listed before a kLineResistance
// axis yields length-derived totals with the resistance overridden.
struct SweepSpec {
  Scenario base;
  tline::PerUnitLength per_length;  // used by kLineLength axes
  std::vector<Axis> axes;

  std::size_t size() const;  // product of axis lengths (1 when no axes)
  // flat index <-> per-axis indices (row-major).
  std::vector<std::size_t> indices(std::size_t flat) const;
  std::size_t flat_index(const std::vector<std::size_t>& indices) const;
  // The fully resolved scenario of one grid point.
  Scenario at(std::size_t flat) const;
  // Throws std::invalid_argument on empty axes, non-finite axis values, or a
  // kLineLength axis without positive per_length parasitics.
  void validate() const;
};

// -------------------------------------------------------------- analyses

enum class Analysis {
  kClosedFormDelay,  // eq. (9) 50% delay of scenario.system
  kTransientDelay,   // MNA transient 50% delay (ladder discretization)
  kAcBandwidth,      // -3 dB bandwidth of the gate+line+load transfer, Hz
                     // (NaN when |H| never drops 3 dB inside the window)
  kRepeaterDelay,    // eq. (19) total delay at the scenario's (h, k)
  kCrosstalkDelay,   // bus victim 50% delay under the scenario's pattern, s
                     // (NaN for kQuietVictim — a quiet victim never switches);
                     // core::analyze_crosstalk_delay, which stops stepping at
                     // the victim's crossing
  kCrosstalkNoise,   // peak victim excursion outside its drive envelope, V
                     // (core::analyze_crosstalk over the whole horizon)
  kCrosstalkPushout, // victim delay minus the two-pole isolated delay, s
                     // (NaN for kQuietVictim; analyze_crosstalk_delay too)
  kReducedDelay,     // reduced-order ANALYTIC victim 50% delay of the same
                     // bus/pattern (core::analyze_crosstalk_reduced at the
                     // scenario's reduction_order) — the paper's "analytic
                     // vs dynamic simulation" game at arbitrary order q;
                     // NaN for kQuietVictim
  kReducedNoise,     // reduced-order analytic peak victim noise, V
  kBusRepeaterDelay, // stage-composed repeater-bus victim delay at the
                     // scenario's (h, k, stagger_mode, shield_every) under
                     // its pattern (repbus::compose_bus_chain with
                     // want_noise = false: no extremum scans; the engine's
                     // `segments` knob is ladder cells PER STAGE here);
                     // NaN for kQuietVictim
  kBusRepeaterNoise, // stage-composed worst per-stage victim noise, V
};
const char* analysis_name(Analysis analysis);

struct EngineOptions {
  std::size_t threads = 0;  // 0 -> runtime::default_thread_count()
  // Transient/AC discretization and horizons. 0 picks per-scenario defaults
  // (sim::default_transient_horizon; dt = t_stop / 4000).
  int segments = 60;
  double t_stop = 0.0;
  double dt = 0.0;
  // Scenario-batched transient lanes for the crossing-stopped analyses
  // (kTransientDelay, kCrosstalkDelay, kCrosstalkPushout): workers take
  // TILES of this many grid points and step them as one SIMD batch
  // (sim/transient_batch.h) instead of point by point. 0 resolves through
  // numeric::default_lane_width() — the RLCSIM_LANES knob — and explicit
  // values must be 1, 4, or 8. The points after the seeded reference are
  // grouped by step grid: a bit-equal horizon, the explicit t_stop or each
  // scenario's default. Each group is sorted by an eq. 9 delay key
  // (core::rlc_delay; a bus victim's with its coupling capacitance
  // Miller-weighted by the pattern; the grid index breaks ties), since a
  // tile stops stepping at its last lane's 50% crossing. A group tiles at
  // this width when it holds at least two tiles' worth of points, else at 4.
  // Its remainder, its fastest points, steps a W = 4 batch while at least 4
  // remain, then single points. A point without a key (a quiet victim, or a
  // scenario the model rejects) runs alone, and a tile whose lanes cannot
  // share a grid (e.g. a kBusLines axis mixing topologies) runs point by
  // point. Every point, batched or not, stops at its crossing
  // (sim::first_crossing for single points), and results are bit-identical
  // at every lane width and every thread count.
  std::size_t lanes = 0;
  // AC bandwidth search window, Hz.
  double ac_f_lo = 1e6;
  double ac_f_hi = 1e13;
  core::DelayFitConstants fit = core::kPaperFit;
};

struct SweepResult {
  std::vector<double> values;  // one metric per grid point (s, or Hz for AC)
  std::size_t threads_used = 0;
  // Sparse symbolic factorizations performed across all threads (transient
  // sweeps: 2 — one system, one DC; reduced sweeps: 1 — the G factorization
  // recorded at grid point 0 — plus one per point whose G pattern
  // mismatches the recorded one, e.g. on a kBusLines axis; however many
  // threads). Summed from the per-worker
  // sim::SolverReuse / mor::ConductanceReuse records, so only work handed a
  // record counts: analyses that take none (kAcBandwidth, the closed-form
  // ones) report 0, and run_custom() counts what `eval` does through
  // ctx.reuse / ctx.mor_reuse.
  std::size_t symbolic_factorizations = 0;
  std::size_t solver_reuse_hits = 0;  // runs that replayed a recorded symbolic
  // Batch lanes ejected to the scalar zero-pivot fallback across the sweep
  // (0 on the scalar path; a nonzero count on a batched sweep is legal but
  // worth surfacing — every ejection is a full scalar refactorization).
  std::size_t ejected_lanes = 0;
  // Where each grid point was actually evaluated: batched when a W > 1
  // run_batched_crossings call stepped it, scalar otherwise (the seeded
  // reference point, every point of a lanes = 1 sweep or of a non-crossing
  // analysis, the single points of a horizon group's remainder, quiet
  // victims, and any tile the batcher declined). Always sums to
  // values.size(). The accounting exists because the fallback is SILENT by
  // design (bit-identical results) — an eligibility regression would erase
  // the batched speedup with every test green; bench/sweep_batch gates a
  // minimum batched fraction on these counters, and bench/crosstalk_scaling
  // an exact batched count.
  std::size_t batched_points = 0;
  std::size_t scalar_points = 0;
  double elapsed_seconds = 0.0;
  double points_per_second = 0.0;
};

// --------------------------------------------------------------- engine

// Thread-safety: one engine may be shared between threads — its pool runs
// one sweep at a time, so concurrent run()/run_custom()/optimize_repeater()
// calls are serialized, not interleaved. For parallel INDEPENDENT sweeps,
// use one engine per caller.
class SweepEngine {
 public:
  explicit SweepEngine(EngineOptions options = {});
  ~SweepEngine();
  SweepEngine(const SweepEngine&) = delete;
  SweepEngine& operator=(const SweepEngine&) = delete;

  std::size_t threads() const;
  const EngineOptions& options() const;

  // Evaluates `analysis` at every grid point. Throws what the underlying
  // analysis throws (first failing grid point wins, deterministically).
  SweepResult run(const SweepSpec& spec, Analysis analysis) const;

  // Generic parallel map over [0, n): the escape hatch the benches and the
  // repeater batch evaluator use. `eval(i, ctx)` must depend only on `i`
  // (ctx.reuse is a per-worker solver cache, ctx.worker the executing worker
  // slot). Determinism across thread counts then follows unless eval's
  // VALUES depend on the per-worker reuse state (transient analyses: seed
  // the reuse yourself or use run(), which does).
  struct PointContext {
    sim::SolverReuse* reuse = nullptr;
    mor::ConductanceReuse* mor_reuse = nullptr;  // for reduced-order points
    std::size_t worker = 0;
  };
  SweepResult run_custom(
      std::size_t n,
      const std::function<double(std::size_t index, PointContext& ctx)>& eval) const;

  // A core::DesignBatchFn that evaluates candidate repeater designs across
  // this engine's pool — plugs the closed-form repeater optimization into
  // the sweep machinery (core::optimize / core::normalized_optimum).
  core::DesignBatchFn repeater_batch() const;

  // Convenience: core::optimize with this engine's batch evaluator.
  core::OptimizedDesign optimize_repeater(const tline::LineParams& line,
                                          const core::MinBuffer& buffer,
                                          double min_sections = 1.0) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rlcsim::sweep
