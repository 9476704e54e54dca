// Transient analysis engine.
//
// Fixed-step implicit integration (trapezoidal by default) with SPICE-style
// breakpoint handling: the step grid always lands exactly on source
// discontinuities and buffer switching instants, and the first step(s) after
// each discontinuity use backward Euler to damp the trapezoidal rule's
// spurious oscillation on jumps.
//
// Buffer events are located by step rejection: when a buffer's input crosses
// its threshold inside a step, the step is re-taken so it ends exactly at the
// (interpolated) crossing time, the buffer is marked fired there, and
// integration restarts from that breakpoint.
//
// One stepping core (W circuits of one topology in lockstep) serves
// run_transient, which records every node up to t_stop, and the probe
// recorder of sim/transient_batch.h, which keeps only what it probes. The
// assembled MNA system is G + (factor/dt)*C over one fixed sparsity pattern
// (see sim/mna.h). Every solve is a numeric::SparseLuBatch over one symbolic
// factorization per run: the one a SolverReuse recorded, or else the run's
// first full sparse LU. Step sizes are quantized onto a min_dt_fraction grid
// before keying the LU cache, so breakpoint-clipped dt values that differ
// only by ulps reuse one factorization instead of triggering spurious
// refactorizations. MnaAssembler::transient_rhs_into / advance_state remain
// the scalar reference of the per-lane arithmetic (tests/dense_oracle.h
// steps with them).
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "numeric/sparse.h"
#include "sim/circuit.h"
#include "sim/mna.h"
#include "sim/waveform.h"

namespace rlcsim::sim {

// Cross-run sparse-solver state for sweeps: the sparsity patterns and
// symbolic factorizations of a previous run over a topologically identical
// circuit. A sweep evaluates thousands of circuits that differ only in
// element VALUES; handing the same SolverReuse to every run on a thread
// means the first run pays the symbolic analyses (system + DC) and every
// later run does numeric-only refactorization along the recorded pivot
// order. A run whose circuit has a structurally different pattern runs
// WITHOUT reuse and leaves the recorded state untouched (so which circuit a
// worker saw first can never change pivot orders) — reuse is an
// optimization, never a correctness constraint.
//
// The donors are only ever copied from (SparseLu copy + refactor), so one
// SolverReuse may be shared READ-ONLY by concurrent runs as long as no run
// encounters a mismatching pattern; the sweep engine gives each worker its
// own instance seeded from one reference run to keep results bit-identical
// at any thread count.
//
// The counts tally the work of every run handed this record, including
// runs whose pattern mismatched and therefore ran without replaying.
struct SolverReuse {
  numeric::SparsePatternPtr system_pattern;
  std::shared_ptr<const numeric::RealSparseLu> system_symbolic;
  numeric::SparsePatternPtr dc_pattern;
  std::shared_ptr<const numeric::RealSparseLu> dc_symbolic;
  std::size_t reuse_hits = 0;  // runs that reused a recorded symbolic
  // Full (symbolic + numeric) factorizations, zero-pivot re-pivots included.
  std::size_t symbolic_factorizations = 0;
  // Lanes of run_batched_crossings ejected to the scalar zero-pivot
  // fallback (numeric/sparse_batch.h). A run_transient whose factorization
  // hits a zero pivot counts only the re-pivot above, as it has no lanes.
  std::size_t ejected_lanes = 0;
};

struct TransientOptions {
  double t_stop = 0.0;      // required, > 0
  double dt = 0.0;          // 0 -> t_stop / 4000; negative or NaN is rejected
  Integrator integrator = Integrator::kTrapezoidal;
  int be_steps_after_breakpoint = 2;  // BE steps before switching back to trap
  double dc_gmin = 1e-12;
  // Guard: reject pathological event cascades (step shrinking forever).
  // Also the LU-cache quantization grid: dt is snapped to multiples of
  // min_dt_fraction * dt before factorizing.
  double min_dt_fraction = 1e-9;  // min event step as a fraction of dt
  // Optional cross-run symbolic-factorization reuse (sweep hot path). The
  // pointee must outlive the run; it is read and updated in place.
  SolverReuse* reuse = nullptr;
};

struct TransientResult {
  WaveformSet waveforms;
  std::vector<double> buffer_fire_times;  // +inf where a buffer never fired
  std::size_t steps_taken = 0;
  std::size_t lu_factorizations = 0;  // numeric factorizations (cache misses)
};

// Runs a transient analysis recording every node (library code measures
// through sim::measure_transient instead). Throws std::invalid_argument for
// bad options and std::runtime_error if the MNA matrix is singular.
TransientResult run_transient(const Circuit& circuit, const TransientOptions& options);

// DC operating point: node voltages (and branch currents) with capacitors
// open and inductors shorted, sources evaluated at t = 0.
std::vector<double> dc_operating_point(const Circuit& circuit, double gmin = 1e-12);

// Source discontinuity times within [0, t_stop]: step corners, PWL points,
// and every pulse edge of every cycle whose start lies in the window
// (bounded by t_stop/period). Throws std::invalid_argument for pulse trains
// of more than 1e6 cycles — no transient could land on that many edges, so
// such a spec is an error rather than something to truncate silently.
// Exposed for testing.
void collect_source_breakpoints(const SourceSpec& spec, double t_stop,
                                std::set<double>& out);

}  // namespace rlcsim::sim
