// Modified Nodal Analysis assembly.
//
// Unknown vector layout: [ node voltages (0..N-1) | voltage-source branch
// currents | inductor branch currents ]. Capacitors enter through Norton
// companion models (conductance + history current source); inductors keep
// their branch current as an unknown so zero-resistance inductive loops stay
// well-conditioned. Buffers contribute their input capacitance and a Norton
// (source/Rout) output stage, so they add no extra unknowns.
//
// An assembler is a compiled stamp program (sim/stamp_program.h: the
// unknown layout, the sparsity patterns and the slot of every stamp, fixed
// by the topology) plus one circuit's element values, read once at
// construction into two frequency/timestep-independent stamp sets over one
// shared sparsity pattern:
//
//   G — conductances and source/inductor incidence (+/-1) entries;
//   C — capacitances, and the inductor -L / mutual -M branch entries.
//
// Every system the simulator ever solves is then a value-only rescale
//
//   transient:  G + (factor/dt) * C      (factor = 1 BE, 2 trapezoidal)
//   AC:         G + s * C                (s = j*2*pi*f)
//
// so a transient run or an AC sweep only rewrites the CSR value array. A
// sweep compiles the program once per topology and views every point's
// circuit through it; the values summed into each slot, and their order,
// are those of compressing the circuit's own triplets, so sharing a program
// never changes a bit. Every analysis solves those systems with the sparse
// LU. The dense matrices returned by dc_matrix()/transient_matrix() are
// densified from the same stamps; no analysis uses them — they feed the
// tests' dense-LU correctness oracle and the dense-vs-sparse benchmarks.
#pragma once

#include <complex>
#include <memory>
#include <vector>

#include "numeric/matrix.h"
#include "numeric/sparse.h"
#include "sim/circuit.h"
#include "sim/stamp_program.h"

namespace rlcsim::numeric {
class BatchedValues;  // numeric/sparse_batch.h
}

namespace rlcsim::sim {

enum class Integrator {
  kBackwardEuler,
  kTrapezoidal,
};

// Dynamic state carried between transient steps.
struct TransientState {
  double time = 0.0;
  std::vector<double> node_voltage;       // size N
  std::vector<double> capacitor_current;  // per capacitor (trapezoidal history)
  std::vector<double> inductor_current;   // per inductor
  std::vector<double> buffer_fire_time;   // per buffer; +inf until fired
};

class MnaAssembler {
 public:
  // Compiles `circuit`'s own stamp program (which validates it) and reads
  // its values.
  explicit MnaAssembler(const Circuit& circuit);
  // Reads `circuit`'s values through an existing program of its topology.
  // Throws std::invalid_argument when the circuit does not match() it.
  MnaAssembler(StampProgramPtr program, const Circuit& circuit);

  const StampProgramPtr& program() const { return program_; }
  std::size_t node_count() const { return program_->node_count(); }
  std::size_t unknown_count() const { return program_->unknown_count(); }
  std::size_t vsource_branch(std::size_t vsource_index) const {
    return program_->vsource_branch(vsource_index);
  }
  std::size_t inductor_branch(std::size_t inductor_index) const {
    return program_->inductor_branch(inductor_index);
  }

  // ---- shared G + scale*C system (transient & AC hot paths) --------------

  // Sparsity pattern of G union C, the program's.
  const numeric::SparsePatternPtr& system_pattern() const {
    return program_->system_pattern();
  }

  // CSR values of G + scale*C over system_pattern(). `out` is resized to
  // nnz; no other allocation.
  void system_values(double scale, std::vector<double>& out) const;
  void system_values(std::complex<double> scale,
                     std::vector<std::complex<double>>& out) const;

  // Scenario-batched stamping seam: writes G + scale*C into ONE lane of a
  // BatchedValues whose slot count is system_pattern()->nnz(), with the
  // exact accumulation order of system_values() — the lane's contents are
  // bit-identical to the scalar value vector, so a SparseLuBatch refactor
  // over W stamped lanes reproduces W scalar refactors exactly.
  void stamp_values_into(double scale, numeric::BatchedValues& out,
                         std::size_t lane) const;

  // Companion-model transient scale factor/dt for the C block.
  static double transient_scale(double dt, Integrator method);

  // ---- port/observable extraction (model-order reduction seam) -----------
  //
  // The s-domain view the mor/ layer reduces:
  //
  //   (G + sC) x(s) = B u(s),   y(s) = L^T x(s)
  //
  // where the columns of B are the unit-amplitude incidence vectors of the
  // circuit's sources (scale by the actual source swing to reproduce the
  // assembled RHS contribution) and the columns of L are node selectors.
  // G and C are exposed separately over the SAME system_pattern() the
  // transient/AC hot paths use, so a reduction shares their sparsity work.

  // CSR values of G alone (scale-independent stamps) over system_pattern().
  void conductance_values(std::vector<double>& out) const;
  // CSR values of C alone (the stamps system_values() multiplies by scale).
  void susceptance_values(std::vector<double>& out) const;

  // Unit-amplitude input incidence vector (size unknown_count()) of one
  // voltage source: 1 at its branch row.
  std::vector<double> vsource_vector(std::size_t vsource_index) const;
  // ... of one current source: +1 into `to`, -1 out of `from`.
  std::vector<double> isource_vector(std::size_t isource_index) const;
  // ... of one buffer's Norton output stage: 1/Rout at the output node (the
  // buffer drive enters the RHS as v_drive / Rout).
  std::vector<double> buffer_vector(std::size_t buffer_index) const;

  // Output selector e_node (size unknown_count()). Throws for kGround or an
  // out-of-range node.
  std::vector<double> node_selector(NodeId node) const;

  // The circuit this assembler stamped (node-name lookups for port APIs).
  const Circuit& circuit() const { return circuit_; }

  // ---- DC operating point ------------------------------------------------

  // DC matrix at time t: capacitors removed, inductors shorted (their branch
  // equation becomes v1 - v2 = 0). A Gmin conductance is added on every node
  // so capacitor-only nodes do not make the matrix singular. The DC pattern
  // (the program's dc_pattern()) differs from system_pattern() (inductor
  // rows change meaning).
  numeric::RealSparse dc_sparse(double gmin = 1e-12) const;
  numeric::RealMatrix dc_matrix(double gmin = 1e-12) const;
  std::vector<double> dc_rhs(double t, const TransientState& state) const;

  // ---- transient ---------------------------------------------------------

  // Companion-model transient matrix for step size dt (densified from the
  // G/C stamps). Depends only on dt and the integrator, so callers cache
  // the LU factorization per dt.
  numeric::RealMatrix transient_matrix(double dt, Integrator method) const;

  // RHS for advancing from `state` (at time state.time) to state.time + dt.
  // The _into variant writes into a caller-owned buffer (resized to the
  // unknown count) so the per-step hot loop does not allocate.
  void transient_rhs_into(double dt, Integrator method, const TransientState& state,
                          std::vector<double>& rhs) const;
  std::vector<double> transient_rhs(double dt, Integrator method,
                                    const TransientState& state) const;

  // Initializes state from a DC solution vector.
  TransientState initial_state(const std::vector<double>& dc_solution) const;

  // Post-solve state update: extracts new node voltages, recomputes companion
  // histories. `solution` is the MNA unknown vector at state.time + dt.
  void advance_state(const std::vector<double>& solution, double dt, Integrator method,
                     TransientState& state) const;

  // Buffer output source voltage at time t given its fire time.
  static double buffer_drive(const Buffer& buffer, double fire_time, double t);

 private:
  StampProgramPtr program_;
  const Circuit& circuit_;
  // Time/frequency-independent stamp values: value k accumulates into the
  // program's g_slots()[k] / c_slots()[k] of the merged CSR pattern.
  std::vector<double> g_values_, c_values_;
};

}  // namespace rlcsim::sim
