// Block moment computation for moment-matching model-order reduction.
//
// Every circuit this library builds is, between switching events, the linear
// descriptor system
//
//   (G + sC) x(s) = B u(s),   y(s) = L^T x(s)
//
// whose transfer functions expand around s = 0 as
//
//   H(s) = L^T [ sum_k (-G^{-1} C)^k G^{-1} B s^k ] = sum_k M_k s^k.
//
// The moments m_k = (-G^{-1} C)^k G^{-1} b are the raw material of the
// AWE/Pade reduction in mor/reduce.h, and computing them costs ONE sparse LU
// factorization of G — performed by the same numeric::SparseLu the
// transient/AC engines use, so its symbolic analysis can be recorded once
// and replayed across all moment orders AND all sweep points
// (ConductanceReuse, the mor analogue of sim::SolverReuse).
//
// Compare: a transient run solves thousands of (G + (factor/dt)C) systems;
// a q-th order reduction solves 2q triangular systems against one factored
// G. That ratio is the paper's "analytic vs dynamic simulation" argument
// replayed at arbitrary order.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "numeric/sparse.h"
#include "sim/mna.h"

namespace rlcsim::mor {

// ------------------------------------------------------------------ system

// The s-domain view of one assembled circuit: G and C share ONE sparsity
// pattern (sim::MnaAssembler::system_pattern()), inputs are unit-amplitude
// source incidence columns, outputs are node selectors.
struct LinearSystem {
  numeric::RealSparse G;
  numeric::RealSparse C;
  std::vector<std::vector<double>> inputs;   // B columns, size unknowns() each
  std::vector<std::vector<double>> outputs;  // L columns

  std::size_t unknowns() const { return static_cast<std::size_t>(G.size()); }
};

// Extracts the LinearSystem of an assembled circuit: one input column per
// voltage source, per current source, and per buffer output stage (in that
// order, each in circuit order); one output column per requested node name,
// in the order given. Callers index the columns by that order.
// Throws std::invalid_argument for unknown node names.
LinearSystem make_linear_system(const sim::MnaAssembler& mna,
                                const std::vector<std::string>& output_nodes);

// ------------------------------------------------------------------- reuse

// Cross-point symbolic-factorization reuse for the G factorization, with the
// exact contract of sim::SolverReuse: the first generator seeds the record,
// later generators over a structurally identical pattern copy the recorded
// symbolic and refactor numerically, and a mismatching pattern runs fresh
// WITHOUT touching the record (so pivot orders never depend on evaluation
// order — the sweep engine's bit-identical-at-any-thread-count guarantee).
// symbolic_factorizations counts the full G factorizations (zero-pivot
// re-pivots included) of every generator handed this record, mismatching
// ones too.
//
// `program` is the stamp program (sim/stamp_program.h) of the circuit that
// seeded the record, for model builders that assemble many circuits of one
// topology (repbus::build_stage_models): a circuit that matches() it is
// assembled through it, a mismatching one compiles its own and leaves the
// record untouched, as sim::SolverReuse does. Copies of a seeded record
// share the immutable program read-only.
struct ConductanceReuse {
  sim::StampProgramPtr program;
  numeric::SparsePatternPtr pattern;
  std::shared_ptr<const numeric::RealSparseLu> symbolic;
  std::size_t reuse_hits = 0;
  std::size_t symbolic_factorizations = 0;
};

// --------------------------------------------------------------- generator

// Factors G once (symbolic + numeric, or numeric-only via ConductanceReuse)
// and serves the Krylov recurrence m_0 = G^{-1} b, m_{k+1} = -G^{-1} C m_k.
// Throws std::runtime_error if G is singular (a node with no DC path — the
// same circuits Circuit::validate() already rejects).
class MomentGenerator {
 public:
  MomentGenerator(const numeric::RealSparse& g, numeric::RealSparse c,
                  ConductanceReuse* reuse = nullptr);
  explicit MomentGenerator(const LinearSystem& system,
                           ConductanceReuse* reuse = nullptr);

  std::size_t size() const { return static_cast<std::size_t>(c_.size()); }

  // m_0 = G^{-1} b.
  std::vector<double> solve(const std::vector<double>& b) const;

  // The first `count` scalar transfer moments m_k = l^T (-G^{-1}C)^k G^{-1} b.
  // A q-pole Pade model needs count = 2q.
  std::vector<double> transfer_moments(const std::vector<double>& output,
                                       const std::vector<double>& input,
                                       int count) const;
  // The same moments for every output column at once: row o holds the first
  // `count` moments of outputs[o]. One Krylov sequence serves all rows, and
  // each row is bit-identical to the single-output call (same vectors, same
  // dot order), so a caller may take any prefix of a row as a lower-order
  // moment set.
  std::vector<std::vector<double>> transfer_moments(
      const std::vector<std::vector<double>>& outputs,
      const std::vector<double>& input, int count) const;

 private:
  // m <- -G^{-1} (C m): one Krylov step, no allocation beyond LU scratch.
  void advance(std::vector<double>& m) const;

  numeric::RealSparse c_;
  std::optional<numeric::RealSparseLu> lu_;  // engaged in every constructor
  mutable std::vector<double> scratch_;
};

}  // namespace rlcsim::mor
