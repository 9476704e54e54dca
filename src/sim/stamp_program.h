// The compiled MNA stamping of one circuit topology.
//
// A sweep evaluates thousands of circuits that differ only in element
// VALUES, and everything that follows from the topology alone is compiled
// here once:
//
//   * the unknown layout (node voltages | voltage-source branch currents |
//     inductor branch currents);
//   * the merged G ∪ C system pattern and the DC pattern (sim/mna.h), each
//     with the slot every stamp accumulates into, in triplet order;
//   * the element incidence the transient kernels walk;
//   * the topology it was compiled from, which matches() checks.
//
// A circuit that matches the program is stamped value-only: its element
// values are summed into the slot maps in the order the triplet assembly
// sums them (zero-initialized CSR values, += per triplet), so every value is
// bit-identical to compressing that circuit's own triplets. This is the
// assembly split of an M·u̇ + K·u = b circuit solver: the topology fixes the
// pattern, element values only fill it.
//
// Programs are immutable and shared (std::shared_ptr<const StampProgram>),
// like numeric::LuProgram: a sim::SolverReuse records one next to the
// symbolic factorizations it replays, and MnaAssembler is a view of a
// program plus one circuit's values. compile() runs Circuit::validate, whose
// checks are all topological, so a circuit that matches() a program is
// valid too.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "numeric/sparse.h"
#include "sim/circuit.h"

namespace rlcsim::sim {

class StampProgram {
 public:
  // Validates `circuit` (Circuit::validate's exceptions) and compiles its
  // topology.
  static std::shared_ptr<const StampProgram> compile(const Circuit& circuit);

  // True when `circuit` has the compiled topology: the node count and, kind
  // by kind in element order, every element's nodes — resistors, capacitors,
  // inductors, voltage and current sources, buffers (input, output and
  // whether an input capacitance is stamped) and mutuals (inductor
  // indices). Only values may differ. O(elements), no allocation.
  bool matches(const Circuit& circuit) const;

  std::size_t node_count() const { return n_nodes_; }
  std::size_t unknown_count() const { return n_unknowns_; }
  std::size_t vsource_branch(std::size_t vsource_index) const {
    return vsource_base_ + vsource_index;
  }
  std::size_t inductor_branch(std::size_t inductor_index) const {
    return inductor_base_ + inductor_index;
  }

  // ---- G + scale*C system -----------------------------------------------
  const numeric::SparsePatternPtr& system_pattern() const { return system_pattern_; }
  // Slot of each G / C stamp, in the order g_stamps / c_stamps emit them.
  const std::vector<int>& g_slots() const { return g_slots_; }
  const std::vector<int>& c_slots() const { return c_slots_; }
  // The G and C stamp values of a matching `circuit`, in slot-map order.
  void g_stamps(const Circuit& circuit, std::vector<double>& out) const;
  void c_stamps(const Circuit& circuit, std::vector<double>& out) const;

  // ---- DC system (capacitors open, inductors shorted, gmin per node) ----
  const numeric::SparsePatternPtr& dc_pattern() const { return dc_pattern_; }
  // CSR values of a matching `circuit`'s DC matrix over dc_pattern().
  void dc_values(const Circuit& circuit, double gmin, std::vector<double>& out) const;

  // ---- incidence of the transient kernels --------------------------------
  // Capacitor table: every capacitor, then every buffer input capacitance
  // (to ground) that is stamped (> 0), in MnaAssembler's history-slot order.
  const std::vector<NodeId>& cap_n1() const { return cap_n1_; }
  const std::vector<NodeId>& cap_n2() const { return cap_n2_; }
  // Unknown index of each inductor / voltage-source branch.
  const std::vector<std::size_t>& inductor_branches() const { return ind_branch_; }
  const std::vector<std::size_t>& vsource_branches() const { return vsrc_branch_; }

 private:
  StampProgram() = default;

  std::size_t n_nodes_ = 0;
  std::size_t n_unknowns_ = 0;
  std::size_t vsource_base_ = 0;
  std::size_t inductor_base_ = 0;
  std::vector<int> topology_;  // the sequence matches() compares
  numeric::SparsePatternPtr system_pattern_;
  std::vector<int> g_slots_, c_slots_;
  numeric::SparsePatternPtr dc_pattern_;
  std::vector<int> dc_slots_;
  std::vector<NodeId> cap_n1_, cap_n2_;
  std::vector<std::size_t> ind_branch_, vsrc_branch_;
};

using StampProgramPtr = std::shared_ptr<const StampProgram>;

}  // namespace rlcsim::sim
