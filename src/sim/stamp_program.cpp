#include "sim/stamp_program.h"

#include <utility>

namespace rlcsim::sim {
namespace {

// The stamp walks. Each calls emit(row, col, value) once per triplet, in the
// triplet order the assembly has always used; compile() records the
// positions, the value passes ignore them. A matching circuit emits the same
// positions in the same order, so slot k of a program is triplet k of every
// circuit it matches.

// Conductance g between nodes a and b (ground rows and columns dropped).
template <typename Emit>
void conductance(NodeId a, NodeId b, double g, Emit& emit) {
  if (a != kGround) {
    emit(a, a, g);
    if (b != kGround) {
      emit(a, b, -g);
      emit(b, a, -g);
    }
  }
  if (b != kGround) emit(b, b, g);
}

// Symmetric +/-1 incidence between a node pair and a branch row/column.
template <typename Emit>
void branch_incidence(NodeId n1, NodeId n2, int branch, Emit& emit) {
  if (n1 != kGround) {
    emit(n1, branch, 1.0);
    emit(branch, n1, 1.0);
  }
  if (n2 != kGround) {
    emit(n2, branch, -1.0);
    emit(branch, n2, -1.0);
  }
}

int vsource_base(const Circuit& c) { return static_cast<int>(c.node_count()); }
int inductor_base(const Circuit& c) {
  return vsource_base(c) + static_cast<int>(c.voltage_sources().size());
}

// G: conductances and source/inductor incidence (timestep and frequency
// independent).
template <typename Emit>
void walk_g(const Circuit& c, Emit&& emit) {
  for (const auto& r : c.resistors()) conductance(r.n1, r.n2, 1.0 / r.resistance, emit);
  const auto& vsources = c.voltage_sources();
  for (std::size_t k = 0; k < vsources.size(); ++k)
    branch_incidence(vsources[k].positive, vsources[k].negative,
                     vsource_base(c) + static_cast<int>(k), emit);
  const auto& inductors = c.inductors();
  for (std::size_t k = 0; k < inductors.size(); ++k)
    branch_incidence(inductors[k].n1, inductors[k].n2,
                     inductor_base(c) + static_cast<int>(k), emit);
  for (const auto& b : c.buffers())
    conductance(b.output, kGround, 1.0 / b.output_resistance, emit);
}

// C: capacitances and the -L / -M branch terms; the assembled system is
// G + scale*C with scale = factor/dt (transient companion) or s (AC).
template <typename Emit>
void walk_c(const Circuit& c, Emit&& emit) {
  for (const auto& cap : c.capacitors()) conductance(cap.n1, cap.n2, cap.capacitance, emit);
  for (const auto& b : c.buffers())
    if (b.input_capacitance > 0.0)
      conductance(b.input, kGround, b.input_capacitance, emit);
  const auto& inductors = c.inductors();
  for (std::size_t k = 0; k < inductors.size(); ++k) {
    const int j = inductor_base(c) + static_cast<int>(k);
    emit(j, j, -inductors[k].inductance);
  }
  for (const auto& mutual : c.mutuals()) {
    const int ja = inductor_base(c) + static_cast<int>(mutual.inductor_a);
    const int jb = inductor_base(c) + static_cast<int>(mutual.inductor_b);
    emit(ja, jb, -mutual.mutual);
    emit(jb, ja, -mutual.mutual);
  }
}

// DC: gmin on every node, capacitors open (no stamp), inductors shorted
// (branch equation v1 - v2 = 0, KCL couples the branch current).
template <typename Emit>
void walk_dc(const Circuit& c, double gmin, Emit&& emit) {
  for (std::size_t i = 0; i < c.node_count(); ++i)
    emit(static_cast<int>(i), static_cast<int>(i), gmin);
  for (const auto& r : c.resistors()) conductance(r.n1, r.n2, 1.0 / r.resistance, emit);
  const auto& inductors = c.inductors();
  for (std::size_t k = 0; k < inductors.size(); ++k)
    branch_incidence(inductors[k].n1, inductors[k].n2,
                     inductor_base(c) + static_cast<int>(k), emit);
  const auto& vsources = c.voltage_sources();
  for (std::size_t k = 0; k < vsources.size(); ++k)
    branch_incidence(vsources[k].positive, vsources[k].negative,
                     vsource_base(c) + static_cast<int>(k), emit);
  // Buffer output stage: conductance 1/Rout from output node to ground.
  for (const auto& b : c.buffers())
    conductance(b.output, kGround, 1.0 / b.output_resistance, emit);
}

// Everything the walks' positions depend on, as one integer sequence: the
// node count, then per element kind its count and each element's nodes.
template <typename Emit>
void walk_topology(const Circuit& c, Emit&& emit) {
  const auto count = [&](const auto& elements) {
    emit(static_cast<int>(elements.size()));
  };
  emit(static_cast<int>(c.node_count()));
  count(c.resistors());
  for (const auto& r : c.resistors()) {
    emit(r.n1);
    emit(r.n2);
  }
  count(c.capacitors());
  for (const auto& cap : c.capacitors()) {
    emit(cap.n1);
    emit(cap.n2);
  }
  count(c.inductors());
  for (const auto& l : c.inductors()) {
    emit(l.n1);
    emit(l.n2);
  }
  count(c.voltage_sources());
  for (const auto& v : c.voltage_sources()) {
    emit(v.positive);
    emit(v.negative);
  }
  count(c.current_sources());
  for (const auto& i : c.current_sources()) {
    emit(i.from);
    emit(i.to);
  }
  count(c.buffers());
  for (const auto& b : c.buffers()) {
    emit(b.input);
    emit(b.output);
    emit(b.input_capacitance > 0.0 ? 1 : 0);
  }
  count(c.mutuals());
  for (const auto& m : c.mutuals()) {
    emit(static_cast<int>(m.inductor_a));
    emit(static_cast<int>(m.inductor_b));
  }
}

}  // namespace

std::shared_ptr<const StampProgram> StampProgram::compile(const Circuit& circuit) {
  circuit.validate();
  std::shared_ptr<StampProgram> p(new StampProgram());
  p->n_nodes_ = circuit.node_count();
  p->vsource_base_ = static_cast<std::size_t>(vsource_base(circuit));
  p->inductor_base_ = static_cast<std::size_t>(inductor_base(circuit));
  p->n_unknowns_ = p->inductor_base_ + circuit.inductors().size();
  walk_topology(circuit, [&](int v) { p->topology_.push_back(v); });

  const int n = static_cast<int>(p->n_unknowns_);
  std::vector<std::pair<int, int>> positions;
  const auto record = [&](int row, int col, double) { positions.emplace_back(row, col); };
  walk_g(circuit, record);
  const auto n_g = static_cast<std::ptrdiff_t>(positions.size());
  walk_c(circuit, record);
  std::vector<int> slots;
  p->system_pattern_ = numeric::build_pattern(n, positions, &slots);
  p->g_slots_.assign(slots.begin(), slots.begin() + n_g);
  p->c_slots_.assign(slots.begin() + n_g, slots.end());
  positions.clear();
  walk_dc(circuit, 0.0, record);
  p->dc_pattern_ = numeric::build_pattern(n, positions, &p->dc_slots_);

  for (const Capacitor& c : circuit.capacitors()) {
    p->cap_n1_.push_back(c.n1);
    p->cap_n2_.push_back(c.n2);
  }
  for (const Buffer& b : circuit.buffers()) {
    if (b.input_capacitance <= 0.0) continue;
    p->cap_n1_.push_back(b.input);
    p->cap_n2_.push_back(kGround);
  }
  for (std::size_t k = 0; k < circuit.inductors().size(); ++k)
    p->ind_branch_.push_back(p->inductor_branch(k));
  for (std::size_t k = 0; k < circuit.voltage_sources().size(); ++k)
    p->vsrc_branch_.push_back(p->vsource_branch(k));
  return p;
}

bool StampProgram::matches(const Circuit& circuit) const {
  std::size_t k = 0;
  bool same = true;
  walk_topology(circuit, [&](int v) {
    same = same && k < topology_.size() && topology_[k] == v;
    ++k;
  });
  return same && k == topology_.size();
}

void StampProgram::g_stamps(const Circuit& circuit, std::vector<double>& out) const {
  out.clear();
  out.reserve(g_slots_.size());
  walk_g(circuit, [&](int, int, double v) { out.push_back(v); });
}

void StampProgram::c_stamps(const Circuit& circuit, std::vector<double>& out) const {
  out.clear();
  out.reserve(c_slots_.size());
  walk_c(circuit, [&](int, int, double v) { out.push_back(v); });
}

void StampProgram::dc_values(const Circuit& circuit, double gmin,
                             std::vector<double>& out) const {
  out.assign(static_cast<std::size_t>(dc_pattern_->nnz()), 0.0);
  std::size_t k = 0;
  walk_dc(circuit, gmin, [&](int, int, double v) {
    out[static_cast<std::size_t>(dc_slots_[k++])] += v;
  });
}

}  // namespace rlcsim::sim
