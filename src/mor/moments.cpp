#include "mor/moments.h"

#include <stdexcept>
#include <utility>

#include "obs/obs.h"

namespace rlcsim::mor {

LinearSystem make_linear_system(const sim::MnaAssembler& mna,
                                const std::vector<std::string>& output_nodes) {
  LinearSystem system;

  std::vector<double> values;
  mna.conductance_values(values);
  system.G = numeric::RealSparse(mna.system_pattern(), values);
  mna.susceptance_values(values);
  system.C = numeric::RealSparse(mna.system_pattern(), std::move(values));

  const sim::Circuit& circuit = mna.circuit();
  for (std::size_t k = 0; k < circuit.voltage_sources().size(); ++k)
    system.inputs.push_back(mna.vsource_vector(k));
  for (std::size_t k = 0; k < circuit.current_sources().size(); ++k)
    system.inputs.push_back(mna.isource_vector(k));
  for (std::size_t k = 0; k < circuit.buffers().size(); ++k)
    system.inputs.push_back(mna.buffer_vector(k));

  for (const std::string& name : output_nodes) {
    const auto node = circuit.find_node(name);
    if (!node)
      throw std::invalid_argument("make_linear_system: unknown output node '" +
                                  name + "'");
    system.outputs.push_back(mna.node_selector(*node));
  }
  return system;
}

MomentGenerator::MomentGenerator(const numeric::RealSparse& g,
                                 numeric::RealSparse c, ConductanceReuse* reuse)
    : c_(std::move(c)) {
  if (g.size() != c_.size())
    throw std::invalid_argument("MomentGenerator: G and C size mismatch");

  // Reuse contract (mirrors sim/transient.cpp): seed an empty record, replay
  // a structurally identical one, and run WITHOUT reuse on a mismatch so the
  // record never depends on which system a worker saw first. The record's
  // count sees the factorization either way.
  ConductanceReuse* const record = reuse;
  if (reuse) {
    if (!reuse->pattern) {
      reuse->pattern = g.pattern_ptr();
    } else if (!numeric::same_structure(*reuse->pattern, g.pattern())) {
      reuse = nullptr;
    }
  }
  bool full_factorization = true;
  if (reuse && reuse->symbolic) {
    lu_.emplace(*reuse->symbolic);  // copy factors: reuse the symbolic
    full_factorization = lu_->refactor(g);
    ++reuse->reuse_hits;
    OBS_COUNTER_ADD("reuse.conductance_hits", 1);
  } else {
    OBS_COUNTER_ADD("reuse.conductance_misses", 1);
    lu_.emplace(g);
    if (reuse)
      reuse->symbolic = std::make_shared<const numeric::RealSparseLu>(*lu_);
  }
  if (record && full_factorization) ++record->symbolic_factorizations;
}

MomentGenerator::MomentGenerator(const LinearSystem& system,
                                 ConductanceReuse* reuse)
    : MomentGenerator(system.G, system.C, reuse) {}

std::vector<double> MomentGenerator::solve(const std::vector<double>& b) const {
  return lu_->solve(b);
}

void MomentGenerator::advance(std::vector<double>& m) const {
  scratch_ = c_.multiply(m);
  lu_->solve_in_place(scratch_);
  for (std::size_t i = 0; i < scratch_.size(); ++i) m[i] = -scratch_[i];
}

std::vector<double> MomentGenerator::transfer_moments(
    const std::vector<double>& output, const std::vector<double>& input,
    int count) const {
  return std::move(transfer_moments(
      std::vector<std::vector<double>>{output}, input, count)[0]);
}

std::vector<std::vector<double>> MomentGenerator::transfer_moments(
    const std::vector<std::vector<double>>& outputs,
    const std::vector<double>& input, int count) const {
  if (count < 1)
    throw std::invalid_argument("transfer_moments: count must be >= 1");
  if (input.size() != size())
    throw std::invalid_argument("transfer_moments: vector size mismatch");
  for (const std::vector<double>& output : outputs)
    if (output.size() != size())
      throw std::invalid_argument("transfer_moments: vector size mismatch");
  std::vector<std::vector<double>> moments(outputs.size());
  for (std::vector<double>& row : moments)
    row.reserve(static_cast<std::size_t>(count));
  std::vector<double> m = solve(input);
  for (int k = 0; k < count; ++k) {
    if (k > 0) advance(m);
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      double dot = 0.0;
      for (std::size_t i = 0; i < m.size(); ++i) dot += outputs[o][i] * m[i];
      moments[o].push_back(dot);
    }
  }
  return moments;
}

}  // namespace rlcsim::mor
