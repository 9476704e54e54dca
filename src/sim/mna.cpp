#include "sim/mna.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "numeric/sparse_batch.h"

namespace rlcsim::sim {
namespace {

// Adds current `i` flowing INTO node a and OUT of node b.
void stamp_current(std::vector<double>& rhs, NodeId a, NodeId b, double i) {
  if (a != kGround) rhs[static_cast<std::size_t>(a)] += i;
  if (b != kGround) rhs[static_cast<std::size_t>(b)] -= i;
}

double node_voltage(const std::vector<double>& v, NodeId n) {
  return n == kGround ? 0.0 : v[static_cast<std::size_t>(n)];
}

}  // namespace

MnaAssembler::MnaAssembler(const Circuit& circuit)
    : program_(StampProgram::compile(circuit)), circuit_(circuit) {
  program_->g_stamps(circuit_, g_values_);
  program_->c_stamps(circuit_, c_values_);
}

MnaAssembler::MnaAssembler(StampProgramPtr program, const Circuit& circuit)
    : program_(std::move(program)), circuit_(circuit) {
  if (!program_->matches(circuit_))
    throw std::invalid_argument(
        "MnaAssembler: the circuit's topology does not match the stamp program");
  program_->g_stamps(circuit_, g_values_);
  program_->c_stamps(circuit_, c_values_);
}

void MnaAssembler::system_values(double scale, std::vector<double>& out) const {
  const std::vector<int>& g_slots = program_->g_slots();
  const std::vector<int>& c_slots = program_->c_slots();
  out.assign(static_cast<std::size_t>(system_pattern()->nnz()), 0.0);
  for (std::size_t k = 0; k < g_values_.size(); ++k)
    out[static_cast<std::size_t>(g_slots[k])] += g_values_[k];
  for (std::size_t k = 0; k < c_values_.size(); ++k)
    out[static_cast<std::size_t>(c_slots[k])] += scale * c_values_[k];
}

void MnaAssembler::system_values(std::complex<double> scale,
                                 std::vector<std::complex<double>>& out) const {
  const std::vector<int>& g_slots = program_->g_slots();
  const std::vector<int>& c_slots = program_->c_slots();
  out.assign(static_cast<std::size_t>(system_pattern()->nnz()), std::complex<double>{});
  for (std::size_t k = 0; k < g_values_.size(); ++k)
    out[static_cast<std::size_t>(g_slots[k])] += g_values_[k];
  for (std::size_t k = 0; k < c_values_.size(); ++k)
    out[static_cast<std::size_t>(c_slots[k])] += scale * c_values_[k];
}

void MnaAssembler::stamp_values_into(double scale, numeric::BatchedValues& out,
                                     std::size_t lane) const {
  if (out.slots() != static_cast<std::size_t>(system_pattern()->nnz()))
    throw std::invalid_argument(
        "MnaAssembler::stamp_values_into: slot count does not match the "
        "system pattern");
  const std::vector<int>& g_slots = program_->g_slots();
  const std::vector<int>& c_slots = program_->c_slots();
  out.clear_lane(lane);
  for (std::size_t k = 0; k < g_values_.size(); ++k)
    out.at(static_cast<std::size_t>(g_slots[k]), lane) += g_values_[k];
  for (std::size_t k = 0; k < c_values_.size(); ++k)
    out.at(static_cast<std::size_t>(c_slots[k]), lane) += scale * c_values_[k];
}

void MnaAssembler::conductance_values(std::vector<double>& out) const {
  const std::vector<int>& g_slots = program_->g_slots();
  out.assign(static_cast<std::size_t>(system_pattern()->nnz()), 0.0);
  for (std::size_t k = 0; k < g_values_.size(); ++k)
    out[static_cast<std::size_t>(g_slots[k])] += g_values_[k];
}

void MnaAssembler::susceptance_values(std::vector<double>& out) const {
  const std::vector<int>& c_slots = program_->c_slots();
  out.assign(static_cast<std::size_t>(system_pattern()->nnz()), 0.0);
  for (std::size_t k = 0; k < c_values_.size(); ++k)
    out[static_cast<std::size_t>(c_slots[k])] += c_values_[k];
}

std::vector<double> MnaAssembler::vsource_vector(std::size_t vsource_index) const {
  if (vsource_index >= circuit_.voltage_sources().size())
    throw std::invalid_argument("vsource_vector: index out of range");
  std::vector<double> b(unknown_count(), 0.0);
  b[vsource_branch(vsource_index)] = 1.0;
  return b;
}

std::vector<double> MnaAssembler::isource_vector(std::size_t isource_index) const {
  if (isource_index >= circuit_.current_sources().size())
    throw std::invalid_argument("isource_vector: index out of range");
  std::vector<double> b(unknown_count(), 0.0);
  const auto& source = circuit_.current_sources()[isource_index];
  stamp_current(b, source.to, source.from, 1.0);
  return b;
}

std::vector<double> MnaAssembler::buffer_vector(std::size_t buffer_index) const {
  if (buffer_index >= circuit_.buffers().size())
    throw std::invalid_argument("buffer_vector: index out of range");
  std::vector<double> b(unknown_count(), 0.0);
  const auto& buffer = circuit_.buffers()[buffer_index];
  stamp_current(b, buffer.output, kGround, 1.0 / buffer.output_resistance);
  return b;
}

std::vector<double> MnaAssembler::node_selector(NodeId node) const {
  if (node == kGround || node < 0 || static_cast<std::size_t>(node) >= node_count())
    throw std::invalid_argument("node_selector: not a non-ground circuit node");
  std::vector<double> l(unknown_count(), 0.0);
  l[static_cast<std::size_t>(node)] = 1.0;
  return l;
}

double MnaAssembler::transient_scale(double dt, Integrator method) {
  if (!(dt > 0.0)) throw std::invalid_argument("transient_matrix: dt must be > 0");
  return (method == Integrator::kTrapezoidal ? 2.0 : 1.0) / dt;
}

numeric::RealSparse MnaAssembler::dc_sparse(double gmin) const {
  std::vector<double> values;
  program_->dc_values(circuit_, gmin, values);
  return numeric::RealSparse(program_->dc_pattern(), std::move(values));
}

numeric::RealMatrix MnaAssembler::dc_matrix(double gmin) const {
  return dc_sparse(gmin).to_dense();
}

std::vector<double> MnaAssembler::dc_rhs(double t, const TransientState& state) const {
  std::vector<double> rhs(unknown_count(), 0.0);
  const auto& vsources = circuit_.voltage_sources();
  for (std::size_t k = 0; k < vsources.size(); ++k)
    rhs[vsource_branch(k)] = source_value(vsources[k].spec, t);
  for (const auto& i : circuit_.current_sources())
    stamp_current(rhs, i.to, i.from, source_value(i.spec, t));
  const auto& buffers = circuit_.buffers();
  for (std::size_t k = 0; k < buffers.size(); ++k) {
    const auto& b = buffers[k];
    const double fire =
        state.buffer_fire_time.empty() ? std::numeric_limits<double>::infinity()
                                       : state.buffer_fire_time[k];
    const double v = buffer_drive(b, fire, t);
    stamp_current(rhs, b.output, kGround, v / b.output_resistance);
  }
  return rhs;
}

numeric::RealMatrix MnaAssembler::transient_matrix(double dt, Integrator method) const {
  std::vector<double> values;
  system_values(transient_scale(dt, method), values);
  return numeric::RealSparse(system_pattern(), std::move(values)).to_dense();
}

void MnaAssembler::transient_rhs_into(double dt, Integrator method,
                                      const TransientState& state,
                                      std::vector<double>& rhs) const {
  rhs.assign(unknown_count(), 0.0);
  const double t_next = state.time + dt;
  const bool trap = method == Integrator::kTrapezoidal;

  // Capacitor companions.
  const auto& caps = circuit_.capacitors();
  for (std::size_t k = 0; k < caps.size(); ++k) {
    const auto& c = caps[k];
    const double v_prev =
        node_voltage(state.node_voltage, c.n1) - node_voltage(state.node_voltage, c.n2);
    const double g = (trap ? 2.0 : 1.0) * c.capacitance / dt;
    const double i_hist = trap ? g * v_prev + state.capacitor_current[k] : g * v_prev;
    stamp_current(rhs, c.n1, c.n2, i_hist);
  }

  // Buffer input capacitance companions. History current for buffer input
  // caps is folded into the same formula with i_prev tracked in
  // capacitor_current beyond the plain capacitors (see initial_state).
  const auto& buffers = circuit_.buffers();
  for (std::size_t k = 0; k < buffers.size(); ++k) {
    const auto& b = buffers[k];
    if (b.input_capacitance <= 0.0) continue;
    const std::size_t slot = caps.size() + k;
    const double v_prev = node_voltage(state.node_voltage, b.input);
    const double g = (trap ? 2.0 : 1.0) * b.input_capacitance / dt;
    const double i_hist = trap ? g * v_prev + state.capacitor_current[slot] : g * v_prev;
    stamp_current(rhs, b.input, kGround, i_hist);
  }

  // Inductor branch histories.
  const auto& inductors = circuit_.inductors();
  for (std::size_t k = 0; k < inductors.size(); ++k) {
    const auto& l = inductors[k];
    const std::size_t j = inductor_branch(k);
    const double v_prev =
        node_voltage(state.node_voltage, l.n1) - node_voltage(state.node_voltage, l.n2);
    if (trap)
      rhs[j] = -v_prev - (2.0 * l.inductance / dt) * state.inductor_current[k];
    else
      rhs[j] = -(l.inductance / dt) * state.inductor_current[k];
  }
  // Mutual-coupling history terms mirror the matrix cross stamps.
  const double mutual_factor = trap ? 2.0 : 1.0;
  for (const auto& mutual : circuit_.mutuals()) {
    const std::size_t ja = inductor_branch(mutual.inductor_a);
    const std::size_t jb = inductor_branch(mutual.inductor_b);
    rhs[ja] -= (mutual_factor * mutual.mutual / dt) *
               state.inductor_current[mutual.inductor_b];
    rhs[jb] -= (mutual_factor * mutual.mutual / dt) *
               state.inductor_current[mutual.inductor_a];
  }

  // Sources evaluated at the END of the step (implicit methods).
  const auto& vsources = circuit_.voltage_sources();
  for (std::size_t k = 0; k < vsources.size(); ++k)
    rhs[vsource_branch(k)] = source_value(vsources[k].spec, t_next);
  for (const auto& i : circuit_.current_sources())
    stamp_current(rhs, i.to, i.from, source_value(i.spec, t_next));
  for (std::size_t k = 0; k < buffers.size(); ++k) {
    const auto& b = buffers[k];
    const double v = buffer_drive(b, state.buffer_fire_time[k], t_next);
    stamp_current(rhs, b.output, kGround, v / b.output_resistance);
  }
}

std::vector<double> MnaAssembler::transient_rhs(double dt, Integrator method,
                                                const TransientState& state) const {
  std::vector<double> rhs;
  transient_rhs_into(dt, method, state, rhs);
  return rhs;
}

TransientState MnaAssembler::initial_state(const std::vector<double>& dc_solution) const {
  if (dc_solution.size() != unknown_count())
    throw std::invalid_argument("initial_state: solution size mismatch");
  TransientState s;
  s.time = 0.0;
  s.node_voltage.assign(dc_solution.begin(),
                        dc_solution.begin() + static_cast<std::ptrdiff_t>(node_count()));
  // One history-current slot per capacitor, then one per buffer input cap.
  s.capacitor_current.assign(
      circuit_.capacitors().size() + circuit_.buffers().size(), 0.0);
  s.inductor_current.resize(circuit_.inductors().size());
  for (std::size_t k = 0; k < circuit_.inductors().size(); ++k)
    s.inductor_current[k] = dc_solution[inductor_branch(k)];
  s.buffer_fire_time.assign(circuit_.buffers().size(),
                            std::numeric_limits<double>::infinity());
  return s;
}

void MnaAssembler::advance_state(const std::vector<double>& solution, double dt,
                                 Integrator method, TransientState& state) const {
  if (solution.size() != unknown_count())
    throw std::invalid_argument("advance_state: solution size mismatch");
  const bool trap = method == Integrator::kTrapezoidal;

  // The first node_count() entries of `solution` are the new node voltages; the
  // histories are updated straight from them (no temporary copy) and the
  // state vector is overwritten last.
  // Capacitor history currents: i_new = g (v_new - v_old) - i_old (trap)
  //                             i_new = g (v_new - v_old)          (BE)
  const auto& caps = circuit_.capacitors();
  for (std::size_t k = 0; k < caps.size(); ++k) {
    const auto& c = caps[k];
    const double v_old =
        node_voltage(state.node_voltage, c.n1) - node_voltage(state.node_voltage, c.n2);
    const double v_new = node_voltage(solution, c.n1) - node_voltage(solution, c.n2);
    const double g = (trap ? 2.0 : 1.0) * c.capacitance / dt;
    state.capacitor_current[k] =
        trap ? g * (v_new - v_old) - state.capacitor_current[k] : g * (v_new - v_old);
  }
  const auto& buffers = circuit_.buffers();
  for (std::size_t k = 0; k < buffers.size(); ++k) {
    const auto& b = buffers[k];
    if (b.input_capacitance <= 0.0) continue;
    const std::size_t slot = caps.size() + k;
    const double v_old = node_voltage(state.node_voltage, b.input);
    const double v_new = node_voltage(solution, b.input);
    const double g = (trap ? 2.0 : 1.0) * b.input_capacitance / dt;
    state.capacitor_current[slot] =
        trap ? g * (v_new - v_old) - state.capacitor_current[slot]
             : g * (v_new - v_old);
  }

  for (std::size_t k = 0; k < circuit_.inductors().size(); ++k)
    state.inductor_current[k] = solution[inductor_branch(k)];

  state.node_voltage.assign(solution.begin(),
                            solution.begin() + static_cast<std::ptrdiff_t>(node_count()));
  state.time += dt;
}

double MnaAssembler::buffer_drive(const Buffer& buffer, double fire_time, double t) {
  // The value AT the fire instant is the pre-switch level (matching the
  // StepSpec convention in source_value), and an output_rise > 0 ramps
  // linearly to the post-switch level.
  if (!(t > fire_time)) return buffer.output_v0;
  if (buffer.output_rise <= 0.0 || t >= fire_time + buffer.output_rise)
    return buffer.output_v1;
  return buffer.output_v0 + (buffer.output_v1 - buffer.output_v0) *
                                (t - fire_time) / buffer.output_rise;
}

}  // namespace rlcsim::sim
