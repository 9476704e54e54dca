// Dense-LU oracle for the sparse MNA engine.
//
// The analyses solve every system with the sparse LU. These helpers re-solve
// the same circuits with numeric::RealLu / ComplexLu over the densified MNA
// matrices, so tests can hold the sparse path to an independent solver
// without any production switch.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <map>
#include <numbers>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "numeric/matrix.h"
#include "sim/circuit.h"
#include "sim/mna.h"
#include "sim/transient.h"
#include "sim/waveform.h"

namespace rlcsim::oracle {

// Steps a buffer-free `circuit` with RealLu(MnaAssembler::transient_matrix)
// over `grid`, the time points a sparse run_transient(circuit, options)
// recorded. Step sizes are snapped to the engine's dt quantum and the
// backward-Euler damping after each breakpoint is replayed, so both runs
// integrate the same steps with the same methods.
inline sim::WaveformSet dense_transient(const sim::Circuit& circuit,
                                        const sim::TransientOptions& options,
                                        const std::vector<double>& grid) {
  if (!circuit.buffers().empty() || grid.empty())
    throw std::invalid_argument("dense_transient: needs a buffer-free circuit and a grid");
  const sim::MnaAssembler mna(circuit);
  const double dt_nominal = options.dt > 0.0 ? options.dt : options.t_stop / 4000.0;
  const double quantum = dt_nominal * options.min_dt_fraction;

  std::set<double> breakpoints{0.0, options.t_stop};
  for (const auto& v : circuit.voltage_sources())
    sim::collect_source_breakpoints(v.spec, options.t_stop, breakpoints);
  for (const auto& i : circuit.current_sources())
    sim::collect_source_breakpoints(i.spec, options.t_stop, breakpoints);

  const sim::TransientState empty;  // buffer-free: no fire times
  sim::TransientState state = mna.initial_state(
      numeric::RealLu(mna.dc_matrix(options.dc_gmin)).solve(mna.dc_rhs(0.0, empty)));

  const std::size_t n_nodes = circuit.node_count();
  std::vector<double> times{state.time};
  std::vector<std::vector<double>> columns(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) columns[i].push_back(state.node_voltage[i]);

  std::map<std::pair<std::int64_t, int>, numeric::RealLu> factors;
  int be_steps_left = options.be_steps_after_breakpoint;
  for (std::size_t k = 1; k < grid.size(); ++k) {
    const std::int64_t steps = std::llround((grid[k] - grid[k - 1]) / quantum);
    const double dt = static_cast<double>(steps) * quantum;
    const sim::Integrator method =
        be_steps_left > 0 ? sim::Integrator::kBackwardEuler : options.integrator;
    const auto key = std::make_pair(steps, static_cast<int>(method));
    auto it = factors.find(key);
    if (it == factors.end())
      it = factors.emplace(key, numeric::RealLu(mna.transient_matrix(dt, method))).first;

    const double t_old = state.time;
    std::vector<double> x = mna.transient_rhs(dt, method, state);
    it->second.solve_in_place(x);
    mna.advance_state(x, dt, method, state);

    const auto bp = breakpoints.lower_bound(state.time - 0.5 * quantum);
    const bool lands_on_breakpoint = bp != breakpoints.end() &&
                                     *bp <= state.time + 0.5 * quantum &&
                                     *bp > t_old + 0.5 * quantum;
    if (lands_on_breakpoint)
      be_steps_left = options.be_steps_after_breakpoint;
    else if (be_steps_left > 0)
      --be_steps_left;

    times.push_back(state.time);
    for (std::size_t i = 0; i < n_nodes; ++i) columns[i].push_back(state.node_voltage[i]);
  }

  std::map<std::string, std::vector<double>> node_values;
  for (std::size_t i = 0; i < n_nodes; ++i)
    node_values[circuit.node_name(static_cast<sim::NodeId>(i))] = std::move(columns[i]);
  return sim::WaveformSet(std::move(times), std::move(node_values));
}

// H(f) = V(node) / V(source) at each frequency, solved with ComplexLu over
// the densified G + s*C (MnaAssembler::system_values at s = j*2*pi*f).
inline std::vector<std::complex<double>> dense_ac(const sim::Circuit& circuit,
                                                  const std::string& source_name,
                                                  const std::string& node,
                                                  const std::vector<double>& frequencies) {
  const sim::MnaAssembler mna(circuit);
  const auto& sources = circuit.voltage_sources();
  const auto source = std::find_if(sources.begin(), sources.end(),
                                   [&](const auto& v) { return v.name == source_name; });
  const auto node_id = circuit.find_node(node);
  if (source == sources.end() || !node_id || *node_id == sim::kGround)
    throw std::invalid_argument("dense_ac: unknown source or node");
  std::vector<std::complex<double>> rhs(mna.unknown_count());
  rhs[mna.vsource_branch(static_cast<std::size_t>(source - sources.begin()))] = 1.0;

  numeric::ComplexSparse system(mna.system_pattern());
  std::vector<std::complex<double>> out;
  for (double f : frequencies) {
    mna.system_values(std::complex<double>(0.0, 2.0 * std::numbers::pi * f),
                      system.values());
    out.push_back(numeric::ComplexLu(system.to_dense())
                      .solve(rhs)[static_cast<std::size_t>(*node_id)]);
  }
  return out;
}

// Largest |a - b| over every node both waveform sets record; +inf when the
// time grids differ in length (the runs did not take the same steps).
inline double max_abs_deviation(const sim::WaveformSet& a, const sim::WaveformSet& b) {
  if (a.time().size() != b.time().size())
    return std::numeric_limits<double>::infinity();
  double max_err = 0.0;
  for (const auto& node : a.node_names()) {
    if (!b.has(node)) continue;
    const sim::Trace ta = a.trace(node);
    const sim::Trace tb = b.trace(node);
    for (std::size_t i = 0; i < ta.value().size(); ++i)
      max_err = std::max(max_err, std::fabs(ta.value()[i] - tb.value()[i]));
  }
  return max_err;
}

}  // namespace rlcsim::oracle
