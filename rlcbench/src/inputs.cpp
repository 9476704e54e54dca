#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/builders.h"

namespace rlcbench {

using namespace rlcsim;

namespace {

// Share of a grid cell a seeded value may move over. Narrow on purpose:
// the accuracy metrics are maxima over the grid, and the MNA crossing error
// varies quasi-randomly with the exact crossing time, so wide draws make
// max_err_pct a lottery between seeds.
constexpr double kBand = 0.05;

// Stratified axis: `n` equal cells over [lo, hi] (log-spaced when `log`),
// value i drawn uniformly (in log space when `log`) over the central kBand
// of cell i. Always inside [lo, hi], always ascending.
std::vector<double> stratified(Rng& rng, double lo, double hi, int n, bool log) {
  const double a = log ? std::log(lo) : lo;
  const double b = log ? std::log(hi) : hi;
  const double cell = (b - a) / n;
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    const double x = a + cell * (i + 0.5 + kBand * (rng.uniform() - 0.5));
    out.push_back(log ? std::exp(x) : x);
  }
  return out;
}

// nominal * (1 + spread * u), u uniform in [-1, 1).
double around(Rng& rng, double nominal, double spread) {
  return nominal * (1.0 + spread * rng.uniform(-1.0, 1.0));
}

}  // namespace

Table1Inputs table1_inputs(std::uint64_t seed) {
  Rng rng(seed ^ 0x7461626c6531ull);
  Table1Inputs in;
  in.spec.base.system = {500.0, {500.0, 1e-7, 1e-12}, 0.5e-12};
  in.spec.axes = {
      sweep::values(sweep::Variable::kDriverResistance,
                    stratified(rng, 50.0, 500.0, 8, true)),
      sweep::values(sweep::Variable::kLoadCapacitance,
                    stratified(rng, 0.1e-12, 1e-12, 4, true)),
      sweep::values(sweep::Variable::kLineInductance,
                    stratified(rng, 1e-8, 1e-6, 8, true)),
  };
  in.options.threads = 1;
  in.options.segments = 25;  // ~80 unknowns: sparse LU, symbolic reuse
  // One explicit horizon for the whole grid, so tiles batch at the default
  // lane width: the largest per-point default horizon.
  double t_stop = 0.0;
  for (std::size_t i = 0; i < in.spec.size(); ++i)
    t_stop = std::max(t_stop, sim::default_transient_horizon(in.spec.at(i).system));
  in.options.t_stop = t_stop;
  return in;
}

XtalkInputs xtalk_inputs(std::uint64_t seed) {
  Rng rng(seed ^ 0x7874616c6bull);
  XtalkInputs in;
  in.spec.base.system = {200.0, {500.0, 1e-8, 1e-12}, 0.2e-12};
  in.spec.base.xtalk.bus_lines = 3;
  in.spec.base.xtalk.lm_ratio = around(rng, 0.25, 0.02);
  if (!(in.spec.base.xtalk.lm_ratio < tline::max_lm_ratio(3)))
    throw std::logic_error("xtalk_inputs: lm_ratio above tline::max_lm_ratio");
  in.spec.axes = {
      sweep::switching_patterns({core::SwitchingPattern::kSamePhase,
                                 core::SwitchingPattern::kOppositePhase}),
      sweep::values(sweep::Variable::kCouplingCapRatio,
                    stratified(rng, 0.1, 0.6, 5, false)),
      sweep::values(sweep::Variable::kDriverResistance,
                    stratified(rng, 50.0, 500.0, 4, true)),
  };
  in.options.threads = 1;
  in.options.segments = 6;  // 3 lines x 6 segments = 63 unknowns
  return in;
}

graph::HTreeSpec clock_tree_inputs(std::uint64_t seed) {
  Rng rng(seed ^ 0x68747265ull);
  graph::HTreeSpec spec;  // graph_scaling's tree, two levels deeper
  spec.levels = 7;
  spec.root_line = {150.0, 5e-10, 3e-13};
  spec.taper = 0.6;
  spec.buffer = {3000.0, 5e-15, 1.0, 0.0};
  spec.size = 32.0;
  spec.source_rise = 2e-11;
  spec.segments_per_branch = 8;
  spec.sink_capacitance = 2e-14;
  // Evaluation cost is discontinuous in the imbalance (the analytic
  // crossing scans extend their windows in discrete steps): 0.10-0.15
  // swings between ~75 and ~220 ms per evaluate, 0.17-0.21 stays flat.
  // The draw stays inside the flat band so seeds vary values, not work.
  spec.sink_imbalance = around(rng, 0.19, 0.05);
  spec.order = 4;
  return spec;
}

BusInputs bus_inputs(std::uint64_t seed) {
  Rng rng(seed ^ 0x627573ull);
  BusInputs in;
  const double lm_ratio = around(rng, 0.25, 0.02);
  if (!(lm_ratio < tline::max_lm_ratio(5)))
    throw std::logic_error("bus_inputs: lm_ratio above tline::max_lm_ratio");
  in.bus = tline::make_bus(5, {500.0, 1e-8, 1e-12}, around(rng, 0.4, 0.02),
                           lm_ratio);
  in.buffer = {3000.0, 5e-15, 1.0, 0.0};
  in.options.segments_per_section = 12;
  return in;
}

}  // namespace rlcbench
