#include "sim/ac.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "numeric/roots.h"
#include "numeric/sparse.h"

namespace rlcsim::sim {
namespace {

using Complex = std::complex<double>;

std::size_t find_source(const Circuit& circuit, const std::string& name) {
  const auto& vsources = circuit.voltage_sources();
  for (std::size_t i = 0; i < vsources.size(); ++i)
    if (vsources[i].name == name) return i;
  throw std::invalid_argument("ac_transfer: no voltage source named '" + name + "'");
}

}  // namespace

double AcSample::magnitude_db() const { return 20.0 * std::log10(magnitude()); }

double AcSample::phase_deg() const {
  return std::arg(value) * 180.0 / std::numbers::pi;
}

std::vector<AcSample> ac_transfer(const Circuit& circuit,
                                  const std::string& source_name,
                                  const std::string& node,
                                  const std::vector<double>& frequencies,
                                  AcSweepInfo* info) {
  const MnaAssembler layout(circuit);
  const std::size_t source = find_source(circuit, source_name);
  const auto node_id = circuit.find_node(node);
  if (!node_id || *node_id == kGround)
    throw std::invalid_argument("ac_transfer: unknown (or ground) node '" + node + "'");
  // Validate every frequency before the pivot factorization uses the largest.
  for (double f : frequencies)
    if (!std::isfinite(f) || f < 0.0)
      throw std::invalid_argument(
          "ac_transfer: frequencies must be finite and non-negative");

  AcSweepInfo stats;
  std::vector<AcSample> out;
  if (frequencies.empty()) {
    if (info) *info = stats;
    return out;
  }

  // Unit excitation on the chosen source; all other sources zeroed.
  const std::size_t n = layout.unknown_count();
  std::vector<Complex> rhs(n, Complex{});
  rhs[layout.vsource_branch(source)] = Complex(1.0, 0.0);

  // One pattern for the whole sweep; only the values change per point. The
  // sweep's single symbolic factorization pivots at the HIGHEST frequency:
  // that is where s*C swamps G and the pivot choice is stressed; at lower
  // frequencies the system is closer to diagonally dominant and the same
  // order stays accurate.
  numeric::ComplexSparse a(layout.system_pattern());
  const double f_max = *std::max_element(frequencies.begin(), frequencies.end());
  layout.system_values(Complex(0.0, 2.0 * std::numbers::pi * f_max), a.values());
  numeric::ComplexSparseLu lu(a);
  ++stats.symbolic_factorizations;
  ++stats.numeric_factorizations;

  out.reserve(frequencies.size());
  for (double f : frequencies) {
    const Complex s(0.0, 2.0 * std::numbers::pi * f);
    layout.system_values(s, a.values());

    if (lu.refactor(a)) ++stats.symbolic_factorizations;
    ++stats.numeric_factorizations;
    std::vector<Complex> x = lu.solve(rhs);
    // The pivot order is reused across the whole sweep. Iterative
    // refinement through the existing factors recovers full accuracy at
    // O(nnz) per pass without any new factorization; a fresh re-pivot
    // (which costs a symbolic analysis) is reserved for outright
    // breakdown. The residual r = A x - b doubles as the correction RHS,
    // so each pass costs one sparse multiply and one solve. Thresholds
    // scale with the attainable floor eps*||A||*||x|| so large-norm
    // systems do not spin on unreachable absolute targets.
    double a_norm = 0.0;
    for (const auto& v : a.values()) a_norm = std::max(a_norm, std::abs(v));
    double x_norm = 0.0;
    for (const auto& v : x) x_norm = std::max(x_norm, std::abs(v));
    const double floor_scale = std::max(1.0, a_norm * x_norm);
    double res_norm = 0.0;
    for (int pass = 0;; ++pass) {
      auto r = a.multiply(x);
      res_norm = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        r[i] -= rhs[i];
        res_norm = std::max(res_norm, std::abs(r[i]));
      }
      if (res_norm <= 1e-13 * floor_scale || pass == 3) break;
      lu.solve_in_place(r);
      for (std::size_t i = 0; i < n; ++i) x[i] -= r[i];
    }
    if (res_norm > 1e-6 * floor_scale) {
      lu = numeric::ComplexSparseLu(a);
      ++stats.symbolic_factorizations;
      ++stats.numeric_factorizations;
      x = lu.solve(rhs);
    }
    out.push_back({f, x[static_cast<std::size_t>(*node_id)]});
  }

  if (info) *info = stats;
  return out;
}

std::complex<double> ac_transfer_at(const Circuit& circuit,
                                    const std::string& source_name,
                                    const std::string& node, double frequency) {
  return ac_transfer(circuit, source_name, node, {frequency}).front().value;
}

std::vector<double> log_frequencies(double f_lo, double f_hi, int points) {
  if (!(f_lo > 0.0) || !(f_hi > f_lo) || points < 2)
    throw std::invalid_argument("log_frequencies: need 0 < f_lo < f_hi, points >= 2");
  std::vector<double> out(points);
  const double ratio = std::log(f_hi / f_lo);
  for (int i = 0; i < points; ++i)
    out[i] = f_lo * std::exp(ratio * i / (points - 1));
  return out;
}

std::optional<double> bandwidth_3db(const Circuit& circuit,
                                    const std::string& source_name,
                                    const std::string& node, double f_lo,
                                    double f_hi) {
  const double dc_mag = std::abs(ac_transfer_at(circuit, source_name, node, f_lo));
  const double target = dc_mag / std::sqrt(2.0);
  const auto below = [&](double f) {
    return std::abs(ac_transfer_at(circuit, source_name, node, f)) - target;
  };
  // Scan log-spaced points for the first drop below the target, then refine.
  const auto freqs = log_frequencies(f_lo, f_hi, 60);
  for (std::size_t i = 1; i < freqs.size(); ++i) {
    if (below(freqs[i]) < 0.0) {
      return numeric::brent(below, freqs[i - 1], freqs[i],
                            {.x_tolerance = freqs[i] * 1e-9});
    }
  }
  return std::nullopt;  // never dropped 3 dB inside [f_lo, f_hi]
}

}  // namespace rlcsim::sim
