#include "mor/reduce.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "numeric/matrix.h"
#include "numeric/polynomial.h"
#include "obs/obs.h"

namespace rlcsim::mor {
namespace {

using Complex = std::complex<double>;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Characteristic time unit of a moment sequence: the geometric mean of the
// consecutive-moment ratios |m_{k+1}/m_k|, which all sit near the system's
// dominant time constant. Dividing moment k by T^k maps the whole sequence
// to O(1) so the Hankel/Vandermonde solves below stay inside double range
// (raw moments scale like (1e-9 s)^k and underflow around k = 8).
double moment_time_scale(const std::vector<double>& moments) {
  double log_sum = 0.0;
  int count = 0;
  for (std::size_t k = 0; k + 1 < moments.size(); ++k) {
    if (moments[k] != 0.0 && moments[k + 1] != 0.0) {
      log_sum += std::log(std::fabs(moments[k + 1] / moments[k]));
      ++count;
    }
  }
  return count > 0 ? std::exp(log_sum / count) : 1.0;
}

std::vector<double> scale_moments(const std::vector<double>& moments, double t) {
  std::vector<double> mu(moments.size());
  double tk = 1.0;
  for (std::size_t k = 0; k < moments.size(); ++k) {
    mu[k] = moments[k] / tk;
    tk *= t;
  }
  return mu;
}

bool all_zero(const std::vector<double>& values) {
  for (double v : values)
    if (v != 0.0) return false;
  return true;
}

// Durand-Kerner returns best-effort roots without a convergence signal, so
// every root is checked against the polynomial's magnitude scale; a failed
// check triggers the caller's fallback instead of producing garbage poles.
bool roots_verified(const std::vector<double>& coeffs,
                    const std::vector<Complex>& roots) {
  for (Complex z : roots) {
    if (!std::isfinite(z.real()) || !std::isfinite(z.imag())) return false;
    const double az = std::abs(z);
    double scale = 0.0, zk = 1.0;
    for (double c : coeffs) {
      scale += std::fabs(c) * zk;
      zk *= az;
    }
    if (std::abs(numeric::polyval(coeffs, z)) > 1e-6 * std::max(scale, 1e-300))
      return false;
  }
  return true;
}

// Snaps the root set of a real polynomial to exact conjugate symmetry
// (greedy nearest-conjugate pairing; near-real roots collapse onto the real
// axis) and sorts it deterministically: dominant (smallest |Re|) first,
// conjugate pairs adjacent with the positive-imaginary member leading.
std::vector<Complex> symmetrize_conjugates(const std::vector<Complex>& roots) {
  std::vector<std::vector<Complex>> groups;  // one real root or one pair
  std::vector<Complex> rest;
  for (Complex z : roots) {
    if (std::fabs(z.imag()) <= 1e-8 * std::abs(z))
      groups.push_back({Complex(z.real(), 0.0)});
    else
      rest.push_back(z);
  }
  while (!rest.empty()) {
    const Complex z = rest.front();
    rest.erase(rest.begin());
    if (rest.empty()) {  // conjugate-less orphan: numerical dust, make real
      groups.push_back({Complex(z.real(), 0.0)});
      break;
    }
    std::size_t best = 0;
    double best_distance = kInf;
    for (std::size_t i = 0; i < rest.size(); ++i) {
      const double d = std::abs(std::conj(rest[i]) - z);
      if (d < best_distance) {
        best_distance = d;
        best = i;
      }
    }
    Complex p = 0.5 * (z + std::conj(rest[best]));
    rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(best));
    if (p.imag() < 0.0) p = std::conj(p);
    groups.push_back({p, std::conj(p)});
  }
  std::sort(groups.begin(), groups.end(),
            [](const std::vector<Complex>& a, const std::vector<Complex>& b) {
              const Complex za = a.front(), zb = b.front();
              if (std::fabs(za.real()) != std::fabs(zb.real()))
                return std::fabs(za.real()) < std::fabs(zb.real());
              if (std::fabs(za.imag()) != std::fabs(zb.imag()))
                return std::fabs(za.imag()) < std::fabs(zb.imag());
              return za.real() < zb.real();
            });
  std::vector<Complex> out;
  for (const auto& g : groups) out.insert(out.end(), g.begin(), g.end());
  return out;
}

// Solves sum_i r_i * (-1 / p_i^{k+1}) = mu_k for k = 0..n-1 — the residues
// that reproduce the first n moments, including mu_0 (the DC value) exactly.
// `poles` must be conjugate-symmetrized with pairs adjacent; the result is
// forced to the same symmetry so time responses are exactly real. Throws
// std::runtime_error on a singular system (repeated poles).
std::vector<Complex> fit_residues(const std::vector<Complex>& poles,
                                  const std::vector<double>& mu) {
  const std::size_t n = poles.size();
  numeric::ComplexMatrix a(n, n);
  std::vector<Complex> rhs(n);
  std::vector<Complex> inv_power(n);
  for (std::size_t i = 0; i < n; ++i) inv_power[i] = 1.0;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      inv_power[i] /= poles[i];
      a(k, i) = -inv_power[i];
    }
    rhs[k] = mu[k];
  }
  std::vector<Complex> r = numeric::ComplexLu(std::move(a)).solve(rhs);
  for (std::size_t i = 0; i < n;) {
    if (poles[i].imag() == 0.0) {
      r[i] = Complex(r[i].real(), 0.0);
      ++i;
    } else {
      const Complex avg = 0.5 * (r[i] + std::conj(r[i + 1]));
      r[i] = avg;
      r[i + 1] = std::conj(avg);
      i += 2;
    }
  }
  return r;
}

void finalize(PoleResidueModel& model) {
  model.max_real_pole = -kInf;
  model.stable = true;
  Complex dc = 0.0;
  for (std::size_t i = 0; i < model.poles.size(); ++i) {
    model.max_real_pole = std::max(model.max_real_pole, model.poles[i].real());
    if (!(model.poles[i].real() < 0.0)) model.stable = false;
    dc += model.residues[i] / model.poles[i];
  }
  model.dc_gain = -dc.real();
  model.order = static_cast<int>(model.poles.size());
}

PoleResidueModel zero_model(int requested_order) {
  PoleResidueModel model;
  model.requested_order = requested_order;
  model.max_real_pole = -kInf;
  return model;
}

}  // namespace

// ------------------------------------------------------------ pole-residue

double PoleResidueModel::moment(int k) const {
  // Rational moments first, then recombine with e^{-s delay} when present.
  std::vector<Complex> rational(static_cast<std::size_t>(k) + 1, 0.0);
  for (std::size_t i = 0; i < poles.size(); ++i) {
    Complex inv_power = 1.0;
    for (int j = 0; j <= k; ++j) {
      inv_power /= poles[i];
      rational[static_cast<std::size_t>(j)] -= residues[i] * inv_power;
    }
  }
  if (delay <= 0.0) return rational[static_cast<std::size_t>(k)].real();
  Complex sum = 0.0;
  double term = 1.0;  // (-delay)^j / j!
  for (int j = 0; j <= k; ++j) {
    sum += rational[static_cast<std::size_t>(k - j)] * term;
    term *= -delay / static_cast<double>(j + 1);
  }
  return sum.real();
}

double PoleResidueModel::step_response(double t) const {
  const double ts = t - delay;
  if (ts < 0.0) return 0.0;
  Complex y = 0.0;
  for (std::size_t i = 0; i < poles.size(); ++i)
    y += residues[i] / poles[i] * std::exp(poles[i] * ts);
  return dc_gain + y.real();
}

// -------------------------------------------------------------------- AWE

PoleResidueModel pade_reduce(const std::vector<double>& moments, int order) {
  OBS_SPAN("mor.pade_reduce");
  OBS_COUNTER_ADD("mor.pade_reductions", 1);
  if (order < 1) throw std::invalid_argument("pade_reduce: order must be >= 1");
  if (moments.size() < 2 * static_cast<std::size_t>(order))
    throw std::invalid_argument("pade_reduce: need 2*order moments");
  if (all_zero(moments)) return zero_model(order);

  const double t_unit = moment_time_scale(moments);
  const std::vector<double> mu = scale_moments(moments, t_unit);

  for (int q = order; q >= 1; --q) {
    // Denominator 1 + a_1 s + ... + a_q s^q from the moment equations
    // m_{q+k} + sum_j a_j m_{q+k-j} = 0, k = 0..q-1 (the Hankel system).
    numeric::RealMatrix hankel(static_cast<std::size_t>(q),
                               static_cast<std::size_t>(q));
    std::vector<double> rhs(static_cast<std::size_t>(q));
    for (int k = 0; k < q; ++k) {
      for (int j = 1; j <= q; ++j)
        hankel(static_cast<std::size_t>(k), static_cast<std::size_t>(j - 1)) =
            mu[static_cast<std::size_t>(q + k - j)];
      rhs[static_cast<std::size_t>(k)] = -mu[static_cast<std::size_t>(q + k)];
    }
    std::vector<double> denominator(static_cast<std::size_t>(q) + 1);
    denominator[0] = 1.0;
    try {
      const std::vector<double> a = numeric::RealLu(std::move(hankel)).solve(rhs);
      for (int j = 1; j <= q; ++j)
        denominator[static_cast<std::size_t>(j)] = a[static_cast<std::size_t>(j - 1)];
    } catch (const std::runtime_error&) {
      continue;  // singular Hankel: the classic AWE order fallback
    }

    const std::vector<Complex> raw_roots = numeric::polyroots(denominator);
    if (raw_roots.size() != static_cast<std::size_t>(q) ||
        !roots_verified(denominator, raw_roots))
      continue;
    const std::vector<Complex> poles_scaled = symmetrize_conjugates(raw_roots);

    bool stable_set = true;
    for (Complex p : poles_scaled)
      if (!(p.real() < 0.0)) stable_set = false;
    if (!stable_set) continue;  // RHP pole: fall back one order

    std::vector<Complex> residues_scaled;
    try {
      residues_scaled = fit_residues(
          poles_scaled, std::vector<double>(mu.begin(), mu.begin() + q));
    } catch (const std::runtime_error&) {
      continue;  // repeated poles: fall back one order
    }

    PoleResidueModel model;
    model.requested_order = order;
    model.fallbacks = order - q;
    model.poles.reserve(static_cast<std::size_t>(q));
    model.residues.reserve(static_cast<std::size_t>(q));
    for (int i = 0; i < q; ++i) {
      model.poles.push_back(poles_scaled[static_cast<std::size_t>(i)] / t_unit);
      model.residues.push_back(residues_scaled[static_cast<std::size_t>(i)] /
                               t_unit);
    }
    finalize(model);
    return model;
  }
  throw std::runtime_error(
      "pade_reduce: no stable reduced model down to order 1 (the moment "
      "sequence is not that of a stable system)");
}

std::vector<double> extract_delay(const std::vector<double>& moments,
                                  double delay) {
  std::vector<double> out(moments.size());
  for (std::size_t k = 0; k < moments.size(); ++k) {
    double term = 1.0;  // delay^j / j!
    double sum = 0.0;
    for (std::size_t j = 0; j <= k; ++j) {
      sum += moments[k - j] * term;
      term *= delay / static_cast<double>(j + 1);
    }
    out[k] = sum;
  }
  return out;
}

PoleResidueModel reduce_transfer(const std::vector<double>& moments, int order,
                                 double max_delay) {
  if (!(max_delay > 0.0)) return pade_reduce(moments, order);

  PoleResidueModel best;
  bool have_best = false;
  for (double fraction : {1.0, 0.75, 0.5, 0.25, 0.0}) {
    const double td = fraction * max_delay;
    PoleResidueModel candidate;
    try {
      candidate = pade_reduce(extract_delay(moments, td), order);
    } catch (const std::runtime_error&) {
      continue;  // this much extraction leaves no stable rational at any order
    }
    candidate.delay = candidate.order > 0 ? td : 0.0;
    if (!have_best || candidate.order > best.order) {
      best = candidate;
      have_best = true;
    }
    if (candidate.order == order) break;  // full order at the largest td wins
  }
  if (!have_best)
    throw std::runtime_error(
        "reduce_transfer: no stable reduced model at any extraction depth");
  return best;
}

int coupled_transfer_order(int order, int hops) {
  return std::max(order, hops + 1);
}

}  // namespace rlcsim::mor
