// AC (small-signal frequency-domain) analysis.
//
// Solves the complex MNA system at s = j*2*pi*f with one chosen voltage
// source set to 1 V (all other independent sources zeroed) and returns the
// node transfer function H(f) = V(node)/V(source). Buffers contribute their
// input capacitance and output conductance (quiescent output stage).
//
// The system at every frequency is G + s*C over ONE sparsity pattern (see
// sim/mna.h), so a sweep assembles the pattern once, performs one symbolic
// sparse factorization (pivoted at the highest frequency), and only
// refactorizes values at each point. Each solve is residual-checked and
// falls back to a fresh full factorization if the reused pivot order has
// gone stale — accuracy never depends on the reuse heuristic.
//
// This shares the element stamps' topology with the transient engine but
// uses the true admittances sC and sL instead of companion models, so
// AC-vs-transient agreement is a genuine cross-check of the integrator, and
// AC-vs-ABCD agreement (tline/two_port.h) a cross-check of the stamps.
#pragma once

#include <complex>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "sim/circuit.h"
#include "sim/mna.h"

namespace rlcsim::sim {

struct AcSample {
  double frequency = 0.0;  // Hz
  std::complex<double> value;

  double magnitude() const { return std::abs(value); }
  double magnitude_db() const;
  double phase_deg() const;
};

// Solver work performed by one AC sweep (for asserting pattern reuse).
struct AcSweepInfo {
  // Full factorizations: the pivot-frequency one plus any re-pivots.
  std::size_t symbolic_factorizations = 0;
  std::size_t numeric_factorizations = 0;  // full + numeric-only passes
};

// Transfer from `source_name` (a voltage source) to `node`. Throws
// std::invalid_argument if the source or node does not exist, or if any
// frequency is negative or not finite (checked before any factorization).
// `info`, when non-null, receives the sweep's factorization counts.
std::vector<AcSample> ac_transfer(const Circuit& circuit,
                                  const std::string& source_name,
                                  const std::string& node,
                                  const std::vector<double>& frequencies,
                                  AcSweepInfo* info = nullptr);

// Convenience single-frequency version.
std::complex<double> ac_transfer_at(const Circuit& circuit,
                                    const std::string& source_name,
                                    const std::string& node, double frequency);

// Logarithmically spaced frequency grid [f_lo, f_hi], points >= 2.
std::vector<double> log_frequencies(double f_lo, double f_hi, int points);

// -3 dB bandwidth of a low-pass transfer: the lowest frequency where |H|
// falls below |H(f_lo)|/sqrt(2), refined by Brent's method. Returns
// std::nullopt when the magnitude never drops 3 dB inside [f_lo, f_hi] —
// "no crossing" is reported as absent, never as a 0 Hz sentinel.
std::optional<double> bandwidth_3db(const Circuit& circuit,
                                    const std::string& source_name,
                                    const std::string& node, double f_lo,
                                    double f_hi);

}  // namespace rlcsim::sim
