// Model-order reduction: AWE-style Pade pole extraction over the transfer
// moments of mor/moments.h.
//
// pade_reduce matches a single transfer function H(s) = sum m_k s^k to a
// q-pole pole-residue model (the [q-1/q] Pade approximant; the paper's
// two-pole model IS this at q = 2). Moments are rescaled to O(1) in an
// internal time unit before any dense solve (raw moments shrink like
// b1^k ~ (1e-9)^k and underflow by k ~ 8 otherwise), the Hankel system gives
// the denominator, Durand-Kerner gives the poles, and a complex Vandermonde
// moment fit gives the residues — matching moment 0 exactly, so the model's
// DC value is the true DC value and threshold delays measured against the
// final value are consistent. Standard AWE instability fallback: a singular
// Hankel system, unverifiable roots, or right-half-plane poles retry at
// order q-1 (down to 1, which is the always-stable Elmore model).
//
// Stability diagnostics ride along in the model: max_real_pole and the
// fallback count.
#pragma once

#include <complex>
#include <vector>

namespace rlcsim::mor {

// ---------------------------------------------------------- pole-residue

// H(s) = e^{-s delay} * sum_i residues[i] / (s - poles[i]). Conjugate pairs
// are stored adjacently (positive-imaginary first) and exactly symmetrized,
// so time responses are exactly real. An order-0 model is the zero transfer.
//
// The `delay` term is the transport-delay extraction low-loss lines need: a
// near-lossless line's response is a wavefront arriving at the time of
// flight, which no low-order rational function reproduces — but e^{-s td}
// times a LOW-order rational does. reduce_transfer() picks td; plain
// pade_reduce() leaves it 0.
struct PoleResidueModel {
  std::vector<std::complex<double>> poles;     // rad/s, Re < 0 when stable
  std::vector<std::complex<double>> residues;
  double delay = 0.0;  // pure transport delay factored out, seconds

  int requested_order = 0;  // q asked for
  int order = 0;            // poles actually kept
  int fallbacks = 0;        // order reductions / unstable poles dropped
  double dc_gain = 0.0;     // H(0) = -sum Re(r/p); matches moment 0 exactly
  double max_real_pole = 0.0;  // stability margin: < 0 iff stable
  bool stable = true;

  // k-th Taylor moment of the model, -sum Re(r / p^(k+1)) — for verifying
  // how many of the input moments survived the fallbacks.
  double moment(int k) const;
  // Zero-state unit-step output at time t (closed form).
  double step_response(double t) const;
};

// AWE/Pade reduction of the first 2*order transfer moments (moments.size()
// must be >= 2*order). All-zero moments yield the order-0 zero model (a
// decoupled transfer). Throws std::invalid_argument for bad arguments and
// std::runtime_error if no stable model exists even at order 1.
PoleResidueModel pade_reduce(const std::vector<double>& moments, int order);

// Moments of e^{s delay} H(s) given the moments of H — the binomial
// recombination m'_k = sum_j m_{k-j} delay^j / j! that shifts a pure
// transport delay OUT of a moment sequence before rational fitting.
std::vector<double> extract_delay(const std::vector<double>& moments,
                                  double delay);

// The standard single-transfer reduction: AWE with stability-guided
// transport-delay extraction. Tries td in {1, 3/4, 1/2, 1/4, 0} * max_delay
// (pass the line's time of flight) and keeps the largest extraction whose
// RATIONAL part still admits a stable full-order Pade fit — over-extraction
// announces itself as Hankel instability, so stability at full order is the
// selection rule. Falls back to the highest achieved order otherwise.
// max_delay <= 0 degenerates to pade_reduce. Throws like pade_reduce when
// even td = 0 admits no stable model.
PoleResidueModel reduce_transfer(const std::vector<double>& moments, int order,
                                 double max_delay);

// The representability floor of a coupled-bus transfer: the order to pass
// reduce_transfer for a driver `hops` nearest-neighbor hops from the
// measured line when `order` poles are asked for. Such a transfer couples
// through `hops` capacitive/inductive links, so it rises like s^hops (its
// first `hops` moments are exactly zero — G alone does not couple the
// lines) and no rational with fewer than hops+1 poles can represent it.
// Those far transfers are also the smallest contributions, so raising
// their order to the floor keeps "q-th order" honest where it matters (the
// line's own transfer and its neighbors'). Returns max(order, hops + 1).
int coupled_transfer_order(int order, int hops);

}  // namespace rlcsim::mor
