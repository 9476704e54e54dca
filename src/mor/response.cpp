#include "mor/response.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "numeric/optimize.h"
#include "numeric/roots.h"
#include "obs/metrics.h"
#include "sim/builders.h"

namespace rlcsim::mor {
namespace {

using Complex = std::complex<double>;

// Extremum refinement inside a bracketing interval via the shared 1-D
// minimizer (`sign` = +1 maximizes by minimizing -f). The objective is a
// smooth exponential sum, so Brent's parabolic steps converge fast.
double refine_extremum(const std::function<double(double)>& f, double lo,
                       double hi, int sign) {
  numeric::MinimizeOptions options;
  options.x_tolerance = 1e-14 * std::max(std::fabs(hi), 1e-300);
  return numeric::brent_min(
             [&](double x) { return sign > 0 ? -f(x) : f(x); }, lo, hi,
             options)
      .x;
}

// Samples of a uniform scan over `window`: enough to bracket every
// half-oscillation (32 per period of the fastest ringing pole), with a floor
// for smooth responses and a cap against pathological requests. The floor
// only needs to BRACKET a crossing or an extremum (Brent refines it), and a
// smooth exponential sum's features span many samples at 512 across a
// 12-tau window.
std::size_t grid_samples(double window, double max_omega, std::size_t floor) {
  if (max_omega <= 0.0) return floor;
  const double oscillations =
      window * max_omega / (2.0 * 3.14159265358979323846);
  return std::clamp<std::size_t>(
      static_cast<std::size_t>(32.0 * oscillations), floor, 1u << 18);
}

// Where a sample sits relative to a level, with NaN unordered (it brackets
// nothing, exactly as the `<`/`>=` comparisons it stands for).
enum class Side { kBelow, kAt, kAbove, kUnordered };

Side side_of(double v, double level) {
  if (v < level) return Side::kBelow;
  if (v > level) return Side::kAbove;
  if (v == level) return Side::kAt;
  return Side::kUnordered;
}

}  // namespace

double ResponseExtrema::excursion_outside(double level_a,
                                          double level_b) const {
  return std::max({0.0, std::min(level_a, level_b) - min_value,
                   peak_value - std::max(level_a, level_b)});
}

AnalyticResponse::AnalyticResponse(double dc_offset) : dc_offset_(dc_offset) {}

void AnalyticResponse::add_step(const PoleResidueModel& h, double delta,
                                double start) {
  add_ramp(h, delta, 0.0, start);
}

void AnalyticResponse::add_ramp(const PoleResidueModel& h, double delta,
                                double rise, double start) {
  if (rise < 0.0 || !std::isfinite(rise))
    throw std::invalid_argument("AnalyticResponse: rise must be >= 0");
  if (start < 0.0 || !std::isfinite(start))
    throw std::invalid_argument("AnalyticResponse: start must be >= 0");
  Contribution c;
  c.delta = delta;
  c.rise = rise;
  c.dc = h.dc_gain;
  // The onset composes with the model's transport delay: the response is
  // exactly 0 until start + delay, which is all contribution_value needs.
  c.delay = h.delay + start;
  c.terms.reserve(h.poles.size());
  for (std::size_t i = 0; i < h.poles.size(); ++i) {
    const Complex p = h.poles[i];
    const Complex coefficient =
        rise > 0.0 ? h.residues[i] / (p * p) : h.residues[i] / p;
    c.terms.emplace_back(p, coefficient);
    if (p.real() < 0.0)
      slowest_tau_ = std::max(slowest_tau_, 1.0 / -p.real());
    max_omega_ = std::max(max_omega_, std::fabs(p.imag()));
  }
  max_rise_ = std::max(max_rise_, rise);
  max_delay_ = std::max(max_delay_, c.delay);
  contributions_.push_back(std::move(c));
}

double AnalyticResponse::contribution_value(const Contribution& c,
                                            double t) const {
  const double ts = t - c.delay;  // response is exactly 0 before the delay
  if (ts <= 0.0) return 0.0;
  if (c.rise == 0.0) {
    Complex sum = 0.0;
    for (const auto& [p, a] : c.terms) sum += a * std::exp(p * ts);
    return c.delta * (c.dc + sum.real());
  }
  // Ramp: (z(ts) - z(ts - rise)) / rise with z the step-response integral.
  const auto z = [&](double tau) {
    if (tau <= 0.0) return 0.0;
    Complex sum = 0.0;
    for (const auto& [p, a] : c.terms) sum += a * (std::exp(p * tau) - 1.0);
    return c.dc * tau + sum.real();
  };
  return c.delta * (z(ts) - z(ts - c.rise)) / c.rise;
}

double AnalyticResponse::value(double t) const {
  double v = dc_offset_;
  for (const auto& c : contributions_) v += contribution_value(c, t);
  return v;
}

namespace {
// Block width of values(). Stack lanes only — the pole loop is hoisted
// OUTSIDE the lane loop, so each (pole, coefficient) pair is loaded once per
// block instead of once per sample.
constexpr std::size_t kScanBlock = 8;
// Both scans try their early exits on every kSettleCheck-th grid index
// (each try costs one exp per pole term).
constexpr std::size_t kSettleCheck = 64;
}  // namespace

void AnalyticResponse::values(const double* times, double* out,
                              std::size_t count) const {
  for (std::size_t base = 0; base < count; base += kScanBlock) {
    const std::size_t w = std::min(kScanBlock, count - base);
    const double* t = times + base;
    double* o = out + base;
    for (std::size_t i = 0; i < w; ++i) o[i] = dc_offset_;
    std::array<double, kScanBlock> ts;
    std::array<Complex, kScanBlock> sum_a, sum_b;
    for (const auto& c : contributions_) {
      for (std::size_t i = 0; i < w; ++i) ts[i] = t[i] - c.delay;
      sum_a.fill(Complex(0.0));
      if (c.rise == 0.0) {
        for (const auto& [p, a] : c.terms)
          for (std::size_t i = 0; i < w; ++i)
            if (ts[i] > 0.0) sum_a[i] += a * std::exp(p * ts[i]);
        for (std::size_t i = 0; i < w; ++i)
          if (ts[i] > 0.0) o[i] += c.delta * (c.dc + sum_a[i].real());
        continue;
      }
      // Ramp lanes carry BOTH z integrals — z(ts) and z(ts - rise) — through
      // one pass over the terms, each behind its own exact-onset guard so a
      // lane straddling the onset accumulates precisely what the scalar z
      // lambda would (nothing before it, the same term order after).
      sum_b.fill(Complex(0.0));
      for (const auto& [p, a] : c.terms) {
        for (std::size_t i = 0; i < w; ++i) {
          if (ts[i] > 0.0) sum_a[i] += a * (std::exp(p * ts[i]) - 1.0);
          const double tau = ts[i] - c.rise;
          if (tau > 0.0) sum_b[i] += a * (std::exp(p * tau) - 1.0);
        }
      }
      for (std::size_t i = 0; i < w; ++i) {
        if (ts[i] <= 0.0) continue;
        const double z_on = c.dc * ts[i] + sum_a[i].real();
        const double tau = ts[i] - c.rise;
        const double z_off = tau <= 0.0 ? 0.0 : c.dc * tau + sum_b[i].real();
        o[i] += c.delta * (z_on - z_off) / c.rise;
      }
    }
  }
}

double AnalyticResponse::final_value() const {
  double v = dc_offset_;
  for (const auto& c : contributions_) v += c.delta * c.dc;
  return v;
}

double AnalyticResponse::suggested_horizon() const {
  const double tau = slowest_tau_ > 0.0 ? slowest_tau_ : 1e-12;
  return 12.0 * tau + 2.0 * max_rise_ + max_delay_;
}

// Recurrence evaluation of the response on one uniform scan grid
// t_i = t0 + span*i/samples, visited at consecutive i.
//
// Every pole term carries e^{p ts} from one sample to the next with a single
// complex multiply by w = e^{p h}, h = span/samples, instead of a call to
// std::exp. A term is seeded with a direct exp at its onset (the first
// sample with ts > 0; a ramp's off-term e^{p (ts - rise)} has its own
// recurrence, seeded at its own onset, because e^{-p rise} overflows for
// fast poles) and re-seeded every kReseed samples.
//
// estimate(t) is NOT value(t): it drifts from it by at most bound(t). The
// scans use an estimate only for a decision the bound settles (which side
// of a level a sample lies on, or whether it beats a running extremum) and
// re-evaluate with value() otherwise, so every decision — and every result
// bit — is the exact scan's.
//
// Derivation of bound(t) = 2 (b0 + b1 |t|), u = unit roundoff, K = kReseed,
// T = max |t| on the grid, per contribution S = sum |a|, Q = sum |a||p|
// over its n terms (a = r/p or r/p^2). Stable poles only (|e^{p ts}| <= 1);
// an unstable pole makes the bound infinite and every sample exact.
//  * Term drift. value() evaluates exp(fl(p ts_i)) with ts_i = fl(t_i - d)
//    and t_i = fl(t0 + fl(fl(span i) / samples)): ts_i sits within 4uT of
//    the ideal grid time, and each exp is within ~4u of its rounded
//    argument. The recurrence is an exact seed at a sample j (also within
//    4uT) times m <= K factors w, each within u(|p|h + 4) of e^{p h}
//    (itself h within u h, m h <= T) and each multiply within ~3u. Summed:
//    |estimate - exact| of one term <= |a| u ((8 + 7K) + 11 |p| T); the
//    constants are rounded up to 16 + 7K and 16 |p| T.
//  * Summation. Both paths add n terms of magnitude <= 2|a| (e - 1 for
//    ramps) with one rounding per product/add: <= 4 (n + 4) u S for both
//    together.
//  * Assembly. A step contribution delta (dc + s) rounds twice per path
//    against |delta| (|dc| + S). A ramp's z(x) = dc x + s rounds once per
//    path against |dc x| + 2S; both z's and both paths give
//    (4u |dc| ts + 8uS) |delta| / rise with ts <= |t| — the b1 term. The
//    dc x products themselves are computed identically on both paths and
//    contribute nothing. (z_on - z_off) / rise * delta rounds three times
//    per path against |delta| (|dc| + 4S / rise).
//  * Superposition adds each contribution to the running sum: one rounding
//    per add per path against |dc_offset| + sum of contribution bounds.
// The final factor 2 is slack for the first-order (1 + x)^K ~ 1 + Kx steps.
//
// value()'s own rounding, E: |value(t) - y(t)| <= E for every grid sample t
// past every onset and ramp end, y the exact exponential sum at that double
// t. bound() is a DIFFERENCE of two evaluation paths, and the dc x products
// it cancels do not cancel against y, so E is derived on its own. Same u, T,
// S, Q and n; exp, sin and cos are taken within one ulp each.
//  * Arguments. ts = fl(t - d) is within uT of t - d and a ramp's
//    tau = fl(ts - rise) within 2uT of t - d - rise; fl(p x) adds u|p|T, so
//    each exp argument sits within 3u|p|T of the exact one and each exp
//    (|e| <= 1 on stable poles) within u(5 + 3.1|p|T) |e| of its exact value.
//  * Step. a e rounds within 3u|a||e|, the n-term sum adds nuS, dc + s and
//    delta (...) round once each: E_c <= |delta| u ((16 + n) S + 4TQ + 2|dc|).
//  * Ramp. In z(x) = dc x + sum Re(a (e - 1)) the argument errors of both
//    z's cost 3u|dc|T through dc x (the exps' are counted above). Inside one
//    z: (e - 1) and a (e - 1) round within 2u|a| and 6u|a|, the n terms
//    (each <= 2|a|) add 2nuS, dc x and the final add round within
//    u (2|dc|T + 2S). z_on - z_off rounds within u (2|dc|T + 4S); / rise and
//    * delta round once each against |delta| (|dc| + 2S / rise). Together,
//    rounded up: E_c <= |delta| u ((10|dc|T + (40 + 4n) S + 8TQ) / rise
//    + 2|dc|).
//  * Superposition. Each += rounds within u (|dc_offset| + sum of the
//    contribution magnitudes).
// E is twice the sum: slack for the dropped second-order terms and for the
// <= 4u relative rounding of the increment it is compared against below.
//
// Monotone tail. Past every onset and ramp end,
//   y'(t) = sum_k Re(kappa_k e^{p_k x_k}),  x_k = t - d_c - rise_c,
// with kappa = delta a p (step) or delta a p (e^{p rise} - 1) / rise (ramp).
// Let p* be the largest Re p. When p* < 0 and every term with Re p = p* is
// real, D(t) = sum over those terms of kappa e^{p* x} scales exactly as
// e^{p* t}, while R(t) = sum over the rest of |kappa| e^{Re p x} shrinks at
// least that fast. So |D(t)| > R(t) gives |y'(s)| >= (|D| - R) e^{p* (s - t)}
// with y' of D's sign for every s >= t, and consecutive grid samples at or
// after t (spacing >= h - 8uT: each point is within 3uT of its exact time)
// differ in y by at least (h - 8uT) (|D| - R) e^{p* (T - t)}. When that
// exceeds 2E, value() is strictly monotone over those samples too. The
// computed D and R carry rounding from kappa (within 12u |kappa|, plus
// u (8 + 2|p| rise) |delta a p| / rise on a ramp: e^{p rise} - 1 is within
// u (7 + 1.1|p| rise) of exact, its argument, exp and subtraction each
// rounding, a cancellation charged absolutely), from the decays e^{Re p x} (x within 2uT:
// u (2 + 4|p|T) relative), from the two sums (Nu each over all N terms)
// and from |D| - R, so R is charged u (20 + 2N + 4|p|T) |kappa| per term,
// plus that ramp term, times e^{Re p x}.
class AnalyticResponse::Scanner {
 public:
  static constexpr int kReseed = 64;

  Scanner(const AnalyticResponse& response, double t0, double span,
          std::size_t samples)
      : response_(response), t0_(t0), span_(span), samples_(samples) {
    constexpr double u = std::numeric_limits<double>::epsilon() / 2.0;
    const double h = span / static_cast<double>(samples);
    const double t_max = std::max(std::fabs(t0), std::fabs(t0 + span));
    double d_min = std::numeric_limits<double>::infinity();
    double b0 = 0.0, b1 = 0.0, contribution_sum = 0.0;
    bool stable = true;
    for (const Contribution& c : response.contributions_) {
      Piece piece;
      piece.begin = poles_.size();
      double s = 0.0, q = 0.0;
      for (const auto& [p, a] : c.terms) {
        const Complex w = std::exp(p * h);
        poles_.push_back(p);
        wr_.push_back(w.real());
        wi_.push_back(w.imag());
        ar_.push_back(a.real());
        ai_.push_back(a.imag());
        abs_a_.push_back(std::abs(a));
        piece.sum_re_a += a.real();
        s += std::abs(a);
        q += std::abs(a) * std::abs(p);
        stable = stable && p.real() <= 0.0;
      }
      piece.end = poles_.size();
      piece.s = s;
      piece.q = q;
      piece.tail_scale =
          std::fabs(c.delta) * (c.rise == 0.0 ? 1.0 : 2.0 / c.rise);
      pieces_.push_back(piece);
      d_min = std::min(d_min, c.delay);

      const double n = static_cast<double>(c.terms.size());
      const double drift =
          u * ((16.0 + 7.0 * kReseed + 4.0 * (n + 4.0)) * s + 16.0 * t_max * q);
      const double delta = std::fabs(c.delta), dc = std::fabs(c.dc);
      if (c.rise == 0.0) {
        const double magnitude = delta * (dc + s);
        b0 += delta * drift + 4.0 * u * magnitude;
        contribution_sum += magnitude;
      } else {
        const double magnitude = delta * (dc + 4.0 * s / c.rise);
        b0 += delta / c.rise * (2.0 * drift + 8.0 * u * s) +
              6.0 * u * magnitude;
        b1 += 4.0 * u * delta * dc / c.rise;
        contribution_sum += magnitude;
      }
    }
    b0 += 2.0 * u * static_cast<double>(pieces_.size()) *
          (std::fabs(response.dc_offset_) + contribution_sum);
    if (!stable || !std::isfinite(b0) || !std::isfinite(b1)) {
      b0 = std::numeric_limits<double>::infinity();
      b1 = 0.0;
    }
    bound0_ = 2.0 * b0;
    bound1_ = 2.0 * b1;
    tail_rounding_ = std::max(bound(t0), bound(point(samples)));
    zr_.assign(poles_.size(), 0.0);
    zi_.assign(poles_.size(), 0.0);
    zr_off_.assign(poles_.size(), 0.0);
    zi_off_.assign(poles_.size(), 0.0);

    // Dead time: before the earliest onset every contribution is exactly 0,
    // so value() is dc_offset_ and no sample there can bracket a level or
    // beat an extremum. The first live index is the first t_i > d_min
    // (t_i - d > 0 iff t_i > d for finite doubles).
    first_live_ = samples + 1;
    if (point(samples) > d_min) {
      const double x =
          std::floor((d_min - t0) / span * static_cast<double>(samples));
      std::size_t i = x < 1.0 ? 1
                      : x > static_cast<double>(samples)
                          ? samples
                          : static_cast<std::size_t>(x);
      while (i > 1 && point(i - 1) > d_min) --i;
      while (!(point(i) > d_min)) ++i;
      first_live_ = i;
    }
  }

  // Grid time of sample i, in exactly the operation order the scans use.
  double point(std::size_t i) const {
    return t0_ + span_ * static_cast<double>(i) / static_cast<double>(samples_);
  }
  // First sample past the earliest onset (samples + 1 if none is).
  std::size_t first_live() const { return first_live_; }
  // |estimate(t) - value(t)| <= bound(t); +inf when no bound holds.
  double bound(double t) const { return bound0_ + bound1_ * std::fabs(t); }

  // Settled tail: a bound on |value(t') - final_value()| over every grid
  // sample t' after t = point(i), or +inf while some contribution is still
  // before its onset or on its ramp (or a pole is unstable).
  //
  // Past its onset and ramp end a contribution differs from its final
  // delta*dc by delta * sum Re(a e^{p ts}) (step) or
  // delta/rise * sum Re(a (e^{p ts} - e^{p (ts - rise)})) (ramp), so for
  // stable poles (Re p <= 0) the math gap is at most
  //   sum_c |delta_c| g_c sum |a| e^{Re p (t - d_c - rise_c)},
  // g_c = 1 for a step and 2/rise_c for a ramp, and it only shrinks as t
  // grows (later grid samples sit a whole step past t, far beyond the
  // rounding of t - d_c - rise_c). bound() at the window's ends covers what
  // value() and final_value() round on top of the math values (both are
  // evaluation paths the drift bound above already accounts for); the
  // factor 2 is slack for that and for the rounding of the tail sum.
  //
  // With `slope`, also the monotone-tail certificate at t (derived above)
  // from the same decays: +1 / -1 when value() is proven strictly
  // increasing / decreasing over the grid samples from t on, else 0.
  double tail_bound(double t, int* slope = nullptr) {
    if (slope) *slope = 0;
    if (!std::isfinite(tail_rounding_))
      return std::numeric_limits<double>::infinity();
    const bool certify = slope && certifiable();
    double tail = 0.0, dominant = 0.0, rest = 0.0;
    for (std::size_t k = 0; k < pieces_.size(); ++k) {
      const Contribution& c = response_.contributions_[k];
      const double x = (t - c.delay) - c.rise;
      if (!(x >= 0.0)) return std::numeric_limits<double>::infinity();
      const Piece& piece = pieces_[k];
      double sum = 0.0;
      for (std::size_t j = piece.begin; j < piece.end; ++j) {
        const double decay = std::exp(poles_[j].real() * x);
        sum += abs_a_[j] * decay;
        if (!certify) continue;
        const Slope& slope_term = slopes_[j];
        if (poles_[j].real() == slowest_)
          dominant += slope_term.kappa * decay;
        else
          rest += slope_term.abs_kappa * decay;
        rest += slope_term.slack * decay;
      }
      tail += piece.tail_scale * sum;
    }
    if (certify) {
      const double margin = std::fabs(dominant) - rest;
      const double increment =
          step_ * margin * std::exp(slowest_ * (t_end_ - t));
      if (margin > 0.0 && increment > 2.0 * value_rounding_)
        *slope = dominant > 0.0 ? +1 : -1;
    }
    return 2.0 * (tail + tail_rounding_);
  }

  // Recurrence estimate of value(t) for t = point(i); successive calls must
  // visit consecutive i starting at first_live().
  double estimate(double t) {
    double v = response_.dc_offset_;
    for (std::size_t k = 0; k < pieces_.size(); ++k) {
      const Contribution& c = response_.contributions_[k];
      Piece& piece = pieces_[k];
      const double ts = t - c.delay;
      if (!(ts > 0.0)) continue;
      const double on = advance(piece.on, piece, ts, zr_.data(), zi_.data());
      if (c.rise == 0.0) {
        v += c.delta * (c.dc + on);
        continue;
      }
      const double tau = ts - c.rise;
      const double z_on = c.dc * ts + (on - piece.sum_re_a);
      const double z_off =
          tau > 0.0
              ? c.dc * tau + (advance(piece.off, piece, tau, zr_off_.data(),
                                      zi_off_.data()) -
                              piece.sum_re_a)
              : 0.0;
      v += c.delta * (z_on - z_off) / c.rise;
    }
    return v;
  }

 private:
  struct Piece {
    std::size_t begin = 0, end = 0;  // the contribution's terms
    double sum_re_a = 0.0;           // sum Re(a): the ramp's "- 1" terms
    double tail_scale = 0.0;         // |delta| (step) or 2|delta|/rise (ramp)
    double s = 0.0, q = 0.0;         // S = sum |a|, Q = sum |a||p|
    int on = -1, off = -1;  // samples since the last seed; -1 = not yet live
  };

  // Whether the monotone-tail certificate can hold at all: p* real and
  // stable, E finite. Its inputs (p*, E and the kappa terms) are built on
  // the first call, so scans that never try it (first_crossing) pay
  // nothing.
  bool certifiable() {
    if (certificate_ != Certificate::kUnknown)
      return certificate_ == Certificate::kReady;
    certificate_ = Certificate::kNever;
    constexpr double u = std::numeric_limits<double>::epsilon() / 2.0;
    slowest_ = -std::numeric_limits<double>::infinity();
    bool real = false;
    for (const Complex& p : poles_) {
      if (p.real() > slowest_) {
        slowest_ = p.real();
        real = p.imag() == 0.0;
      } else if (p.real() == slowest_) {
        real = real && p.imag() == 0.0;
      }
    }
    if (!(slowest_ < 0.0) || !real) return false;

    const double t_max = std::max(std::fabs(t0_), std::fabs(t0_ + span_));
    const double n_all = static_cast<double>(poles_.size());
    slopes_.reserve(poles_.size());
    double rounding = 0.0, magnitudes = std::fabs(response_.dc_offset_);
    for (std::size_t k = 0; k < pieces_.size(); ++k) {
      const Contribution& c = response_.contributions_[k];
      const double s = pieces_[k].s, q = pieces_[k].q;
      const double n = static_cast<double>(c.terms.size());
      const double delta = std::fabs(c.delta), dc = std::fabs(c.dc);
      if (c.rise == 0.0) {
        rounding += delta * u * ((16.0 + n) * s + 4.0 * t_max * q + 2.0 * dc);
        magnitudes += delta * (dc + s);
      } else {
        rounding += delta * u *
                    ((10.0 * dc * t_max + (40.0 + 4.0 * n) * s +
                      8.0 * t_max * q) / c.rise +
                     2.0 * dc);
        magnitudes += delta * (dc + 2.0 * s / c.rise);
      }
      for (std::size_t j = pieces_[k].begin; j < pieces_[k].end; ++j) {
        const Complex p = poles_[j];
        const Complex ap = Complex(ar_[j], ai_[j]) * p;
        Complex kappa = c.delta * ap;
        double slack = 20.0 + 2.0 * n_all + 4.0 * std::abs(p) * t_max;
        if (c.rise != 0.0) {
          kappa = kappa * (std::exp(p * c.rise) - 1.0) / c.rise;
          slack = slack * std::abs(kappa) + (8.0 + 2.0 * std::abs(p) * c.rise) *
                                                delta * std::abs(ap) / c.rise;
        } else {
          slack *= std::abs(kappa);
        }
        slopes_.push_back({kappa.real(), std::abs(kappa), u * slack});
      }
    }
    rounding += u * static_cast<double>(pieces_.size()) * magnitudes;
    value_rounding_ = 2.0 * rounding;
    step_ = span_ / static_cast<double>(samples_) - 8.0 * u * t_max;
    t_end_ = point(samples_);
    if (!std::isfinite(value_rounding_) || !(step_ > 0.0)) return false;
    certificate_ = Certificate::kReady;
    return true;
  }

  // Moves one term set to the current sample — a direct exp at onset and
  // every kReseed samples, one multiply by w otherwise — and returns
  // sum Re(a z).
  double advance(int& age, const Piece& piece, double x, double* zr,
                 double* zi) {
    double sum = 0.0;
    if (age < 0 || age == kReseed) {
      age = 0;
      for (std::size_t k = piece.begin; k < piece.end; ++k) {
        const Complex z = std::exp(poles_[k] * x);
        zr[k] = z.real();
        zi[k] = z.imag();
        sum += ar_[k] * zr[k] - ai_[k] * zi[k];
      }
      return sum;
    }
    ++age;
    for (std::size_t k = piece.begin; k < piece.end; ++k) {
      const double re = zr[k] * wr_[k] - zi[k] * wi_[k];
      const double im = zr[k] * wi_[k] + zi[k] * wr_[k];
      zr[k] = re;
      zi[k] = im;
      sum += ar_[k] * re - ai_[k] * im;
    }
    return sum;
  }

  const AnalyticResponse& response_;
  double t0_, span_;
  std::size_t samples_;
  std::size_t first_live_ = 0;
  double bound0_ = 0.0, bound1_ = 0.0;
  double tail_rounding_ = 0.0;  // bound() over the whole grid
  // Monotone-tail certificate inputs (built by certifiable()): E, the
  // grid's last time, h - 8uT and the slowest decay rate p*.
  enum class Certificate { kUnknown, kNever, kReady };
  Certificate certificate_ = Certificate::kUnknown;
  double value_rounding_ = 0.0, t_end_ = 0.0, step_ = 0.0, slowest_ = 0.0;
  std::vector<Piece> pieces_;
  std::vector<Complex> poles_;
  // Structure of arrays over every term of every contribution.
  std::vector<double> wr_, wi_, ar_, ai_, abs_a_, zr_, zi_, zr_off_, zi_off_;
  // Per term: Re kappa, |kappa| and the certificate's rounding charge
  // (built by certifiable()).
  struct Slope {
    double kappa, abs_kappa, slack;
  };
  std::vector<Slope> slopes_;
};

std::optional<double> AnalyticResponse::first_crossing(double level,
                                                       int direction,
                                                       double t_from) const {
  double window = suggested_horizon();
  const double final_gap = final_value() - level;
  // The side every settled sample sits on (a level ON the final value has
  // none: the tail may touch it, so such a scan always runs to the end).
  const Side settled_side = final_gap > 0.0   ? Side::kAbove
                            : final_gap < 0.0 ? Side::kBelow
                                              : Side::kUnordered;
  std::uint64_t walked = 0, exact = 0;
  std::optional<double> crossing;
  for (int attempt = 0; attempt < 4 && !crossing; ++attempt, window *= 4.0) {
    const std::size_t samples = grid_samples(window, max_omega_, 512);
    Scanner scan(*this, t_from, window, samples);
    // Samples before first_live() all equal value(t_from), so none of them
    // brackets: the walk resumes at the last dead grid point with its side.
    std::size_t i = scan.first_live();
    double prev_t = i > 1 ? scan.point(i - 1) : t_from;
    Side prev = side_of(value(t_from), level);
    for (; i <= samples; ++i) {
      const double t = scan.point(i);
      const double gap = scan.estimate(t) - level;
      const double bound = scan.bound(t);
      Side side;
      if (gap > bound) {
        side = Side::kAbove;
      } else if (gap < -bound) {
        side = Side::kBelow;
      } else {
        ++exact;
        side = side_of(value(t), level);
      }
      const bool rising =
          prev == Side::kBelow && (side == Side::kAt || side == Side::kAbove);
      const bool falling =
          prev == Side::kAbove && (side == Side::kAt || side == Side::kBelow);
      if ((direction >= 0 && rising) || (direction <= 0 && falling)) {
        // Absolute x tolerance scaled to the time window: the default 1e-12
        // is meant for O(1) roots and would stop 3 decades early on
        // nanosecond-scale crossings.
        numeric::RootOptions tolerance;
        tolerance.x_tolerance = 1e-14 * window;
        crossing = numeric::brent([&](double x) { return value(x) - level; },
                                  prev_t, t, tolerance);
        ++i;
        break;
      }
      // Settled tail: once this sample is strictly on the final value's
      // side and the tail bound proves every later sample is too, no
      // transition (and so no crossing) is left in this window.
      if (side == settled_side && i % kSettleCheck == 0 &&
          std::fabs(final_gap) > scan.tail_bound(t)) {
        ++i;
        break;
      }
      prev_t = t;
      prev = side;
    }
    walked += i - std::min(i, scan.first_live());
  }
  OBS_COUNTER_ADD("mor.scan_samples", walked);
  OBS_COUNTER_ADD("mor.scan_exact_fallbacks", exact);
  return crossing;
}

ResponseExtrema AnalyticResponse::extrema() const {
  // Global extrema: scan the settled window, refine the best brackets (the
  // floor mirrors first_crossing's: Brent sharpens whatever the coarse scan
  // brackets, and peaks of a smooth exponential sum span many samples).
  const double horizon = suggested_horizon();
  const std::size_t samples = grid_samples(horizon, max_omega_, 1024);
  Scanner scan(*this, 0.0, horizon, samples);
  // A running extremum is held either exactly or as an estimate (error <=
  // bound, which only grows with t); a sample beats it for certain when the
  // estimates differ by more than twice the bound, and is compared exactly
  // otherwise. Dead-time samples equal value(0.0) and never beat it.
  struct Extremum {
    double v;
    std::size_t i = 0;
    bool exact = true;
  };
  Extremum hi{value(0.0)}, lo{hi.v};
  std::uint64_t exact = 0;
  const auto settle = [&](Extremum& e) {
    if (e.exact) return;
    e.v = value(scan.point(e.i));
    e.exact = true;
    ++exact;
  };
  const double final_v = final_value();
  bool settled_exit = false, monotone_exit = false;
  std::size_t i = scan.first_live();
  for (; i <= samples; ++i) {
    const double t = scan.point(i);
    const double estimate = scan.estimate(t);
    const double bound = 2.0 * scan.bound(t);
    double v = 0.0;
    bool evaluated = false;
    const auto exact_v = [&] {
      if (!evaluated) {
        v = value(t);
        evaluated = true;
        ++exact;
      }
      return v;
    };
    if (estimate - hi.v > bound) {
      hi = {estimate, i, false};
    } else if (!(estimate - hi.v < -bound)) {
      settle(hi);
      if (exact_v() > hi.v) hi = {v, i, true};
    }
    if (lo.v - estimate > bound) {
      lo = {estimate, i, false};
    } else if (!(lo.v - estimate < -bound)) {
      settle(lo);
      if (exact_v() < lo.v) lo = {v, i, true};
    }
    if (i % kSettleCheck != 0 || i == samples) continue;
    // Proven early exits; both only shorten the walk. Settled extrema: no
    // later sample comes within tail_bound(t) of either running extremum
    // (held exactly first; the pre-test on held estimates, each within
    // `bound` of its exact value, skips those evaluations when the exit
    // cannot fire). Monotone tail: every later sample strictly beats the
    // one before it, so only the last can move one extremum, and only by
    // strictly beating it (an earlier index wins a tie).
    int slope = 0;
    const double tail = scan.tail_bound(t, &slope);
    if (!std::isfinite(tail)) continue;
    if (hi.v - final_v > tail - bound && final_v - lo.v > tail - bound) {
      settle(hi);
      settle(lo);
      if (hi.v - final_v > tail && final_v - lo.v > tail) {
        settled_exit = true;
        ++i;
        break;
      }
    }
    if (slope != 0) {
      settle(hi);
      settle(lo);
      const double end = value(scan.point(samples));
      ++exact;
      if (slope > 0 && end > hi.v) hi = {end, samples, true};
      if (slope < 0 && end < lo.v) lo = {end, samples, true};
      monotone_exit = true;
      ++i;
      break;
    }
  }
  settle(hi);
  settle(lo);
  OBS_COUNTER_ADD("mor.scan_samples", i - std::min(i, scan.first_live()));
  OBS_COUNTER_ADD("mor.scan_exact_fallbacks", exact);
  OBS_COUNTER_ADD("mor.extremum_settled_exits", settled_exit);
  OBS_COUNTER_ADD("mor.extremum_monotone_exits", monotone_exit);
  OBS_COUNTER_ADD("mor.extremum_scans", 1);
  const auto refine = [&](std::size_t i, int sign, double coarse) {
    if (i == 0 || i == samples) return coarse;
    const double dt = horizon / static_cast<double>(samples);
    const double t = refine_extremum([&](double x) { return value(x); },
                                     static_cast<double>(i - 1) * dt,
                                     static_cast<double>(i + 1) * dt, sign);
    return sign > 0 ? std::max(coarse, value(t)) : std::min(coarse, value(t));
  };
  return {refine(hi.i, +1, hi.v), refine(lo.i, -1, lo.v)};
}

ResponseMetrics AnalyticResponse::measure(double drive_lo, double drive_hi,
                                          bool want_rise) const {
  ResponseMetrics metrics;
  const double swing = drive_hi - drive_lo;
  const int direction = swing > 0.0 ? +1 : -1;
  if (swing != 0.0) {
    metrics.delay_50 = first_crossing(drive_lo + 0.5 * swing, direction);
    if (want_rise) {
      const auto t10 = first_crossing(drive_lo + 0.1 * swing, direction);
      if (t10) {
        const auto t90 =
            first_crossing(drive_lo + 0.9 * swing, direction, *t10);
        if (t90) metrics.rise_10_90 = *t90 - *t10;
      }
    }
  }

  const ResponseExtrema extremes = extrema();
  metrics.peak_value = extremes.peak_value;
  metrics.min_value = extremes.min_value;
  metrics.peak_noise = extremes.excursion_outside(drive_lo, drive_hi);
  if (swing != 0.0) {
    const double past_final = direction > 0 ? metrics.peak_value - drive_hi
                                            : drive_hi - metrics.min_value;
    metrics.overshoot = std::max(0.0, past_final / std::fabs(swing));
  }
  return metrics;
}

double reduced_gate_delay(const tline::GateLineLoad& system, int segments,
                          int order, double threshold,
                          ConductanceReuse* reuse) {
  const sim::Circuit circuit = sim::build_gate_line_load(system, segments);
  const sim::MnaAssembler mna(circuit);
  const LinearSystem linear = make_linear_system(mna, {"out"});
  const MomentGenerator generator(linear, reuse);
  const std::vector<double> moments = generator.transfer_moments(
      linear.outputs[0], linear.inputs[0], 2 * order);
  const PoleResidueModel model =
      reduce_transfer(moments, order, system.line.time_of_flight());

  AnalyticResponse response;
  response.add_step(model, 1.0);
  const auto crossing = response.first_crossing(threshold, +1);
  if (!crossing)
    throw std::runtime_error(
        "reduced_gate_delay: reduced response never crossed the threshold "
        "within the (auto-extended) window");
  return *crossing;
}

}  // namespace rlcsim::mor
