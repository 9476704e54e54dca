// Moment-matching model-order reduction (src/mor/) tests: transfer moments
// against the closed-form denominator expansion, the AWE/Pade reduction
// against the MNA transient oracle, the analytic response metrics, the
// reduced crosstalk path, and the sweep engine's reduced analyses (one
// symbolic factorization, bit-identical at any thread count).
#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/crosstalk.h"
#include "core/two_pole.h"
#include "mor/moments.h"
#include "mor/reduce.h"
#include "mor/response.h"
#include "numeric/optimize.h"
#include "numeric/roots.h"
#include "numeric/sparse.h"
#include "obs/metrics.h"
#include "sim/builders.h"
#include "sweep/sweep.h"
#include "tline/transfer.h"

namespace {

using namespace rlcsim;

// The paper's canonical moderately damped system.
const tline::GateLineLoad kSystem{500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};

mor::LinearSystem linear_system_of(const tline::GateLineLoad& system,
                                   int segments) {
  const sim::Circuit circuit = sim::build_gate_line_load(system, segments);
  const sim::MnaAssembler mna(circuit);
  return mor::make_linear_system(mna, {"out"});
}

// ---------------------------------------------------------------------------
// Moments
// ---------------------------------------------------------------------------

TEST(Moments, MatchClosedFormDenominatorExpansion) {
  // H(s) = 1/(1 + b1 s + b2 s^2 + ...) expands as 1 - b1 s + (b1^2 - b2) s^2.
  // The ladder's b1 equals the distributed b1 EXACTLY (the pi ladder's
  // trapezoidal Elmore sum is exact for the linear integrand); b2 converges
  // with segment count.
  const auto expected = tline::moments(kSystem);
  const mor::LinearSystem linear = linear_system_of(kSystem, 40);
  const mor::MomentGenerator generator(linear);
  const auto m =
      generator.transfer_moments(linear.outputs[0], linear.inputs[0], 3);
  EXPECT_NEAR(m[0], 1.0, 1e-12);
  EXPECT_NEAR(m[1], -expected.b1, 1e-9 * expected.b1);
  EXPECT_NEAR(m[2], expected.b1 * expected.b1 - expected.b2,
              1e-3 * expected.b2);
}

TEST(Moments, InputColumnsFollowSourceOrder) {
  // Input columns come voltage sources first, then current sources, then
  // buffers, whatever order the elements were added in; output columns
  // follow the requested node order. Reduced analyses index the columns by
  // this order (input i is line i's driver, column 0 a stage's driver).
  sim::Circuit circuit;
  circuit.add_buffer("a", "c", 100.0, 1e-15, 1.0, 0.5, "buf");
  circuit.add_current_source("0", "b", sim::DcSpec{0.0}, "iin");
  circuit.add_voltage_source("in", "0", sim::DcSpec{0.0}, "vin");
  circuit.add_resistor("in", "a", 50.0);
  circuit.add_resistor("b", "0", 200.0);
  circuit.add_capacitor("a", "0", 1e-13);
  circuit.add_capacitor("b", "0", 1e-13);
  circuit.add_capacitor("c", "0", 1e-13);
  const sim::MnaAssembler mna(circuit);
  const mor::LinearSystem linear =
      mor::make_linear_system(mna, {"c", "a", "b"});

  ASSERT_EQ(linear.inputs.size(), 3u);
  EXPECT_EQ(linear.inputs[0], mna.vsource_vector(0));
  EXPECT_EQ(linear.inputs[1], mna.isource_vector(0));
  EXPECT_EQ(linear.inputs[2], mna.buffer_vector(0));
  ASSERT_EQ(linear.outputs.size(), 3u);
  EXPECT_EQ(linear.outputs[0], mna.node_selector(*circuit.find_node("c")));
  EXPECT_EQ(linear.outputs[1], mna.node_selector(*circuit.find_node("a")));
  EXPECT_EQ(linear.outputs[2], mna.node_selector(*circuit.find_node("b")));
}

TEST(Moments, MakeLinearSystemRejectsUnknownNode) {
  const sim::Circuit circuit = sim::build_gate_line_load(kSystem, 8);
  const sim::MnaAssembler mna(circuit);
  EXPECT_THROW(mor::make_linear_system(mna, {"nonexistent"}),
               std::invalid_argument);
}

TEST(Moments, ConductanceReuseReplaysOneSymbolic) {
  const mor::LinearSystem linear = linear_system_of(kSystem, 40);
  mor::ConductanceReuse reuse;
  const mor::MomentGenerator first(linear, &reuse);
  EXPECT_EQ(reuse.symbolic_factorizations, 1u);
  const auto recorded = reuse.symbolic;
  // Topologically identical rebuild: numeric-only refactorization.
  const mor::LinearSystem again =
      linear_system_of({600.0, {1200.0, 2e-7, 1.5e-12}, 0.4e-12}, 40);
  const mor::MomentGenerator second(again, &reuse);
  EXPECT_EQ(reuse.symbolic_factorizations, 1u);
  EXPECT_EQ(reuse.reuse_hits, 1u);
  // A structurally DIFFERENT system still counts its factorization but must
  // not touch the record.
  const mor::LinearSystem other = linear_system_of(kSystem, 17);
  const mor::MomentGenerator third(other, &reuse);
  EXPECT_EQ(reuse.symbolic_factorizations, 2u);
  EXPECT_EQ(reuse.reuse_hits, 1u);
  EXPECT_EQ(reuse.symbolic, recorded);
}

TEST(Moments, MultiOutputRowsMatchSingleOutput) {
  // One Krylov sequence per input serves every output row; each row must be
  // the per-pair call's moments bit for bit, so prefixes can stand in for
  // lower-order moment sets.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 engine(seed);
    const auto uniform = [&](double lo, double hi) {
      return lo + (hi - lo) * static_cast<double>(engine() >> 11) * 0x1p-53;
    };
    const int lines = 2 + static_cast<int>(engine() % 4);
    const tline::CoupledBus bus = tline::make_bus(
        lines,
        {uniform(100.0, 1000.0), uniform(1e-9, 1e-8), uniform(5e-13, 2e-12)},
        uniform(0.1, 0.5), uniform(0.05, 0.2));
    const sim::Circuit circuit = sim::build_coupled_bus(
        bus,
        core::pattern_drives(lines, bus.victim_index(),
                             core::SwitchingPattern::kSamePhase, 0),
        uniform(50.0, 500.0), uniform(1e-15, 1e-13),
        3 + static_cast<int>(engine() % 6));
    std::vector<std::string> names;
    for (int i = 0; i < lines; ++i)
      names.push_back("line" + std::to_string(i) + ".out");
    const sim::MnaAssembler mna(circuit);
    const mor::LinearSystem linear = mor::make_linear_system(mna, names);
    const mor::MomentGenerator generator(linear);
    const int count = 2 + static_cast<int>(engine() % 9);
    for (std::size_t j = 0; j < linear.inputs.size(); ++j) {
      const auto rows =
          generator.transfer_moments(linear.outputs, linear.inputs[j], count);
      ASSERT_EQ(rows.size(), linear.outputs.size());
      for (std::size_t o = 0; o < rows.size(); ++o) {
        const std::vector<double> single = generator.transfer_moments(
            linear.outputs[o], linear.inputs[j], count);
        ASSERT_EQ(rows[o].size(), single.size());
        EXPECT_EQ(std::memcmp(rows[o].data(), single.data(),
                              single.size() * sizeof(double)),
                  0)
            << "seed " << seed << " input " << j << " output " << o;
      }
    }
  }
  const mor::LinearSystem linear = linear_system_of(kSystem, 8);
  const mor::MomentGenerator generator(linear);
  using Rows = std::vector<std::vector<double>>;
  EXPECT_TRUE(generator.transfer_moments(Rows{}, linear.inputs[0], 4).empty());
  EXPECT_THROW(generator.transfer_moments(linear.outputs, linear.inputs[0], 0),
               std::invalid_argument);
  EXPECT_THROW(generator.transfer_moments(Rows{std::vector<double>(3, 1.0)},
                                          linear.inputs[0], 2),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Pade / AWE
// ---------------------------------------------------------------------------

TEST(PadeReduce, ModelReproducesItsMoments) {
  const mor::LinearSystem linear = linear_system_of(kSystem, 40);
  const mor::MomentGenerator generator(linear);
  const auto m =
      generator.transfer_moments(linear.outputs[0], linear.inputs[0], 8);
  const mor::PoleResidueModel model = mor::pade_reduce(m, 4);
  ASSERT_EQ(model.order, 4);
  EXPECT_TRUE(model.stable);
  EXPECT_LT(model.max_real_pole, 0.0);
  // A full-order [3/4] Pade matches all 8 moments; the residue fit pins the
  // first 4 exactly and the Hankel system the next 4.
  for (int k = 0; k < 8; ++k) {
    const double scale = std::fabs(m[static_cast<std::size_t>(k)]) + 1e-300;
    EXPECT_NEAR(model.moment(k) / scale, m[static_cast<std::size_t>(k)] / scale,
                1e-6)
        << "k=" << k;
  }
  EXPECT_NEAR(model.dc_gain, 1.0, 1e-9);
}

TEST(PadeReduce, ConjugatePairsAreExactlySymmetric) {
  // Underdamped line: complex poles must come in exact conjugate pairs.
  const tline::GateLineLoad underdamped{50.0, {100.0, 1e-6, 1e-12}, 0.1e-12};
  const mor::LinearSystem linear = linear_system_of(underdamped, 40);
  const mor::MomentGenerator generator(linear);
  const auto m =
      generator.transfer_moments(linear.outputs[0], linear.inputs[0], 12);
  const mor::PoleResidueModel model = mor::pade_reduce(m, 6);
  bool found_complex = false;
  for (std::size_t i = 0; i < model.poles.size();) {
    if (model.poles[i].imag() != 0.0) {
      found_complex = true;
      ASSERT_LT(i + 1, model.poles.size());
      EXPECT_EQ(model.poles[i + 1], std::conj(model.poles[i]));
      EXPECT_EQ(model.residues[i + 1], std::conj(model.residues[i]));
      i += 2;
    } else {
      EXPECT_EQ(model.residues[i].imag(), 0.0);
      ++i;
    }
  }
  EXPECT_TRUE(found_complex) << "expected ringing poles on this line";
  // Real response at arbitrary times: imaginary parts cancel exactly.
  const double t = 0.5e-9;
  EXPECT_TRUE(std::isfinite(model.step_response(t)));
}

TEST(PadeReduce, ZeroMomentsGiveZeroModel) {
  const mor::PoleResidueModel model =
      mor::pade_reduce(std::vector<double>(8, 0.0), 4);
  EXPECT_EQ(model.order, 0);
  EXPECT_EQ(model.dc_gain, 0.0);
  EXPECT_EQ(model.step_response(1e-9), 0.0);
  EXPECT_TRUE(model.stable);
}

TEST(PadeReduce, ArgumentValidation) {
  EXPECT_THROW(mor::pade_reduce({1.0, -1e-9}, 0), std::invalid_argument);
  EXPECT_THROW(mor::pade_reduce({1.0, -1e-9}, 2), std::invalid_argument);
}

TEST(DelayExtraction, RecombinationRoundTrips) {
  const std::vector<double> m{1.0, -2e-9, 3e-18, -4e-27, 5e-36, -6e-45};
  const auto shifted = mor::extract_delay(m, 1e-9);
  const auto back = mor::extract_delay(shifted, -1e-9);
  for (std::size_t k = 0; k < m.size(); ++k)
    EXPECT_NEAR(back[k], m[k], 1e-12 * std::fabs(m[k]) + 1e-300) << "k=" << k;
}

TEST(DelayExtraction, LowLossLineUsesTransportDelay) {
  // A near-lossless line's 50% crossing is a wavefront arrival; the plain
  // s = 0 expansion misses it by several percent at q = 4 while the
  // delay-extracted reduction lands close to the transient oracle.
  const tline::GateLineLoad wave{500.0, {500.0, 1e-5, 1e-12}, 1e-12};
  const double oracle = sim::simulate_gate_line_delay(wave, 60);
  const double reduced = mor::reduced_gate_delay(wave, 60, 4);
  EXPECT_NEAR(reduced, oracle, 0.03 * oracle);
}

// ---------------------------------------------------------------------------
// Reduced delay vs the transient oracle
// ---------------------------------------------------------------------------

TEST(ReducedDelay, MatchesTransientAcrossDampingRegimes) {
  const tline::GateLineLoad cases[] = {
      {500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12},  // moderately damped
      {5000.0, {5000.0, 1e-8, 1e-12}, 1e-12},   // heavily damped (RC-like)
      {500.0, {500.0, 1e-6, 1e-12}, 1e-12},     // underdamped, ringing
  };
  for (const auto& system : cases) {
    const double oracle = sim::simulate_gate_line_delay(system, 60);
    const double reduced = mor::reduced_gate_delay(system, 60, 6);
    EXPECT_NEAR(reduced, oracle, 0.02 * oracle)
        << "Rt=" << system.line.total_resistance
        << " Lt=" << system.line.total_inductance;
  }
}

TEST(ReducedDelay, OrderTwoTracksTwoPoleModel) {
  // q = 2 is the paper's model class: same 2-pole denominator family, plus
  // the Pade numerator. They need not agree exactly but must be close on a
  // damped line.
  const double two_pole = core::TwoPoleModel(kSystem).threshold_delay(0.5);
  const double reduced = mor::reduced_gate_delay(kSystem, 60, 2);
  EXPECT_NEAR(reduced, two_pole, 0.05 * two_pole);
}

// ---------------------------------------------------------------------------
// Analytic response metrics
// ---------------------------------------------------------------------------

TEST(AnalyticResponse, SingleRealPoleMatchesClosedForm) {
  // H = (1/tau)/(s + 1/tau): step response 1 - e^{-t/tau}.
  const double tau = 1e-9;
  mor::PoleResidueModel model;
  model.poles = {std::complex<double>(-1.0 / tau, 0.0)};
  model.residues = {std::complex<double>(1.0 / tau, 0.0)};
  model.order = 1;
  model.dc_gain = 1.0;
  model.stable = true;
  model.max_real_pole = -1.0 / tau;

  mor::AnalyticResponse response;
  response.add_step(model, 1.0);
  EXPECT_NEAR(response.value(tau), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(response.final_value(), 1.0, 1e-12);
  const auto t50 = response.first_crossing(0.5);
  ASSERT_TRUE(t50.has_value());
  EXPECT_NEAR(*t50, tau * std::log(2.0), 1e-12 * tau);

  const auto metrics = response.measure(0.0, 1.0);
  ASSERT_TRUE(metrics.delay_50.has_value());
  ASSERT_TRUE(metrics.rise_10_90.has_value());
  // 10-90 rise of a single pole: tau * ln(9).
  EXPECT_NEAR(*metrics.rise_10_90, tau * std::log(9.0), 1e-9 * tau);
  EXPECT_NEAR(metrics.overshoot, 0.0, 1e-9);
}

TEST(AnalyticResponse, RampSettlesToSameFinalValue) {
  const double tau = 1e-9;
  mor::PoleResidueModel model;
  model.poles = {std::complex<double>(-1.0 / tau, 0.0)};
  model.residues = {std::complex<double>(1.0 / tau, 0.0)};
  model.order = 1;
  model.dc_gain = 1.0;

  mor::AnalyticResponse step;
  step.add_step(model, 1.0);
  mor::AnalyticResponse ramp;
  ramp.add_ramp(model, 1.0, 0.5e-9);
  EXPECT_NEAR(ramp.value(20.0 * tau), step.value(20.0 * tau), 1e-9);
  // A ramped input can only be slower to 50%.
  const auto step50 = step.first_crossing(0.5);
  const auto ramp50 = ramp.first_crossing(0.5);
  ASSERT_TRUE(step50 && ramp50);
  EXPECT_GT(*ramp50, *step50);
}

TEST(AnalyticResponse, OvershootMatchesSecondOrderFormula) {
  // Underdamped 2nd-order system: overshoot = exp(-pi zeta / sqrt(1-zeta^2)).
  const double wn = 2e9, zeta = 0.3;
  const double wd = wn * std::sqrt(1.0 - zeta * zeta);
  const std::complex<double> p(-zeta * wn, wd);
  // H = wn^2 / (s^2 + 2 zeta wn s + wn^2) in pole-residue form.
  const std::complex<double> r = wn * wn / (p - std::conj(p));
  mor::PoleResidueModel model;
  model.poles = {p, std::conj(p)};
  model.residues = {r, std::conj(r)};
  model.order = 2;
  model.dc_gain = 1.0;

  mor::AnalyticResponse response;
  response.add_step(model, 1.0);
  const auto metrics = response.measure(0.0, 1.0);
  const double expected =
      std::exp(-std::numbers::pi * zeta / std::sqrt(1.0 - zeta * zeta));
  EXPECT_NEAR(metrics.overshoot, expected, 1e-6);
  EXPECT_NEAR(metrics.peak_noise, expected, 1e-6);  // overshoot IS the excursion
}

TEST(AnalyticResponse, NeverCrossingIsAbsent) {
  mor::PoleResidueModel model;
  model.poles = {std::complex<double>(-1e9, 0.0)};
  model.residues = {std::complex<double>(5e8, 0.0)};  // dc 0.5
  model.order = 1;
  model.dc_gain = 0.5;
  mor::AnalyticResponse response;
  response.add_step(model, 1.0);
  EXPECT_FALSE(response.first_crossing(0.9).has_value());
}

// ---------------------------------------------------------------------------
// Recurrence scan vs exact scan (differential)
// ---------------------------------------------------------------------------
//
// first_crossing() and measure() step pole terms by a geometric recurrence
// and fall back to value() near a decision. The oracle below is the plain
// exact scan: every grid sample through values(), every sample walked from
// t = t_from. Results must agree BIT FOR BIT.

std::size_t oracle_samples(double window, double max_omega,
                           std::size_t floor) {
  if (max_omega <= 0.0) return floor;
  const double oscillations =
      window * max_omega / (2.0 * 3.14159265358979323846);
  return std::clamp<std::size_t>(
      static_cast<std::size_t>(32.0 * oscillations), floor, 1u << 18);
}

// Exact scan grid t_i = t0 + span*i/samples (i = 0..samples), via values().
std::vector<double> oracle_grid(const mor::AnalyticResponse& r, double t0,
                                double span, std::size_t samples,
                                std::vector<double>* values) {
  std::vector<double> t(samples + 1);
  for (std::size_t i = 0; i <= samples; ++i)
    t[i] = t0 + span * static_cast<double>(i) / static_cast<double>(samples);
  t[0] = t0;
  values->assign(samples + 1, 0.0);
  r.values(t.data(), values->data(), t.size());
  return t;
}

std::optional<double> oracle_crossing(const mor::AnalyticResponse& r,
                                      double max_omega, double level,
                                      int direction, double t_from = 0.0) {
  double window = r.suggested_horizon();
  for (int attempt = 0; attempt < 4; ++attempt, window *= 4.0) {
    const std::size_t samples = oracle_samples(window, max_omega, 512);
    double prev_t = t_from;
    double prev_v = r.value(t_from);
    // Evaluated in chunks so an early bracket stops the exact work early.
    std::vector<double> t, v;
    for (std::size_t base = 1; base <= samples; base += 256) {
      const std::size_t n = std::min<std::size_t>(256, samples - base + 1);
      t.resize(n);
      v.resize(n);
      for (std::size_t k = 0; k < n; ++k)
        t[k] = t_from + window * static_cast<double>(base + k) /
                            static_cast<double>(samples);
      r.values(t.data(), v.data(), n);
      for (std::size_t k = 0; k < n; ++k) {
        const bool rising = prev_v < level && v[k] >= level;
        const bool falling = prev_v > level && v[k] <= level;
        if ((direction >= 0 && rising) || (direction <= 0 && falling)) {
          numeric::RootOptions tolerance;
          tolerance.x_tolerance = 1e-14 * window;
          return numeric::brent(
              [&](double x) { return r.value(x) - level; }, prev_t, t[k],
              tolerance);
        }
        prev_t = t[k];
        prev_v = v[k];
      }
    }
  }
  return std::nullopt;
}

// oracle_crossing for directions -1, 0 and +1 at once, from one walk of
// each window's exact grid (index direction + 1).
std::array<std::optional<double>, 3> oracle_crossings(
    const mor::AnalyticResponse& r, double max_omega, double level) {
  std::array<std::optional<double>, 3> found;
  double window = r.suggested_horizon();
  for (int attempt = 0; attempt < 4; ++attempt, window *= 4.0) {
    const std::size_t samples = oracle_samples(window, max_omega, 512);
    std::vector<double> v;
    const std::vector<double> t = oracle_grid(r, 0.0, window, samples, &v);
    for (int direction = -1; direction <= 1; ++direction) {
      std::optional<double>& out = found[static_cast<std::size_t>(direction + 1)];
      for (std::size_t i = 1; i <= samples && !out; ++i) {
        const bool rising = v[i - 1] < level && v[i] >= level;
        const bool falling = v[i - 1] > level && v[i] <= level;
        if ((direction >= 0 && rising) || (direction <= 0 && falling)) {
          numeric::RootOptions tolerance;
          tolerance.x_tolerance = 1e-14 * window;
          out = numeric::brent([&](double x) { return r.value(x) - level; },
                               t[i - 1], t[i], tolerance);
        }
      }
    }
    if (found[0] && found[1] && found[2]) break;
  }
  return found;
}

mor::ResponseMetrics oracle_measure(const mor::AnalyticResponse& r,
                                    double max_omega, double lo, double hi) {
  mor::ResponseMetrics m;
  const double swing = hi - lo;
  const int direction = swing > 0.0 ? +1 : -1;
  if (swing != 0.0) {
    m.delay_50 = oracle_crossing(r, max_omega, lo + 0.5 * swing, direction);
    const auto t10 = oracle_crossing(r, max_omega, lo + 0.1 * swing, direction);
    if (t10) {
      const auto t90 =
          oracle_crossing(r, max_omega, lo + 0.9 * swing, direction, *t10);
      if (t90) m.rise_10_90 = *t90 - *t10;
    }
  }
  const double horizon = r.suggested_horizon();
  const std::size_t samples = oracle_samples(horizon, max_omega, 1024);
  std::vector<double> v;
  oracle_grid(r, 0.0, horizon, samples, &v);
  const std::size_t max_i = static_cast<std::size_t>(
      std::max_element(v.begin(), v.end()) - v.begin());
  const std::size_t min_i = static_cast<std::size_t>(
      std::min_element(v.begin(), v.end()) - v.begin());
  const auto refine = [&](std::size_t i, int sign, double coarse) {
    if (i == 0 || i == samples) return coarse;
    const double dt = horizon / static_cast<double>(samples);
    numeric::MinimizeOptions options;
    const double b = static_cast<double>(i + 1) * dt;
    options.x_tolerance = 1e-14 * std::max(std::fabs(b), 1e-300);
    const double t =
        numeric::brent_min(
            [&](double x) { return sign > 0 ? -r.value(x) : r.value(x); },
            static_cast<double>(i - 1) * dt, b, options)
            .x;
    return sign > 0 ? std::max(coarse, r.value(t))
                    : std::min(coarse, r.value(t));
  };
  m.peak_value = refine(max_i, +1, v[max_i]);
  m.min_value = refine(min_i, -1, v[min_i]);
  const double envelope_lo = std::min(lo, hi), envelope_hi = std::max(lo, hi);
  m.peak_noise =
      std::max({0.0, envelope_lo - m.min_value, m.peak_value - envelope_hi});
  if (swing != 0.0) {
    const double past_final =
        direction > 0 ? m.peak_value - hi : hi - m.min_value;
    m.overshoot = std::max(0.0, past_final / std::fabs(swing));
  }
  return m;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const std::optional<double>& a, const std::optional<double>& b) {
  return a.has_value() == b.has_value() && (!a || same_bits(*a, *b));
}

::testing::AssertionResult same_metrics(const mor::ResponseMetrics& a,
                                        const mor::ResponseMetrics& b) {
  if (same_bits(a.delay_50, b.delay_50) &&
      same_bits(a.rise_10_90, b.rise_10_90) &&
      same_bits(a.overshoot, b.overshoot) &&
      same_bits(a.peak_noise, b.peak_noise) &&
      same_bits(a.peak_value, b.peak_value) &&
      same_bits(a.min_value, b.min_value))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "peak " << a.peak_value << " vs " << b.peak_value << ", min "
         << a.min_value << " vs " << b.min_value << ", delay "
         << a.delay_50.value_or(-1) << " vs " << b.delay_50.value_or(-1);
}

// Seeded uniform draws from the raw 64-bit engine output (portable bits,
// unlike the std distributions).
struct Draw {
  explicit Draw(std::uint64_t seed) : engine(seed) {}
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(engine() >> 11) * 0x1p-53;
  }
  double log_uniform(double lo, double hi) {
    return std::exp(uniform(std::log(lo), std::log(hi)));
  }
  bool coin(double p) { return uniform(0.0, 1.0) < p; }
  std::mt19937_64 engine;
};

// A random stable pole-residue model: real poles and conjugate pairs with
// time constants in [10 ps, 100 ps]; `cancel` adds a near-coincident real pair
// whose residues are ~1e4 larger than the response they sum to.
mor::PoleResidueModel random_model(Draw& draw, bool cancel) {
  mor::PoleResidueModel m;
  const int real = static_cast<int>(draw.uniform(0.0, 2.99));
  const int pairs = static_cast<int>(draw.uniform(real == 0 ? 1.0 : 0.0, 2.99));
  for (int k = 0; k < real; ++k) {
    const double rate = 1.0 / draw.log_uniform(1e-11, 1e-10);
    m.poles.emplace_back(-rate, 0.0);
    m.residues.emplace_back(rate * draw.uniform(-0.5, 1.5), 0.0);
  }
  for (int k = 0; k < pairs; ++k) {
    const double rate = 1.0 / draw.log_uniform(1e-11, 1e-10);
    const std::complex<double> p(-rate, rate * draw.log_uniform(0.05, 3.0));
    const std::complex<double> r(rate * draw.uniform(-1.0, 1.0),
                                 rate * draw.uniform(-1.0, 1.0));
    m.poles.push_back(p);
    m.poles.push_back(std::conj(p));
    m.residues.push_back(r);
    m.residues.push_back(std::conj(r));
  }
  if (cancel) {
    const double rate = 1.0 / draw.log_uniform(1e-11, 1e-10);
    const double big = 1e4 * rate;
    m.poles.emplace_back(-rate, 0.0);
    m.residues.emplace_back(big, 0.0);
    m.poles.emplace_back(-rate * (1.0 + 1e-4), 0.0);
    m.residues.emplace_back(-big * (1.0 + 1e-4), 0.0);
  }
  for (std::size_t k = 0; k < m.poles.size(); ++k)
    m.dc_gain -= (m.residues[k] / m.poles[k]).real();
  m.order = static_cast<int>(m.poles.size());
  m.requested_order = m.order;
  m.delay = draw.coin(0.5) ? 0.0 : draw.log_uniform(1e-13, 1e-10);
  return m;
}

double max_omega_of(const std::vector<mor::PoleResidueModel>& models) {
  double w = 0.0;
  for (const auto& m : models)
    for (const auto& p : m.poles) w = std::max(w, std::fabs(p.imag()));
  return w;
}

// Checks every scan entry point of `r` against the oracle at levels spread
// over its range, the first-crossing levels at t_from = 0 and t_from > 0.
void expect_scans_match(const mor::AnalyticResponse& r, double max_omega,
                        double lo, std::vector<double> extra_levels,
                        const std::string& label) {
  const double hi = r.final_value();
  EXPECT_TRUE(same_metrics(r.measure(lo, hi),
                           oracle_measure(r, max_omega, lo, hi)))
      << label;
  const mor::ResponseMetrics quiet = r.measure(lo, lo, false);
  EXPECT_TRUE(same_metrics(quiet, oracle_measure(r, max_omega, lo, lo)))
      << label;
  // extrema() alone is measure()'s scan: the same refined peaks.
  const mor::ResponseExtrema extremes = r.extrema();
  EXPECT_TRUE(same_bits(extremes.peak_value, quiet.peak_value) &&
              same_bits(extremes.min_value, quiet.min_value))
      << label;
  std::vector<double> levels = std::move(extra_levels);
  for (double f : {0.1, 0.5, 0.9}) levels.push_back(lo + f * (hi - lo));
  // Tangent to the extrema: the scan decides on an exact tie with, and a
  // one-ulp margin inside, the coarse peak and trough samples.
  levels.push_back(quiet.peak_value);
  levels.push_back(std::nextafter(quiet.peak_value, -1e300));
  levels.push_back(quiet.min_value);
  levels.push_back(std::nextafter(quiet.min_value, 1e300));
  for (const double level : levels)
    EXPECT_TRUE(same_bits(r.first_crossing(level, 0),
                          oracle_crossing(r, max_omega, level, 0)))
        << label << " level " << level;
  // A scan that starts mid-window, past some of the onsets.
  const double level = lo + 0.5 * (hi - lo);
  const double from = 0.37 * r.suggested_horizon();
  EXPECT_TRUE(same_bits(r.first_crossing(level, 0, from),
                        oracle_crossing(r, max_omega, level, 0, from)))
      << label << " t_from " << from;
}

TEST(AnalyticScan, RecurrenceMatchesExactScanOnRandomModels) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Draw draw(seed);
    std::vector<mor::PoleResidueModel> models;
    const int contributions = 1 + static_cast<int>(draw.uniform(0.0, 2.99));
    for (int c = 0; c < contributions; ++c)
      models.push_back(random_model(draw, draw.coin(0.3)));
    const double lo = draw.uniform(-0.5, 0.5);
    mor::AnalyticResponse r(lo);
    for (const auto& m : models) {
      const double delta = draw.uniform(-1.5, 1.5);
      const double start =
          draw.coin(0.4) ? 0.0 : draw.log_uniform(1e-13, 5e-10);
      // Ramps from far below one scan step to a large share of the window.
      const double rise = draw.coin(0.3) ? 0.0 : draw.log_uniform(1e-18, 5e-10);
      r.add_ramp(m, delta, rise, start);
    }
    expect_scans_match(r, max_omega_of(models), lo, {},
                       "seed " + std::to_string(seed));
  }
}

TEST(AnalyticScan, OnsetsExactlyOnGridPoints) {
  for (std::uint64_t seed = 200; seed < 230; ++seed) {
    Draw draw(seed);
    mor::PoleResidueModel m = random_model(draw, false);
    m.delay = 0.0;
    const std::vector<mor::PoleResidueModel> models = {m};
    // The late onset fixes the horizon; the second onset then lands exactly
    // on a grid point of the measure scan (even seeds) or of the first
    // crossing scan (odd seeds) without moving it.
    const double rise = draw.coin(0.5) ? 0.0 : draw.log_uniform(1e-13, 1e-10);
    mor::AnalyticResponse r;
    r.add_ramp(m, 0.6, rise, 4e-10);
    const double horizon = r.suggested_horizon();
    const std::size_t samples = oracle_samples(
        horizon, max_omega_of(models), seed % 2 == 0 ? 1024 : 512);
    const std::size_t i =
        1 + static_cast<std::size_t>(draw.uniform(0.0, 0.3) *
                                     static_cast<double>(samples));
    const double onset =
        horizon * static_cast<double>(i) / static_cast<double>(samples);
    ASSERT_LT(onset, 4e-10);
    r.add_ramp(m, 0.4, rise, onset);
    expect_scans_match(r, max_omega_of(models), 0.0, {},
                       "seed " + std::to_string(seed));
  }
}

TEST(AnalyticScan, QuietVictimGlitchLevelTangentToPeak) {
  // Opposite-sign aggressor contributions on a quiet victim: a bump that
  // returns to the quiet level. The glitch test level sits exactly on, and
  // one ulp inside, the coarse peak sample.
  for (std::uint64_t seed = 300; seed < 320; ++seed) {
    Draw draw(seed);
    mor::PoleResidueModel m = random_model(draw, false);
    const std::vector<mor::PoleResidueModel> models = {m};
    mor::AnalyticResponse r(0.0);
    const double rise = draw.log_uniform(1e-12, 1e-10);
    r.add_ramp(m, 1.0, rise, 0.0);
    r.add_ramp(m, -1.0, rise, draw.log_uniform(1e-12, 1e-10));
    const mor::ResponseMetrics quiet = r.measure(0.0, 0.0, false);
    expect_scans_match(r, max_omega_of(models), 0.0,
                       {quiet.peak_value, 0.5 * quiet.peak_value},
                       "seed " + std::to_string(seed));
  }
}

TEST(AnalyticScan, WindowExtensionsAndNeverCrossing) {
  // A slow tail: 1 - 1e-9 of the final value is reached only after the
  // window has been extended; 1.5x is never reached at all.
  mor::PoleResidueModel m;
  m.poles = {{-1e9, 0.0}, {-3e10, 2e10}, {-3e10, -2e10}};
  m.residues = {{1e9, 0.0}, {1e9, 5e8}, {1e9, -5e8}};
  for (std::size_t k = 0; k < m.poles.size(); ++k)
    m.dc_gain -= (m.residues[k] / m.poles[k]).real();
  const std::vector<mor::PoleResidueModel> models = {m};
  mor::AnalyticResponse r;
  r.add_ramp(m, 1.0, 5e-11, 1e-10);
  const double hi = r.final_value();
  for (const double f : {1.0 - 1e-9, 1.0 - 1e-12, 1.5}) {
    const auto fast = r.first_crossing(f * hi);
    EXPECT_TRUE(same_bits(
        fast, oracle_crossing(r, max_omega_of(models), f * hi, +1)))
        << f;
    if (f == 1.5) {
      EXPECT_FALSE(fast.has_value());
    }
  }
}

TEST(AnalyticScan, LongestGridMatches) {
  // A lightly damped ringing pair against a slow real pole: the scans hit
  // the 2^18-sample cap.
  mor::PoleResidueModel m;
  const double slow = 1e8;
  const double omega = 2.0 * 3.14159265358979323846 * 8192.0 /
                       (12.0 / slow) * 2.0;
  m.poles = {{-slow, 0.0}, {-omega * 1e-3, omega}, {-omega * 1e-3, -omega}};
  m.residues = {{slow, 0.0}, {0.0, 1e-3 * omega}, {0.0, -1e-3 * omega}};
  for (std::size_t k = 0; k < m.poles.size(); ++k)
    m.dc_gain -= (m.residues[k] / m.poles[k]).real();
  const std::vector<mor::PoleResidueModel> models = {m};
  mor::AnalyticResponse r;
  r.add_step(m, 1.0);
  ASSERT_EQ(oracle_samples(r.suggested_horizon(), omega, 512), 1u << 18);
  EXPECT_TRUE(same_metrics(r.measure(0.0, r.final_value()),
                           oracle_measure(r, omega, 0.0, r.final_value())));
}

// One contribution as the test adds it, for the settled-tail bound below.
struct Drive {
  mor::PoleResidueModel model;
  double delta = 0.0, rise = 0.0, start = 0.0;
};

// The math tail bound first_crossing's settled-tail exit relies on:
// sum_c |delta_c| g_c sum |a| e^{Re p (t - d_c - rise_c)}, g_c = 1 (step) or
// 2/rise_c (ramp), a = r/p (step) or r/p^2 (ramp); +inf before any onset or
// ramp end.
double tail_bound(const std::vector<Drive>& drives, double t) {
  double tail = 0.0;
  for (const Drive& d : drives) {
    const double x = t - d.model.delay - d.start - d.rise;
    if (x < 0.0) return std::numeric_limits<double>::infinity();
    double sum = 0.0;
    for (std::size_t k = 0; k < d.model.poles.size(); ++k) {
      const std::complex<double> p = d.model.poles[k];
      const std::complex<double> a =
          d.rise > 0.0 ? d.model.residues[k] / (p * p) : d.model.residues[k] / p;
      sum += std::abs(a) * std::exp(p.real() * x);
    }
    tail += std::fabs(d.delta) * (d.rise > 0.0 ? 2.0 / d.rise : 1.0) * sum;
  }
  return tail;
}

mor::AnalyticResponse response_of(double dc_offset,
                                  const std::vector<Drive>& drives) {
  mor::AnalyticResponse r(dc_offset);
  for (const Drive& d : drives) r.add_ramp(d.model, d.delta, d.rise, d.start);
  return r;
}

double max_omega_of(const std::vector<Drive>& drives) {
  double w = 0.0;
  for (const Drive& d : drives)
    for (const auto& p : d.model.poles) w = std::max(w, std::fabs(p.imag()));
  return w;
}

// Levels around the settled tail: never reached, exactly final, a few ulps
// and a few relative steps off it, and on (and one ulp either side of) the
// tail bound at several times — every first-crossing direction each.
void expect_tail_scans_match(double dc_offset, const std::vector<Drive>& drives,
                             const std::string& label) {
  const mor::AnalyticResponse r = response_of(dc_offset, drives);
  const double omega = max_omega_of(drives);
  const double final_value = r.final_value();
  const mor::ResponseMetrics range = r.measure(dc_offset, dc_offset, false);
  const double span =
      std::max({range.peak_value - range.min_value, std::fabs(final_value),
                1e-3});
  std::vector<double> levels = {range.peak_value + span,
                                range.min_value - span,
                                final_value,
                                std::nextafter(final_value, 1e300),
                                std::nextafter(final_value, -1e300)};
  for (const double rel : {1e-12, 1e-9, 1e-7, 1e-6, 1e-3}) {
    levels.push_back(final_value + rel * span);
    levels.push_back(final_value - rel * span);
  }
  const double horizon = r.suggested_horizon();
  for (const double f : {0.05, 0.2, 0.5, 1.0, 3.0, 10.0}) {
    const double tail = tail_bound(drives, f * horizon);
    if (!std::isfinite(tail)) continue;
    for (const double sign : {1.0, -1.0}) {
      const double level = final_value + sign * tail;
      levels.push_back(level);
      levels.push_back(std::nextafter(level, 1e300));
      levels.push_back(std::nextafter(level, -1e300));
    }
  }
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  for (const double level : levels) {
    const auto expected = oracle_crossings(r, omega, level);
    for (const int direction : {-1, 0, +1})
      EXPECT_TRUE(same_bits(r.first_crossing(level, direction),
                            expected[static_cast<std::size_t>(direction + 1)]))
          << label << " level " << level << " direction " << direction;
  }
}

TEST(AnalyticScan, SettledTailMatchesExactScan) {
  // Seeded random models (cancelling residues included) with steps, ramps
  // far below one scan step, and ramps spanning much of the window.
  for (std::uint64_t seed = 408; seed < 424; ++seed) {
    Draw draw(seed);
    std::vector<Drive> drives;
    const int contributions = 1 + static_cast<int>(draw.uniform(0.0, 1.99));
    for (int c = 0; c < contributions; ++c) {
      Drive d;
      d.model = random_model(draw, draw.coin(0.3));
      d.delta = draw.uniform(-1.5, 1.5);
      d.start = draw.coin(0.5) ? 0.0 : draw.log_uniform(1e-13, 2e-10);
      const double pick = draw.uniform(0.0, 1.0);
      d.rise = pick < 0.3   ? 0.0
               : pick < 0.6 ? draw.log_uniform(1e-19, 1e-16)
                            : draw.log_uniform(1e-11, 5e-10);
      drives.push_back(d);
    }
    expect_tail_scans_match(draw.uniform(-0.5, 0.5), drives,
                            "seed " + std::to_string(seed));
  }

  // A zero-real-part pair rides on a real pole: the tail bound never
  // decays, so only levels past the ringing amplitude may settle.
  Drive ringing;
  ringing.model.poles = {{-2e10, 0.0}, {0.0, 3e10}, {0.0, -3e10}};
  ringing.model.residues = {{2e10, 0.0}, {0.0, 1e9}, {0.0, -1e9}};
  // An unstable pole: no tail bound holds, the scan runs every sample.
  Drive unstable;
  unstable.model.poles = {{-2e10, 0.0}, {5e7, 0.0}};
  unstable.model.residues = {{2e10, 0.0}, {1e3, 0.0}};
  for (Drive* d : {&ringing, &unstable}) {
    for (std::size_t k = 0; k < d->model.poles.size(); ++k)
      d->model.dc_gain -= (d->model.residues[k] / d->model.poles[k]).real();
    d->model.order = static_cast<int>(d->model.poles.size());
    d->model.requested_order = d->model.order;
  }
  for (const double rise : {0.0, 1e-18, 2e-10}) {
    ringing.rise = rise;
    unstable.rise = rise;
    ringing.delta = 1.0;
    unstable.delta = -0.7;
    expect_tail_scans_match(0.1, {ringing}, "ringing rise " +
                                                std::to_string(rise));
    expect_tail_scans_match(0.0, {unstable}, "unstable rise " +
                                                 std::to_string(rise));
  }
}

TEST(AnalyticScan, SettledTailShortensNeverCrossingScans) {
  // A quiet victim's glitch check: a ringing bump that returns to the quiet
  // level and never reaches half the swing. The exact scan walks all four
  // windows (1 + 4 + 16 + 64 horizons of samples); the settled-tail exit
  // stops each window soon after the bump dies.
  if (!obs::metrics_enabled()) GTEST_SKIP() << "needs RLCSIM_METRICS on";
  mor::PoleResidueModel m;
  m.poles = {{-1e10, 4e10}, {-1e10, -4e10}, {-3e10, 0.0}};
  m.residues = {{1e10, 2e9}, {1e10, -2e9}, {-5e9, 0.0}};
  for (std::size_t k = 0; k < m.poles.size(); ++k)
    m.dc_gain -= (m.residues[k] / m.poles[k]).real();
  m.order = 3;
  m.requested_order = 3;
  mor::AnalyticResponse r;
  r.add_ramp(m, 0.3, 2e-11, 0.0);
  r.add_ramp(m, -0.3, 2e-11, 5e-11);
  ASSERT_FALSE(r.first_crossing(0.5, +1).has_value());
  const double omega = 4e10;
  std::size_t exact_samples = 0;
  double window = r.suggested_horizon();
  for (int attempt = 0; attempt < 4; ++attempt, window *= 4.0)
    exact_samples += oracle_samples(window, omega, 512);
  const std::uint64_t before =
      obs::counter_total("mor.scan_samples").value_or(0);
  EXPECT_FALSE(r.first_crossing(0.5, +1).has_value());
  const std::uint64_t walked =
      obs::counter_total("mor.scan_samples").value_or(0) - before;
  EXPECT_GT(walked, 0u);
  EXPECT_LT(walked * 16, exact_samples)
      << walked << " of " << exact_samples << " samples walked";
  EXPECT_TRUE(same_bits(r.first_crossing(0.5, +1),
                        oracle_crossing(r, omega, 0.5, +1)));
}

// A model from explicit poles and residues, its DC gain set so the step
// response starts at 0.
mor::PoleResidueModel model_of(std::vector<std::complex<double>> poles,
                               std::vector<std::complex<double>> residues) {
  mor::PoleResidueModel m;
  m.poles = std::move(poles);
  m.residues = std::move(residues);
  for (std::size_t k = 0; k < m.poles.size(); ++k)
    m.dc_gain -= (m.residues[k] / m.poles[k]).real();
  m.order = static_cast<int>(m.poles.size());
  m.requested_order = m.order;
  return m;
}

// measure() against the exact scan, for the swing to the final value and for
// a quiet drive at the initial level.
void expect_measure_matches(const std::vector<Drive>& drives, double lo,
                            const std::string& label) {
  const mor::AnalyticResponse r = response_of(lo, drives);
  const double omega = max_omega_of(drives);
  const double hi = r.final_value();
  EXPECT_TRUE(same_metrics(r.measure(lo, hi), oracle_measure(r, omega, lo, hi)))
      << label;
  EXPECT_TRUE(same_metrics(r.measure(lo, lo, false),
                           oracle_measure(r, omega, lo, lo)))
      << label << " (quiet)";
}

TEST(AnalyticScan, ExtremumExitMatchesExactScan) {
  // Responses on which the extremum scan's settled-extrema and monotone-tail
  // exits fire, nearly fire, or must not fire; rising and falling swings
  // throughout (the sign of delta).
  for (std::uint64_t seed = 600; seed < 640; ++seed) {
    Draw draw(seed);
    const double rate = 1.0 / draw.log_uniform(1e-11, 1e-10);
    const double sign = draw.coin(0.5) ? 1.0 : -1.0;
    const double lo = draw.uniform(-0.5, 0.5);
    const std::string label = "seed " + std::to_string(seed);

    // A single dominant real pole under a faster, smaller ringing pair; a
    // step, a short ramp, or two staggered drivers of the same model.
    const double fast = rate * draw.uniform(3.0, 8.0);
    const std::complex<double> ring(-fast, fast * draw.uniform(0.5, 2.0));
    const std::complex<double> ring_r(fast * draw.uniform(-0.2, 0.2),
                                      fast * draw.uniform(-0.2, 0.2));
    Drive dominant;
    dominant.model = model_of({{-rate, 0.0}, ring, std::conj(ring)},
                              {{rate, 0.0}, ring_r, std::conj(ring_r)});
    dominant.delta = sign * draw.uniform(0.2, 1.5);
    dominant.rise = draw.coin(0.5) ? 0.0 : draw.uniform(0.05, 1.0) / rate;
    expect_measure_matches({dominant}, lo, label + " dominant pole");
    Drive second = dominant;
    second.delta = sign * draw.uniform(0.2, 1.5);
    second.start = draw.uniform(0.2, 2.0) / rate;
    expect_measure_matches({dominant, second}, lo, label + " staggered");

    // Near-tied slow real poles with opposite-sign residues: the slope
    // changes sign at t_star, so the slowest term alone does not prove a
    // monotone tail until well after it.
    const double eps = draw.uniform(0.05, 0.5);
    const double t_star = draw.uniform(1.0, 8.0) / rate;
    Drive tied;
    tied.model = model_of(
        {{-rate, 0.0}, {-rate * (1.0 + eps), 0.0}},
        {{rate, 0.0}, {-rate * std::exp(eps * rate * t_star), 0.0}});
    tied.delta = sign * draw.uniform(0.2, 1.5);
    tied.rise = draw.coin(0.5) ? 0.0 : draw.uniform(0.05, 0.5) / rate;
    expect_measure_matches({tied}, lo, label + " near-tied poles");

    // A complex slowest pair: no monotone certificate, settled extrema only.
    const std::complex<double> slow(-rate, rate * draw.uniform(0.3, 3.0));
    const std::complex<double> slow_r(rate * draw.uniform(0.2, 1.0),
                                      rate * draw.uniform(-1.0, 1.0));
    Drive pair;
    pair.model = model_of({slow, std::conj(slow), {-fast, 0.0}},
                          {slow_r, std::conj(slow_r), {fast, 0.0}});
    pair.delta = sign * draw.uniform(0.2, 1.5);
    pair.rise = draw.coin(0.5) ? 0.0 : draw.uniform(0.05, 1.0) / rate;
    expect_measure_matches({pair}, lo, label + " complex slowest pair");

    // A ramp ending late in the window: the tail left after it is flat to
    // within value()'s rounding, which the certificate must not trust.
    const mor::PoleResidueModel single =
        model_of({{-rate, 0.0}}, {{rate, 0.0}});
    Drive late;
    late.model = single;
    late.delta = sign * draw.uniform(0.2, 1.5);
    late.rise = draw.uniform(5.0, 40.0) / rate;
    expect_measure_matches({late}, lo, label + " late ramp end");
    late.model = dominant.model;
    expect_measure_matches({late}, lo, label + " late ramp end, ringing");

    // An unstable pole: neither exit may fire.
    Drive unstable;
    unstable.model =
        model_of({{-rate, 0.0}, {rate * draw.uniform(1e-3, 0.05), 0.0}},
                 {{rate, 0.0}, {rate * 1e-4, 0.0}});
    unstable.delta = sign * draw.uniform(0.2, 1.5);
    expect_measure_matches({unstable}, lo, label + " unstable pole");

    // Quiet bumps: a driver and its opposite a little later. One real pole
    // decays back without undershoot; the ringing model undershoots.
    const double rise = draw.uniform(0.05, 1.0) / rate;
    const double gap = draw.uniform(0.1, 2.0) / rate;
    for (const bool ringing : {false, true}) {
      Drive up;
      up.model = ringing ? pair.model : single;
      up.delta = sign * draw.uniform(0.2, 1.5);
      up.rise = rise;
      Drive down = up;
      down.delta = -up.delta;
      down.start = gap;
      expect_measure_matches({up, down}, lo,
                             label + (ringing ? " bump, undershoot" : " bump"));
    }
  }
}

TEST(AnalyticScan, ExtremumExitShortensMonotoneScans) {
  // A one-contribution dominant-pole ramp: the exact scan walks its whole
  // grid although the maximum sits on the last sample; the monotone-tail
  // exit stops it soon after the ramp ends. An overshooting step stops
  // through the settled-extrema exit instead.
  if (!obs::metrics_enabled()) GTEST_SKIP() << "needs RLCSIM_METRICS on";
  const double rate = 2e10;
  Drive ramp;
  ramp.model = model_of({{-rate, 0.0}, {-8.0 * rate, 0.0}},
                        {{rate, 0.0}, {0.5 * rate, 0.0}});
  ramp.delta = 1.0;
  ramp.rise = 0.5 / rate;
  Drive overshoot;
  const std::complex<double> p(-rate, 3.0 * rate), res(rate, -2.0 * rate);
  overshoot.model = model_of({p, std::conj(p)}, {res, std::conj(res)});
  overshoot.delta = -0.8;
  for (const auto& [drive, counter] :
       {std::pair{ramp, "mor.extremum_monotone_exits"},
        std::pair{overshoot, "mor.extremum_settled_exits"}}) {
    const mor::AnalyticResponse r = response_of(0.0, {drive});
    const double omega = max_omega_of({drive});
    const std::size_t grid = oracle_samples(r.suggested_horizon(), omega, 1024);
    const auto read = [](const char* name) {
      return obs::counter_total(name).value_or(0);
    };
    const std::uint64_t samples_before = read("mor.scan_samples");
    const std::uint64_t exits_before = read(counter);
    // A quiet drive: measure() runs the extremum scan and nothing else.
    const mor::ResponseMetrics m = r.measure(0.0, 0.0, false);
    const std::uint64_t walked = read("mor.scan_samples") - samples_before;
    EXPECT_GT(walked, 0u) << counter;
    EXPECT_LT(walked * 4, grid)
        << counter << ": " << walked << " of " << grid << " samples walked";
    EXPECT_EQ(read(counter) - exits_before, 1u) << counter;
    EXPECT_TRUE(same_metrics(m, oracle_measure(r, omega, 0.0, 0.0))) << counter;
  }
}

// ---------------------------------------------------------------------------
// Reduced crosstalk
// ---------------------------------------------------------------------------

TEST(ReducedCrosstalk, TracksTransientOnTheBusCorners) {
  const tline::CoupledBus bus =
      tline::make_bus(5, {200.0, 5e-9, 1e-12}, 0.4, 0.25);
  core::CrosstalkOptions opt;
  opt.driver_resistance = 100.0;
  opt.load_capacitance = 50e-15;
  opt.segments = 16;
  for (auto pattern : {core::SwitchingPattern::kSamePhase,
                       core::SwitchingPattern::kOppositePhase}) {
    const auto full = core::analyze_crosstalk(bus, pattern, opt);
    const auto reduced = core::analyze_crosstalk_reduced(bus, pattern, opt, 4);
    ASSERT_TRUE(full.victim_delay_50 && reduced.victim_delay_50);
    EXPECT_NEAR(*reduced.victim_delay_50, *full.victim_delay_50,
                0.03 * *full.victim_delay_50)
        << core::switching_pattern_name(pattern);
  }
  // Quiet-victim peak noise, the classic crosstalk metric.
  const auto full = core::analyze_crosstalk(
      bus, core::SwitchingPattern::kQuietVictim, opt);
  const auto reduced = core::analyze_crosstalk_reduced(
      bus, core::SwitchingPattern::kQuietVictim, opt, 6);
  EXPECT_FALSE(reduced.victim_delay_50.has_value());
  EXPECT_NEAR(reduced.peak_noise, full.peak_noise, 0.10 * full.peak_noise);
}

TEST(ReducedCrosstalk, MillerOrderingHoldsAtOrderTwo) {
  // The ROADMAP's Miller-corrected two-pole: even at q = 2 the reduced
  // model must order the corners (same-phase < opposite-phase delay).
  const tline::CoupledBus bus =
      tline::make_bus(3, {200.0, 5e-9, 1e-12}, 0.4, 0.2);
  core::CrosstalkOptions opt;
  opt.driver_resistance = 100.0;
  opt.load_capacitance = 50e-15;
  opt.segments = 16;
  const auto same = core::analyze_crosstalk_reduced(
      bus, core::SwitchingPattern::kSamePhase, opt, 2);
  const auto opposite = core::analyze_crosstalk_reduced(
      bus, core::SwitchingPattern::kOppositePhase, opt, 2);
  ASSERT_TRUE(same.victim_delay_50 && opposite.victim_delay_50);
  EXPECT_LT(*same.victim_delay_50, *opposite.victim_delay_50);
  ASSERT_TRUE(opposite.delay_pushout.has_value());
  EXPECT_GT(*opposite.delay_pushout, 0.0);
}

// ---------------------------------------------------------------------------
// Reduced sweep analyses
// ---------------------------------------------------------------------------

sweep::SweepSpec reduced_spec() {
  sweep::SweepSpec spec;
  spec.base.system = {100.0, {200.0, 5e-9, 1e-12}, 50e-15};
  spec.base.xtalk.bus_lines = 3;
  spec.base.xtalk.reduction_order = 4;
  spec.axes = {
      sweep::linspace(sweep::Variable::kCouplingCapRatio, 0.1, 0.5, 3),
      sweep::linspace(sweep::Variable::kMutualRatio, 0.05, 0.3, 3),
      sweep::switching_patterns({core::SwitchingPattern::kSamePhase,
                                 core::SwitchingPattern::kOppositePhase}),
  };
  return spec;
}

TEST(ReducedSweep, BitIdenticalAcrossThreadCountsWithOneSymbolic) {
  // A plain grid performs ONE symbolic factorization (the G LU recorded at
  // point 0) for the whole sweep. A kBusLines axis changes the circuit
  // structure: each point whose G pattern mismatches the recorded one
  // factors fresh without touching the record (mor::ConductanceReuse), so
  // it adds exactly one count and every result stays bit-identical.
  sweep::SweepSpec plain = reduced_spec();
  sweep::SweepSpec mixed = plain;
  mixed.axes.push_back(sweep::values(sweep::Variable::kBusLines, {3, 5}));
  for (const sweep::SweepSpec* grid : {&plain, &mixed}) {
    const sweep::SweepSpec& spec = *grid;
    // Points whose bus width differs from point 0's: half the mixed grid.
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < spec.size(); ++i)
      if (spec.at(i).xtalk.bus_lines != spec.at(0).xtalk.bus_lines)
        ++mismatched;
    ASSERT_EQ(mismatched, grid == &mixed ? spec.size() / 2 : 0u);
    for (const sweep::Analysis analysis :
         {sweep::Analysis::kReducedDelay, sweep::Analysis::kReducedNoise}) {
      std::vector<double> reference;
      for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        SCOPED_TRACE(std::string(sweep::analysis_name(analysis)) + ", " +
                     std::to_string(spec.axes.size()) + " axes, " +
                     std::to_string(threads) + " threads");
        sweep::EngineOptions options;
        options.threads = threads;
        options.segments = 12;
        const sweep::SweepEngine engine(options);
        const auto result = engine.run(spec, analysis);
        ASSERT_EQ(result.values.size(), spec.size());
        for (double v : result.values) EXPECT_TRUE(std::isfinite(v));
        EXPECT_EQ(result.symbolic_factorizations, 1 + mismatched);
        if (threads == 1) {
          reference = result.values;
        } else {
          ASSERT_EQ(result.values.size(), reference.size());
          EXPECT_EQ(0, std::memcmp(result.values.data(), reference.data(),
                                   reference.size() * sizeof(double)));
          EXPECT_GT(result.solver_reuse_hits, 0u);
        }
      }
    }
  }
}

TEST(ReducedSweep, ReductionOrderAxisConvergesTowardTransient) {
  sweep::SweepSpec spec;
  spec.base.system = {100.0, {200.0, 5e-9, 1e-12}, 50e-15};
  spec.base.xtalk = {3, 0.3, 0.2, core::SwitchingPattern::kOppositePhase, 0, 4};
  spec.axes = {sweep::values(sweep::Variable::kReductionOrder, {2, 6})};

  sweep::EngineOptions options;
  options.threads = 1;
  options.segments = 12;
  const sweep::SweepEngine engine(options);
  const auto reduced = engine.run(spec, sweep::Analysis::kReducedDelay);

  sweep::SweepSpec transient_spec = spec;
  transient_spec.axes.clear();
  const auto transient =
      engine.run(transient_spec, sweep::Analysis::kCrosstalkDelay);
  const double oracle = transient.values[0];
  ASSERT_TRUE(std::isfinite(oracle));
  // Higher order is at least as accurate, and q = 6 is within 2%.
  EXPECT_LE(std::fabs(reduced.values[1] - oracle),
            std::fabs(reduced.values[0] - oracle) + 1e-15);
  EXPECT_NEAR(reduced.values[1], oracle, 0.02 * oracle);
}

TEST(ReducedSweep, AxisValidation) {
  sweep::SweepSpec spec = reduced_spec();
  spec.axes.push_back(sweep::values(sweep::Variable::kReductionOrder, {0}));
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.axes.back() = sweep::values(sweep::Variable::kReductionOrder, {2.5});
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.axes.back() = sweep::values(sweep::Variable::kShieldEvery, {-1});
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.axes.back() = sweep::values(sweep::Variable::kShieldEvery, {0, 1, 2});
  EXPECT_NO_THROW(spec.validate());
}

}  // namespace
