#include "sim/transient.h"
#include "sim/transient_batch.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace {

using namespace rlcsim::sim;

Circuit rc_charger(double r, double c) {
  Circuit circuit;
  circuit.add_voltage_source("in", "0", StepSpec{0.0, 1.0, 0.0, 0.0});
  circuit.add_resistor("in", "out", r);
  circuit.add_capacitor("out", "0", c);
  return circuit;
}

TEST(Transient, RcChargeMatchesAnalytic) {
  const double tau = 1e-9;
  const Circuit c = rc_charger(1000.0, 1e-12);
  TransientOptions opt;
  opt.t_stop = 5e-9;
  opt.dt = 2.5e-12;
  const auto r = run_transient(c, opt);
  const Trace out = r.waveforms.trace("out");
  for (double t : {0.3e-9, 1e-9, 2e-9, 4e-9})
    EXPECT_NEAR(out.at(t), 1.0 - std::exp(-t / tau), 2e-4) << "t=" << t;
}

TEST(Transient, RlCurrentRamp) {
  // V step into R + L to ground: v_L decays with tau = L/R; node between
  // R and L approaches 0.
  Circuit c;
  c.add_voltage_source("in", "0", StepSpec{0.0, 1.0, 0.0, 0.0});
  c.add_resistor("in", "mid", 100.0);
  c.add_inductor("mid", "0", 1e-9);
  TransientOptions opt;
  opt.t_stop = 100e-12;
  opt.dt = 0.05e-12;
  const auto r = run_transient(c, opt);
  const Trace mid = r.waveforms.trace("mid");
  const double tau = 1e-9 / 100.0;  // 10 ps
  for (double t : {5e-12, 10e-12, 30e-12})
    EXPECT_NEAR(mid.at(t), std::exp(-t / tau), 3e-3) << "t=" << t;
}

TEST(Transient, SeriesRlcUnderdampedRinging) {
  // R=20, L=1n, C=1p: zeta = R/2 sqrt(C/L) ~ 0.316 -> overshoot
  // exp(-pi z / sqrt(1-z^2)) ~ 35%.
  Circuit c;
  c.add_voltage_source("in", "0", StepSpec{0.0, 1.0, 0.0, 0.0});
  c.add_resistor("in", "a", 20.0);
  c.add_inductor("a", "out", 1e-9);
  c.add_capacitor("out", "0", 1e-12);
  TransientOptions opt;
  opt.t_stop = 2e-9;
  opt.dt = 0.2e-12;
  const auto r = run_transient(c, opt);
  const Trace out = r.waveforms.trace("out");
  const double zeta = 20.0 / 2.0 * std::sqrt(1e-12 / 1e-9);
  const double expected_overshoot =
      std::exp(-M_PI * zeta / std::sqrt(1.0 - zeta * zeta));
  EXPECT_NEAR(out.overshoot(1.0), expected_overshoot, 0.01);
  // Ringing frequency: peak at pi/wd.
  const double wd = 1.0 / std::sqrt(1e-9 * 1e-12) * std::sqrt(1.0 - zeta * zeta);
  const auto peak = out.crossing(1.0 + expected_overshoot * 0.99, 0.0, +1);
  ASSERT_TRUE(peak);
  EXPECT_NEAR(*peak, M_PI / wd, 0.1 * M_PI / wd);
}

TEST(Transient, TrapezoidalBeatsBackwardEulerAtSameStep) {
  const Circuit c = rc_charger(1000.0, 1e-12);
  TransientOptions trap;
  trap.t_stop = 3e-9;
  trap.dt = 20e-12;
  trap.integrator = Integrator::kTrapezoidal;
  TransientOptions be = trap;
  be.integrator = Integrator::kBackwardEuler;
  be.be_steps_after_breakpoint = 0;

  const Trace out_trap = run_transient(c, trap).waveforms.trace("out");
  const Trace out_be = run_transient(c, be).waveforms.trace("out");
  double err_trap = 0.0, err_be = 0.0;
  for (double t = 0.4e-9; t < 3e-9; t += 0.1e-9) {
    const double exact = 1.0 - std::exp(-t / 1e-9);
    err_trap = std::max(err_trap, std::fabs(out_trap.at(t) - exact));
    err_be = std::max(err_be, std::fabs(out_be.at(t) - exact));
  }
  EXPECT_LT(err_trap, err_be * 0.25);
}

TEST(Transient, StepGridLandsOnBreakpoints) {
  // A pulse with edges not commensurate with dt: the recorded times must
  // include the exact edge instants.
  Circuit c;
  c.add_voltage_source("in", "0", PulseSpec{0.0, 1.0, 0.33e-9, 1e-12, 1e-12, 0.5e-9, 0.0});
  c.add_resistor("in", "out", 100.0);
  c.add_capacitor("out", "0", 1e-12);
  TransientOptions opt;
  opt.t_stop = 2e-9;
  opt.dt = 0.1e-9;
  const auto r = run_transient(c, opt);
  const auto& times = r.waveforms.time();
  const auto near_any = [&](double target) {
    for (double t : times)
      if (std::fabs(t - target) < 1e-15) return true;
    return false;
  };
  EXPECT_TRUE(near_any(0.33e-9));
  EXPECT_TRUE(near_any(0.33e-9 + 1e-12));
}

TEST(Transient, BufferFiresAtInterpolatedCrossing) {
  // Slow ramp into a buffer: the input crosses 0.5 at exactly 1 ns; the
  // buffer must fire within a small fraction of dt of that instant.
  Circuit c;
  PwlSpec ramp;
  ramp.points = {{0.0, 0.0}, {2e-9, 1.0}};
  c.add_voltage_source("in", "0", ramp);
  c.add_resistor("in", "bin", 1.0);  // negligible
  c.add_buffer("bin", "bout", 100.0, 1e-15);
  c.add_capacitor("bout", "0", 1e-12);
  TransientOptions opt;
  opt.t_stop = 3e-9;
  opt.dt = 0.25e-9;  // deliberately coarse: crossing is mid-step
  const auto r = run_transient(c, opt);
  ASSERT_EQ(r.buffer_fire_times.size(), 1u);
  EXPECT_NEAR(r.buffer_fire_times[0], 1e-9, 0.02e-9);
  // And the buffer output then charges toward vdd.
  EXPECT_NEAR(r.waveforms.trace("bout").final_value(), 1.0, 1e-3);
}

TEST(Transient, UnfiredBufferStaysQuiet) {
  Circuit c;
  c.add_voltage_source("in", "0", DcSpec{0.2});  // never crosses 0.5
  c.add_resistor("in", "bin", 1.0);
  c.add_buffer("bin", "bout", 100.0, 1e-15);
  c.add_capacitor("bout", "0", 1e-12);
  TransientOptions opt;
  opt.t_stop = 1e-9;
  const auto r = run_transient(c, opt);
  EXPECT_TRUE(std::isinf(r.buffer_fire_times[0]));
  EXPECT_NEAR(r.waveforms.trace("bout").final_value(), 0.0, 1e-9);
}

TEST(Transient, LuFactorizationsAreCached) {
  const Circuit c = rc_charger(1000.0, 1e-12);
  TransientOptions opt;
  opt.t_stop = 4e-9;
  opt.dt = 1e-12;
  const auto r = run_transient(c, opt);
  EXPECT_EQ(r.steps_taken, 4000u);
  // DC + (BE and trapezoidal at the fixed dt) ~ a handful, not thousands.
  EXPECT_LE(r.lu_factorizations, 6u);
}

TEST(Transient, OptionValidation) {
  const Circuit c = rc_charger(1.0, 1e-12);
  TransientOptions bad;
  bad.t_stop = 0.0;
  EXPECT_THROW(run_transient(c, bad), std::invalid_argument);
  bad.t_stop = 1e-9;
  bad.dt = 2e-9;
  EXPECT_THROW(run_transient(c, bad), std::invalid_argument);

  // dt = 0 selects t_stop / 4000; a negative or NaN dt is an error, not a
  // request for the default. The batched entry point declines such options
  // (even with a fully seeded record), so the scalar diagnostic fires.
  SolverReuse reuse;
  TransientOptions good;
  good.t_stop = 1e-9;
  good.reuse = &reuse;
  EXPECT_EQ(run_transient(c, good).steps_taken, 4000u);
  for (const double dt : {-1e-12, std::numeric_limits<double>::quiet_NaN()}) {
    TransientOptions options = good;
    options.dt = dt;
    EXPECT_THROW(run_transient(c, options), std::invalid_argument) << dt;
    EXPECT_FALSE(run_batched_crossings({c}, "out", 0.5, options, "test")) << dt;
  }
  EXPECT_TRUE(run_batched_crossings({c}, "out", 0.5, good, "test"));
}

TEST(DcOperatingPoint, MatchesHandAnalysis) {
  Circuit c;
  c.add_voltage_source("in", "0", DcSpec{9.0});
  c.add_resistor("in", "a", 1000.0);
  c.add_resistor("a", "0", 2000.0);
  const auto x = dc_operating_point(c);
  EXPECT_NEAR(x[static_cast<std::size_t>(*c.find_node("a"))], 6.0, 1e-6);
}

// Convergence order probe: halving dt must shrink the trapezoidal error
// by ~4x on a smooth interval.
class TrapConvergence : public ::testing::TestWithParam<double> {};

TEST_P(TrapConvergence, SecondOrderInDt) {
  const double dt = GetParam();
  const Circuit c = rc_charger(1000.0, 1e-12);
  const auto run_error = [&](double step) {
    TransientOptions opt;
    opt.t_stop = 2e-9;
    opt.dt = step;
    const Trace out = run_transient(c, opt).waveforms.trace("out");
    // Sample at a smooth point away from the t=0 discontinuity.
    return std::fabs(out.at(1.5e-9) - (1.0 - std::exp(-1.5)));
  };
  const double ratio = run_error(dt) / run_error(dt / 2.0);
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 6.0);
}

INSTANTIATE_TEST_SUITE_P(Steps, TrapConvergence, ::testing::Values(40e-12, 20e-12));

}  // namespace
