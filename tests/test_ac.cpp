#include "sim/ac.h"

#include <cmath>
#include <complex>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/builders.h"
#include "tline/transfer.h"

namespace {

using namespace rlcsim;
using namespace rlcsim::sim;

TEST(Ac, RcLowPassPole) {
  // R = 1k into C = 1p: pole at 1/(2 pi RC) ~ 159 MHz.
  Circuit c;
  c.add_voltage_source("in", "0", DcSpec{0.0}, "vin");
  c.add_resistor("in", "out", 1000.0);
  c.add_capacitor("out", "0", 1e-12);
  const double f_pole = 1.0 / (2.0 * M_PI * 1e-9);
  const auto h = ac_transfer_at(c, "vin", "out", f_pole);
  EXPECT_NEAR(std::abs(h), 1.0 / std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(std::arg(h) * 180.0 / M_PI, -45.0, 1e-6);
}

TEST(Ac, DcGainOfDivider) {
  Circuit c;
  c.add_voltage_source("in", "0", DcSpec{0.0}, "vin");
  c.add_resistor("in", "out", 1000.0);
  c.add_resistor("out", "0", 3000.0);
  EXPECT_NEAR(std::abs(ac_transfer_at(c, "vin", "out", 1.0)), 0.75, 1e-12);
}

TEST(Ac, SeriesRlcResonance) {
  // Series RLC peaks (at the cap) near f0 = 1/(2 pi sqrt(LC)) with
  // Q = (1/R) sqrt(L/C).
  Circuit c;
  c.add_voltage_source("in", "0", DcSpec{0.0}, "vin");
  c.add_resistor("in", "a", 10.0);
  c.add_inductor("a", "out", 1e-9);
  c.add_capacitor("out", "0", 1e-12);
  const double f0 = 1.0 / (2.0 * M_PI * std::sqrt(1e-9 * 1e-12));
  const double q = std::sqrt(1e-9 / 1e-12) / 10.0;
  EXPECT_NEAR(std::abs(ac_transfer_at(c, "vin", "out", f0)), q, q * 1e-6);
}

TEST(Ac, LadderMatchesAbcdTransferExactly) {
  // The AC solution of the lumped ladder and the frequency-domain ABCD
  // cascade are two routes to the same rational function: agreement should
  // be at rounding level, not discretization level.
  const tline::GateLineLoad sys{300.0, {700.0, 2e-9, 1.5e-12}, 0.8e-12};
  const Circuit circuit = build_gate_line_load(sys, 24);
  for (double f : {1e7, 1e8, 1e9, 5e9}) {
    const auto from_mna = ac_transfer_at(circuit, "vsrc", "out", f);
    const auto from_abcd =
        tline::transfer_lumped(sys, 24, tline::Complex(0.0, 2.0 * M_PI * f));
    EXPECT_LT(std::abs(from_mna - from_abcd), 1e-9 * std::abs(from_abcd) + 1e-15)
        << "f=" << f;
  }
}

TEST(Ac, MutualCouplingTransformerAction) {
  // Two coupled inductors as a weak transformer: the open-circuit secondary
  // voltage is (M/L1) * v_primary-inductor. With a voltage source directly
  // across L1, v_sec = k sqrt(L1 L2)/L1 * v_in.
  Circuit c;
  c.add_voltage_source("p", "0", DcSpec{0.0}, "vin");
  c.add_inductor("p", "0", 4e-9, 0.0, "L1");
  c.add_inductor("s", "0", 1e-9, 0.0, "L2");
  c.add_resistor("s", "0", 1e9, "rload");  // ~open secondary
  c.add_mutual("L1", "L2", 0.5, "K1");
  const auto h = ac_transfer_at(c, "vin", "s", 1e9);
  // M = 0.5 sqrt(4n * 1n) = 1n; v_s = M/L1 = 0.25 of v_in.
  EXPECT_NEAR(std::abs(h), 0.25, 1e-6);
}

TEST(Ac, Validation) {
  Circuit c;
  c.add_voltage_source("in", "0", DcSpec{0.0}, "vin");
  c.add_resistor("in", "out", 100.0);
  c.add_resistor("out", "0", 100.0);
  EXPECT_THROW(ac_transfer_at(c, "nope", "out", 1e6), std::invalid_argument);
  EXPECT_THROW(ac_transfer_at(c, "vin", "nope", 1e6), std::invalid_argument);
  EXPECT_THROW(ac_transfer(c, "vin", "out", {-1.0}), std::invalid_argument);
}

TEST(Ac, NonFiniteOrNegativeFrequencyThrowsBeforeFactorizing) {
  // The sweep pivots at its largest frequency before visiting any point, so
  // validation must come first: a NaN reaching the pivot factorization
  // throws "SparseLu: matrix is singular" (std::runtime_error) instead of
  // an argument error.
  CoupledLinesSpec spec;
  spec.line = {100.0, 5e-9, 1e-12};
  spec.coupling_capacitance = 0.3e-12;
  spec.inductive_k = 0.4;
  spec.segments = 40;
  const Circuit circuit = build_crosstalk_pair(spec, 100.0, 50e-15);
  const std::string source = circuit.voltage_sources().front().name;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& freqs :
       {std::vector<double>{nan, 1e6}, std::vector<double>{1e6, nan},
        std::vector<double>{nan}, std::vector<double>{inf},
        std::vector<double>{1e6, -1.0}}) {
    AcSweepInfo info;
    EXPECT_THROW(ac_transfer(circuit, source, "vic.out", freqs, &info),
                 std::invalid_argument);
    EXPECT_EQ(info.symbolic_factorizations, 0u);
  }
}

TEST(Ac, LogFrequencies) {
  const auto f = log_frequencies(1e6, 1e9, 4);
  ASSERT_EQ(f.size(), 4u);
  EXPECT_DOUBLE_EQ(f.front(), 1e6);
  EXPECT_NEAR(f.back(), 1e9, 1e-3);
  EXPECT_NEAR(f[1] / f[0], 10.0, 1e-9);
  EXPECT_THROW(log_frequencies(0.0, 1e9, 4), std::invalid_argument);
  EXPECT_THROW(log_frequencies(1e6, 1e9, 1), std::invalid_argument);
}

TEST(Ac, BandwidthOfRcPole) {
  Circuit c;
  c.add_voltage_source("in", "0", DcSpec{0.0}, "vin");
  c.add_resistor("in", "out", 1000.0);
  c.add_capacitor("out", "0", 1e-12);
  const auto bw = bandwidth_3db(c, "vin", "out", 1e3, 1e12);
  ASSERT_TRUE(bw.has_value());
  EXPECT_NEAR(*bw, 1.0 / (2.0 * M_PI * 1e-9), 1e-3 / (2.0 * M_PI * 1e-9));
}

TEST(Ac, SampleFormatHelpers) {
  AcSample s{1e6, {0.5, 0.0}};
  EXPECT_NEAR(s.magnitude_db(), -6.0206, 1e-3);
  EXPECT_DOUBLE_EQ(s.phase_deg(), 0.0);
}

// AC-vs-transient cross-check: the -3 dB bandwidth from AC analysis must be
// consistent with the 10-90 rise time of the transient step response
// (tr * bw ~ 0.35 for a single-pole system).
TEST(AcTransientConsistency, RiseTimeBandwidthProduct) {
  Circuit c;
  c.add_voltage_source("in", "0", StepSpec{0.0, 1.0, 0.0, 0.0}, "vin");
  c.add_resistor("in", "out", 1000.0);
  c.add_capacitor("out", "0", 1e-12);
  const auto bw = bandwidth_3db(c, "vin", "out", 1e3, 1e12);
  ASSERT_TRUE(bw.has_value());
  TransientOptions opt;
  opt.t_stop = 10e-9;
  opt.dt = 1e-12;
  const double tr = run_transient(c, opt).waveforms.trace("out").rise_time(1.0);
  EXPECT_NEAR(tr * *bw, 0.3497, 0.005);
}

}  // namespace
