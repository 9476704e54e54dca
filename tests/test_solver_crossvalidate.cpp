// Sparse-vs-dense cross-validation of the full simulator stack, plus the
// LU-cache regressions introduced with the sparse MNA subsystem.
//
//  * Coupled RLC lines (capacitive + mutual-inductive coupling) simulated
//    by the sparse engine must agree to 1e-9 with the dense-LU oracle
//    (tests/dense_oracle.h) in both transient waveforms and AC transfer —
//    the mutual-inductance cross stamps are the easiest thing for a sparse
//    assembly path to get wrong. Small circuits (3 and 63 unknowns) are
//    held to the same oracle.
//  * An AC sweep must perform exactly one symbolic factorization however
//    many frequency points it visits (pattern reuse).
//  * A transient run must share one symbolic factorization across all its
//    (dt, integrator) LU-cache entries.
//  * Breakpoint-clipped step sizes that differ only by ulps must NOT create
//    extra LU factorizations (quantized cache keys).
//  * Pulse breakpoint collection is bounded by t_stop/period, not a magic
//    cycle cap: long-period pulses stay cheap, and megacycle trains are not
//    silently truncated.
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "dense_oracle.h"
#include "sim/ac.h"
#include "sim/builders.h"
#include "sim/transient.h"
#include "tline/coupled_bus.h"

namespace {

using namespace rlcsim;
using namespace rlcsim::sim;

CoupledLinesSpec coupled_spec(int segments) {
  CoupledLinesSpec spec;
  spec.line = {100.0, 5e-9, 1e-12};   // Rt, Lt, Ct
  spec.coupling_capacitance = 0.3e-12;
  spec.inductive_k = 0.4;
  spec.segments = segments;
  return spec;
}

// Max deviation of a sparse run from the dense-LU oracle stepped on the
// run's own grid.
double oracle_deviation(const Circuit& circuit, const TransientOptions& options) {
  const TransientResult sparse = run_transient(circuit, options);
  const WaveformSet dense =
      oracle::dense_transient(circuit, options, sparse.waveforms.time());
  return oracle::max_abs_deviation(dense, sparse.waveforms);
}

TEST(CrossValidate, CoupledLinesTransientSparseMatchesDense) {
  // 40 segments/line -> ~200 unknowns with 40 mutual couplings: rich enough
  // to exercise every stamp type.
  const Circuit circuit = build_crosstalk_pair(coupled_spec(40), 100.0, 50e-15);
  TransientOptions options;
  options.t_stop = 2e-9;
  options.dt = 1e-12;
  EXPECT_LE(oracle_deviation(circuit, options), 1e-9);
}

TEST(CrossValidate, CoupledLinesAcSparseMatchesDense) {
  const Circuit circuit = build_crosstalk_pair(coupled_spec(40), 100.0, 50e-15);
  const auto freqs = log_frequencies(1e6, 1e11, 60);
  // The aggressor driver is the "agg.drv" source; compare victim far end.
  const std::string source = circuit.voltage_sources().front().name;
  for (const char* node : {"agg.out", "vic.out"}) {
    const auto hd = oracle::dense_ac(circuit, source, node, freqs);
    const auto hs = ac_transfer(circuit, source, node, freqs);
    ASSERT_EQ(hd.size(), hs.size());
    for (std::size_t i = 0; i < hd.size(); ++i)
      EXPECT_LE(std::abs(hd[i] - hs[i].value), 1e-9) << node << " f=" << freqs[i];
  }
}

// Small systems, where a dense LU is competitive, run on the sparse LU too
// and are held to the same oracle.
TEST(CrossValidate, ThreeUnknownRcMatchesDenseOracle) {
  Circuit small;
  small.add_voltage_source("in", "0", StepSpec{0.0, 1.0, 0.0, 0.0}, "vin");
  small.add_resistor("in", "out", 100.0);
  small.add_capacitor("out", "0", 1e-12);
  ASSERT_EQ(MnaAssembler(small).unknown_count(), 3u);
  TransientOptions options;
  options.t_stop = 1e-9;
  EXPECT_LE(oracle_deviation(small, options), 1e-9);

  const auto freqs = log_frequencies(1e6, 1e11, 30);
  const auto hd = oracle::dense_ac(small, "vin", "out", freqs);
  const auto hs = ac_transfer(small, "vin", "out", freqs);
  for (std::size_t i = 0; i < freqs.size(); ++i)
    EXPECT_LE(std::abs(hd[i] - hs[i].value), 1e-9) << "f=" << freqs[i];
}

TEST(CrossValidate, SixtyThreeUnknownBusMatchesDenseOracle) {
  // The 3-line, 6-segment coupled bus (63 unknowns), the size of the
  // crosstalk benchmark's bus.
  const tline::CoupledBus bus = tline::make_bus(3, {100.0, 5e-9, 1e-12}, 0.4, 0.3);
  const Circuit circuit = build_coupled_bus(
      bus, {BusDrive::kRising, BusDrive::kQuietLow, BusDrive::kFalling}, 100.0,
      50e-15, 6);
  ASSERT_EQ(MnaAssembler(circuit).unknown_count(), 63u);
  TransientOptions options;
  options.t_stop = 2e-9;
  options.dt = 1e-12;
  EXPECT_LE(oracle_deviation(circuit, options), 1e-9);

  const auto freqs = log_frequencies(1e6, 1e11, 30);
  const std::string source = circuit.voltage_sources().front().name;
  const auto hd = oracle::dense_ac(circuit, source, "line1.out", freqs);
  const auto hs = ac_transfer(circuit, source, "line1.out", freqs);
  for (std::size_t i = 0; i < freqs.size(); ++i)
    EXPECT_LE(std::abs(hd[i] - hs[i].value), 1e-9) << "f=" << freqs[i];
}

TEST(AcSweep, ExactlyOneSymbolicFactorizationPerSweep) {
  const Circuit circuit = build_crosstalk_pair(coupled_spec(40), 100.0, 50e-15);
  const std::string source = circuit.voltage_sources().front().name;
  const auto freqs = log_frequencies(1e6, 1e10, 100);

  AcSweepInfo info;
  ac_transfer(circuit, source, "vic.out", freqs, &info);
  EXPECT_EQ(info.symbolic_factorizations, 1u)
      << "a 100-point sweep must reuse one symbolic factorization";
  // One full factorization at the pivot frequency + one refactor per point.
  EXPECT_EQ(info.numeric_factorizations, freqs.size() + 1);
}

TEST(TransientCache, SharesOneSymbolicAcrossDtAndIntegratorKeys) {
  // Trapezoidal with BE damping steps and a mid-run breakpoint produces
  // several distinct (dt, integrator) cache keys; all of them must share
  // the first key's symbolic analysis.
  const Circuit circuit = build_crosstalk_pair(coupled_spec(40), 100.0, 50e-15);
  SolverReuse record;
  TransientOptions options;
  options.t_stop = 2e-9;
  options.dt = 1e-12;
  options.reuse = &record;

  const auto result = run_transient(circuit, options);
  EXPECT_GE(result.lu_factorizations, 2u);  // BE + trapezoidal at least
  // One symbolic for the DC operating point (different pattern) plus one for
  // the whole transient system — never one per cache key.
  EXPECT_EQ(record.symbolic_factorizations, 2u);
}

TEST(TransientCache, UlpDifferentClippedStepsShareAFactorization) {
  // A PWL source with points at exact step multiples n*dt computed two ways
  // (i*dt vs t_stop-scaled) yields breakpoint-clipped dts differing by ulps.
  // With exact-double cache keys every such breakpoint paid a fresh LU; the
  // quantized key must collapse them.
  Circuit circuit;
  PwlSpec ramp;
  const double t_stop = 4e-9;
  const double dt = 1e-12;
  ramp.points = {{0.0, 0.0}};
  // Breakpoints intentionally at ulp-perturbed multiples of dt.
  for (int k = 1; k <= 8; ++k) {
    const double t = (t_stop * k) / 8.0 * (1.0 + ((k % 2) ? 3e-16 : -3e-16));
    ramp.points.emplace_back(t, 0.1 * k);
  }
  circuit.add_voltage_source("in", "0", ramp);
  circuit.add_resistor("in", "out", 100.0);
  circuit.add_capacitor("out", "0", 1e-12);

  TransientOptions options;
  options.t_stop = t_stop;
  options.dt = dt;
  const auto result = run_transient(circuit, options);
  // Nominal dt in both integrators, plus at most a couple of genuinely
  // different clipped steps — NOT one factorization per breakpoint.
  EXPECT_LE(result.lu_factorizations, 4u);
}

TEST(Breakpoints, LongPeriodPulseOnlyContributesCoveredCycles) {
  // Period far beyond the window: only cycle 0's edges, and instantly.
  PulseSpec pulse;
  pulse.delay = 1e-10;
  pulse.rise = 1e-12;
  pulse.fall = 1e-12;
  pulse.width = 2e-10;
  pulse.period = 3600.0;  // one hour
  std::set<double> bp;
  collect_source_breakpoints(SourceSpec{pulse}, 1e-9, bp);
  EXPECT_EQ(bp.size(), 4u);
  EXPECT_TRUE(bp.count(1e-10));

  // Delay beyond the window: nothing.
  bp.clear();
  pulse.delay = 2.0;
  collect_source_breakpoints(SourceSpec{pulse}, 1e-9, bp);
  EXPECT_TRUE(bp.empty());
}

TEST(Breakpoints, MegacyclePulseTrainIsNotTruncated) {
  // 150000 cycles fit in the window: the seed's 100000-cycle cap silently
  // dropped the tail edges; the bound must now come from t_stop/period.
  PulseSpec pulse;
  pulse.delay = 0.0;
  pulse.rise = 1e-12;
  pulse.fall = 1e-12;
  pulse.width = 2e-9;
  pulse.period = 1e-8;
  const double t_stop = 1.5e-3;  // 150000 cycles
  std::set<double> bp;
  collect_source_breakpoints(SourceSpec{pulse}, t_stop, bp);
  // An edge from a cycle far beyond the old cap must be present.
  const double late_base = 149999 * pulse.period;
  EXPECT_TRUE(bp.lower_bound(late_base - 1e-12) != bp.end());
  EXPECT_GE(*bp.rbegin(), late_base);
  // 150000 full cycles of 4 edges; the final cycle boundary may or may not
  // land inside the window depending on rounding.
  EXPECT_GE(bp.size(), 4u * 150000u);
  EXPECT_LE(bp.size(), 4u * 150000u + 4u);
}

TEST(Breakpoints, PathologicalCycleCountThrowsInsteadOfExhaustingMemory) {
  // period << t_stop: >1e6 cycles could never be integrated (every edge
  // forces a step); the collector must refuse loudly, not OOM.
  PulseSpec pulse;
  pulse.period = 1e-12;
  std::set<double> bp;
  EXPECT_THROW(collect_source_breakpoints(SourceSpec{pulse}, 1.0, bp),
               std::invalid_argument);
}

TEST(Transient, MinDtFractionValidation) {
  Circuit circuit;
  circuit.add_voltage_source("in", "0", StepSpec{0.0, 1.0, 0.0, 0.0});
  circuit.add_resistor("in", "out", 100.0);
  circuit.add_capacitor("out", "0", 1e-12);
  TransientOptions options;
  options.t_stop = 1e-9;
  options.min_dt_fraction = 0.0;  // would make the dt quantum degenerate
  EXPECT_THROW(run_transient(circuit, options), std::invalid_argument);
  options.min_dt_fraction = 2.0;
  EXPECT_THROW(run_transient(circuit, options), std::invalid_argument);
}

TEST(Transient, PulseDrivenLadderSparseMatchesDense) {
  // End-to-end: a repeating pulse through an RLC ladder (many breakpoint
  // landings and clipped steps), sparse engine vs the dense oracle.
  Circuit circuit;
  circuit.add_voltage_source("vin", "0",
                             PulseSpec{0.0, 1.0, 0.1e-9, 10e-12, 10e-12, 0.4e-9, 1.1e-9},
                             "vsrc");
  circuit.add_resistor("vin", "drv", 200.0, "rtr");
  add_rlc_ladder(circuit, "line", "drv", "out", {200.0, 2e-8, 0.5e-12}, 30);
  circuit.add_capacitor("out", "0", 0.2e-12, 0.0, "cload");
  TransientOptions options;
  options.t_stop = 3e-9;
  options.dt = 1e-12;
  EXPECT_LE(oracle_deviation(circuit, options), 1e-9);
}

}  // namespace
