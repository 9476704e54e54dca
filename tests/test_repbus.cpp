// Bus-aware repeater insertion (src/repbus/): chain builder structure,
// extended buffer semantics, golden cascaded-MNA vs stage-composed reduced
// chain (2- and 5-line buses, uniform/staggered/interleaved), placement
// physics (staggered noise + opposite-phase delay wins, interleaved spread
// collapse), and the crosstalk-aware optimizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "repbus/bus_chain.h"
#include "repbus/optimize.h"
#include "repbus/stage_compose.h"
#include "sim/transient.h"
#include "sweep/sweep.h"

namespace {

using namespace rlcsim;

// The Table-1-derived bench bus: Rt = 500 ohm, Lt = 10 nH, Ct = 1 pF line,
// R0 C0 = 15 ps repeater technology (T_{L/R} ~ 1.3 — inductance matters).
const tline::LineParams kLine{500.0, 1e-8, 1e-12};
const core::MinBuffer kBuf{3000.0, 5e-15, 1.0, 0.0};

repbus::RepeaterBusSpec spec_for(int lines, repbus::Placement placement,
                                 int sections = 4, double size = 32.0) {
  repbus::RepeaterBusSpec spec;
  spec.bus = tline::make_bus(lines, kLine, 0.4, 0.25);
  spec.sections = sections;
  spec.size = size;
  spec.buffer = kBuf;
  spec.placement = placement;
  spec.segments_per_section = 12;
  return spec;
}

double pct_error(double value, double reference) {
  return 100.0 * std::fabs(value - reference) / reference;
}

// ---------------------------------------------------------------------------
// Spec validation and bookkeeping
// ---------------------------------------------------------------------------

TEST(RepeaterBusSpec, Validation) {
  auto spec = spec_for(3, repbus::Placement::kUniform);
  EXPECT_NO_THROW(repbus::validate(spec));
  spec.sections = 0;
  EXPECT_THROW(repbus::validate(spec), std::invalid_argument);
  spec = spec_for(3, repbus::Placement::kStaggered, /*sections=*/1);
  EXPECT_THROW(repbus::validate(spec), std::invalid_argument);
  spec = spec_for(3, repbus::Placement::kStaggered);
  spec.segments_per_section = 11;  // half-stage boundary off the grid
  EXPECT_THROW(repbus::validate(spec), std::invalid_argument);
  spec = spec_for(3, repbus::Placement::kUniform);
  spec.size = 0.0;
  EXPECT_THROW(repbus::validate(spec), std::invalid_argument);
}

TEST(RepeaterBusSpec, EqualAreaAcrossPlacements) {
  // Staggering shifts positions, never the count: every placement costs the
  // same repeater area, so placement comparisons are equal-area as built.
  const double uniform = repbus::repeater_area(spec_for(5, repbus::Placement::kUniform));
  const double staggered =
      repbus::repeater_area(spec_for(5, repbus::Placement::kStaggered));
  const double interleaved =
      repbus::repeater_area(spec_for(5, repbus::Placement::kInterleaved));
  EXPECT_DOUBLE_EQ(uniform, staggered);
  EXPECT_DOUBLE_EQ(uniform, interleaved);
  // 5 lines x k=4 drivers x h=32 x A_min.
  EXPECT_DOUBLE_EQ(uniform, 5.0 * 4.0 * 32.0 * 1.0);
}

TEST(RepeaterBusSpec, ShieldLinesCarryNoRepeaters) {
  auto spec = spec_for(5, repbus::Placement::kUniform);
  spec.shield_every = 2;  // lines 0 and 4 shield (victim = 2)
  EXPECT_EQ(repbus::repeaters_on_line(spec, 0), 0);
  EXPECT_EQ(repbus::repeaters_on_line(spec, 1), 4);
  EXPECT_EQ(repbus::repeaters_on_line(spec, 2), 4);
  EXPECT_DOUBLE_EQ(repbus::repeater_area(spec), 3.0 * 4.0 * 32.0);
}

TEST(BusChain, StructureAndPolarity) {
  const auto uniform = repbus::build_bus_chain(
      spec_for(5, repbus::Placement::kUniform), core::SwitchingPattern::kSamePhase);
  EXPECT_EQ(uniform.victim, 2);
  EXPECT_EQ(uniform.receiver_nodes.size(), 5u);
  // k - 1 = 3 threshold buffers per line (the first driver is the source).
  EXPECT_EQ(uniform.circuit.buffers().size(), 5u * 3u);
  for (int polarity : uniform.far_polarity) EXPECT_EQ(polarity, +1);

  const auto interleaved = repbus::build_bus_chain(
      spec_for(5, repbus::Placement::kInterleaved),
      core::SwitchingPattern::kSamePhase);
  // Alternate lines (odd distance from the victim) carry k = 4 inverting
  // drivers: polarity (-1)^4 = +1 at the receiver.
  EXPECT_EQ(interleaved.far_polarity[1], +1);
  EXPECT_EQ(interleaved.far_polarity[2], +1);
  // And their first driver inverts the external rising edge: source holds
  // vdd pre-switch.
  const auto& sources = interleaved.circuit.voltage_sources();
  const auto* alternate = std::get_if<sim::StepSpec>(&sources[1].spec);
  ASSERT_NE(alternate, nullptr);
  EXPECT_DOUBLE_EQ(alternate->v0, 1.0);
  EXPECT_DOUBLE_EQ(alternate->v1, 0.0);
}

// ---------------------------------------------------------------------------
// Extended buffer semantics (falling / inverting / ramped repeaters)
// ---------------------------------------------------------------------------

TEST(SwitchingBuffer, FallingAndSimultaneousCrossingsFire) {
  // One rising and one falling lag crossing threshold at the SAME instant —
  // the symmetric-bus corner that used to leave one buffer parked exactly at
  // its threshold, never firing.
  sim::Circuit c;
  c.add_voltage_source("a.in", "0", sim::StepSpec{0.0, 1.0, 0.0, 0.0}, "va");
  c.add_resistor("a.in", "a.mid", 1000.0, "ra");
  c.add_capacitor("a.mid", "0", 1e-12, 0.0, "ca");
  c.add_buffer("a.mid", "a.out", 100.0, 1e-15, 1.0, 0.5, "bufa");
  c.add_voltage_source("b.in", "0", sim::StepSpec{1.0, 0.0, 0.0, 0.0}, "vb");
  c.add_resistor("b.in", "b.mid", 1000.0, "rb");
  c.add_capacitor("b.mid", "0", 1e-12, 0.0, "cb");
  c.add_switching_buffer("b.mid", "b.out", 100.0, 1e-15, -1, 1.0, 0.0, 0.0,
                         1.0, 0.5, "bufb");
  sim::TransientOptions options;
  options.t_stop = 10e-9;
  const auto result = sim::run_transient(c, options);
  ASSERT_TRUE(std::isfinite(result.buffer_fire_times[0]));
  ASSERT_TRUE(std::isfinite(result.buffer_fire_times[1]));
  // RC lag to 50%: ln(2) * 1 ns ~ 693 ps, same instant for both.
  EXPECT_NEAR(result.buffer_fire_times[0], 693e-12, 10e-12);
  EXPECT_NEAR(result.buffer_fire_times[0], result.buffer_fire_times[1], 1e-12);
  // The falling buffer's output ends low, the rising one's high.
  EXPECT_NEAR(result.waveforms.trace("a.out").final_value(), 1.0, 1e-3);
  EXPECT_NEAR(result.waveforms.trace("b.out").final_value(), 0.0, 1e-3);
}

TEST(SwitchingBuffer, OutputRampHasFiniteEdge) {
  sim::Circuit c;
  c.add_voltage_source("in", "0", sim::StepSpec{0.0, 1.0, 0.0, 0.0}, "v");
  c.add_resistor("in", "mid", 100.0, "r");
  c.add_capacitor("mid", "0", 1e-13, 0.0, "cm");
  c.add_switching_buffer("mid", "out", 100.0, 1e-15, +1, 0.0, 1.0,
                         /*output_rise=*/200e-12, 1.0, 0.5, "buf");
  c.add_capacitor("out", "0", 1e-15, 0.0, "cl");
  sim::TransientOptions options;
  options.t_stop = 2e-9;
  const auto result = sim::run_transient(c, options);
  const double fire = result.buffer_fire_times[0];
  ASSERT_TRUE(std::isfinite(fire));
  const auto out = result.waveforms.trace("out");
  // Midway through the ramp the output sits near 50% (the tiny load barely
  // lags the ramp); an ideal step would already be at 1.
  EXPECT_NEAR(out.at(fire + 100e-12), 0.5, 0.1);
  EXPECT_NEAR(out.at(fire + 400e-12), 1.0, 2e-2);
}

// ---------------------------------------------------------------------------
// Golden: cascaded MNA vs stage-composed reduced chain
// ---------------------------------------------------------------------------

struct GoldenCase {
  int lines;
  repbus::Placement placement;
};

class ComposeGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ComposeGolden, DelayWithin3PercentAndQuietNoiseTracks) {
  const GoldenCase param = GetParam();
  const auto spec = spec_for(param.lines, param.placement);
  const repbus::StageModels models = repbus::build_stage_models(spec, 4);
  for (core::SwitchingPattern pattern :
       {core::SwitchingPattern::kSamePhase,
        core::SwitchingPattern::kOppositePhase}) {
    const repbus::ChainMetrics mna = repbus::simulate_bus_chain(spec, pattern);
    const repbus::ComposedChainMetrics composed =
        repbus::compose_bus_chain(spec, pattern, models);
    ASSERT_TRUE(mna.victim_delay_50.has_value());
    ASSERT_TRUE(composed.victim_delay_50.has_value());
    EXPECT_LT(pct_error(*composed.victim_delay_50, *mna.victim_delay_50), 3.0)
        << repbus::placement_name(param.placement) << " "
        << core::switching_pattern_name(pattern);
  }
  // Quiet-victim noise: per-stage composed vs receiver transient. The
  // staggered composition smears aggressor edges over two onsets — a
  // conservative approximation, looser than the aligned placements.
  const repbus::ChainMetrics quiet_mna =
      repbus::simulate_bus_chain(spec, core::SwitchingPattern::kQuietVictim);
  const repbus::ComposedChainMetrics quiet_composed =
      repbus::compose_bus_chain(spec, core::SwitchingPattern::kQuietVictim, models);
  const double tolerance =
      param.placement == repbus::Placement::kStaggered ? 30.0 : 12.0;
  EXPECT_LT(pct_error(quiet_composed.peak_noise, quiet_mna.peak_noise), tolerance);
}

INSTANTIATE_TEST_SUITE_P(
    Placements, ComposeGolden,
    ::testing::Values(GoldenCase{2, repbus::Placement::kUniform},
                      GoldenCase{2, repbus::Placement::kStaggered},
                      GoldenCase{2, repbus::Placement::kInterleaved},
                      GoldenCase{5, repbus::Placement::kUniform},
                      GoldenCase{5, repbus::Placement::kStaggered},
                      GoldenCase{5, repbus::Placement::kInterleaved}),
    [](const auto& info) {
      return std::to_string(info.param.lines) + "Line" +
             std::string(repbus::placement_name(info.param.placement)[0] == 'u'
                             ? "Uniform"
                             : repbus::placement_name(info.param.placement)[0] == 's'
                                   ? "Staggered"
                                   : "Interleaved");
    });

TEST(ComposeGolden, NoiseOrderingAcrossPlacementsPreserved) {
  // The composed model must agree with the chain transient about WHICH
  // placement is quieter — that ordering is what the optimizer acts on.
  double mna[3], composed[3];
  int i = 0;
  for (auto placement : {repbus::Placement::kUniform, repbus::Placement::kStaggered,
                         repbus::Placement::kInterleaved}) {
    const auto spec = spec_for(5, placement);
    mna[i] = repbus::simulate_bus_chain(spec, core::SwitchingPattern::kQuietVictim)
                 .peak_noise;
    composed[i] =
        repbus::compose_bus_chain(spec, core::SwitchingPattern::kQuietVictim, 4)
            .peak_noise;
    ++i;
  }
  // Both views agree staggered beats uniform on noise (the placement's
  // raison d'etre) — the ordering the optimizer's noise cap acts on.
  EXPECT_LT(mna[1], mna[0]);
  EXPECT_LT(composed[1], composed[0]);
  // ... and that interleaving does not noticeably help noise over uniform
  // (its win is the delay spread): within a few percent in both views.
  EXPECT_NEAR(mna[2] / mna[0], 1.0, 0.08);
  EXPECT_NEAR(composed[2] / composed[0], 1.0, 0.08);
}

// ---------------------------------------------------------------------------
// Placement physics (cascaded-MNA ground truth)
// ---------------------------------------------------------------------------

TEST(PlacementPhysics, StaggeredBeatsUniformOppositePhaseAtEqualArea) {
  const auto uniform = spec_for(5, repbus::Placement::kUniform);
  const auto staggered = spec_for(5, repbus::Placement::kStaggered);
  ASSERT_DOUBLE_EQ(repbus::repeater_area(uniform), repbus::repeater_area(staggered));
  const auto u =
      repbus::simulate_bus_chain(uniform, core::SwitchingPattern::kOppositePhase);
  const auto s =
      repbus::simulate_bus_chain(staggered, core::SwitchingPattern::kOppositePhase);
  EXPECT_LT(*s.victim_delay_50, *u.victim_delay_50);
}

TEST(PlacementPhysics, InterleavedCollapsesThePatternSpread) {
  // Inverting alternate lines make every pattern see ~half fast and half
  // slow stages: the same/opposite spread collapses and the worst case
  // improves substantially over uniform.
  const auto uniform = spec_for(5, repbus::Placement::kUniform);
  const auto interleaved = spec_for(5, repbus::Placement::kInterleaved);
  const double u_same =
      *repbus::simulate_bus_chain(uniform, core::SwitchingPattern::kSamePhase)
           .victim_delay_50;
  const double u_opp =
      *repbus::simulate_bus_chain(uniform, core::SwitchingPattern::kOppositePhase)
           .victim_delay_50;
  const double i_same =
      *repbus::simulate_bus_chain(interleaved, core::SwitchingPattern::kSamePhase)
           .victim_delay_50;
  const double i_opp =
      *repbus::simulate_bus_chain(interleaved,
                                  core::SwitchingPattern::kOppositePhase)
           .victim_delay_50;
  EXPECT_LT(std::fabs(i_opp - i_same), 0.2 * std::fabs(u_opp - u_same));
  EXPECT_LT(std::max(i_same, i_opp), std::max(u_same, u_opp));
}

TEST(PlacementPhysics, ShieldingQuenchesChainNoise) {
  auto spec = spec_for(5, repbus::Placement::kUniform);
  const double bare =
      repbus::simulate_bus_chain(spec, core::SwitchingPattern::kQuietVictim)
          .peak_noise;
  spec.shield_every = 1;  // every neighbor grounded
  const double shielded =
      repbus::simulate_bus_chain(spec, core::SwitchingPattern::kQuietVictim)
          .peak_noise;
  EXPECT_LT(shielded, 0.2 * bare);
}

// ---------------------------------------------------------------------------
// Optimizer
// ---------------------------------------------------------------------------

TEST(BusOptimizer, StaggeredNoWorseThanUniformAndFrontierSane) {
  const tline::CoupledBus bus = tline::make_bus(5, kLine, 0.4, 0.25);
  repbus::OptimizerOptions options;
  options.sizes = {32.0};
  options.sections = {4};
  options.placements = {repbus::Placement::kUniform, repbus::Placement::kStaggered,
                        repbus::Placement::kInterleaved};
  const sweep::SweepEngine engine;
  const auto result = repbus::optimize_bus_repeaters(bus, kBuf, options, engine);
  ASSERT_EQ(result.evaluations.size(), 3u);
  const auto& uniform = result.evaluations[0];
  const auto& staggered = result.evaluations[1];
  const auto& interleaved = result.evaluations[2];
  ASSERT_EQ(uniform.placement, repbus::Placement::kUniform);
  ASSERT_EQ(staggered.placement, repbus::Placement::kStaggered);
  // Optimizer smoke gate: at equal area, staggered never loses to uniform
  // on worst-case delay, and beats it on noise.
  EXPECT_DOUBLE_EQ(staggered.area, uniform.area);
  EXPECT_LE(staggered.worst_delay, uniform.worst_delay);
  EXPECT_LT(staggered.noise, uniform.noise);
  // Interleaved is the worst-case-delay winner at this corner.
  EXPECT_LT(interleaved.worst_delay, uniform.worst_delay);
  // The frontier contains the best point and no dominated duplicates.
  ASSERT_TRUE(result.best.has_value());
  EXPECT_FALSE(result.frontier.empty());
  // Isolated reference comes from the paper's closed forms.
  EXPECT_NEAR(result.isolated_design.size, 32.1, 0.5);
  EXPECT_NEAR(result.isolated_design.sections, 3.67, 0.05);
}

TEST(BusOptimizer, NoiseCapSelectsQuieterPlacement) {
  const tline::CoupledBus bus = tline::make_bus(5, kLine, 0.4, 0.25);
  repbus::OptimizerOptions options;
  options.sizes = {32.0};
  options.sections = {4};
  // Uniform vs staggered only: the cap below separates exactly those two.
  options.placements = {repbus::Placement::kUniform, repbus::Placement::kStaggered};
  const sweep::SweepEngine engine;
  const auto unconstrained =
      repbus::optimize_bus_repeaters(bus, kBuf, options, engine);
  ASSERT_TRUE(unconstrained.best.has_value());
  // Cap the noise just below the uniform/interleaved level: only staggered
  // stays feasible.
  double uniform_noise = 0.0, staggered_noise = 0.0;
  for (const auto& eval : unconstrained.evaluations) {
    if (eval.placement == repbus::Placement::kUniform) uniform_noise = eval.noise;
    if (eval.placement == repbus::Placement::kStaggered)
      staggered_noise = eval.noise;
  }
  ASSERT_LT(staggered_noise, uniform_noise);
  options.noise_cap = 0.5 * (staggered_noise + uniform_noise) < uniform_noise
                          ? 0.5 * (staggered_noise + uniform_noise)
                          : staggered_noise;
  const auto capped = repbus::optimize_bus_repeaters(bus, kBuf, options, engine);
  ASSERT_TRUE(capped.best.has_value());
  EXPECT_EQ(capped.best->placement, repbus::Placement::kStaggered);
  // An impossible cap leaves no feasible point.
  options.noise_cap = 1e-6;
  const auto infeasible = repbus::optimize_bus_repeaters(bus, kBuf, options, engine);
  EXPECT_FALSE(infeasible.best.has_value());
}

TEST(BusOptimizer, DeterministicAcrossThreadCounts) {
  const tline::CoupledBus bus = tline::make_bus(3, kLine, 0.3, 0.2);
  repbus::OptimizerOptions options;
  options.sizes = {24.0, 32.0};
  options.sections = {3, 4};
  options.placements = {repbus::Placement::kUniform, repbus::Placement::kStaggered};
  std::vector<double> reference;
  for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    sweep::EngineOptions engine_options;
    engine_options.threads = threads;
    const sweep::SweepEngine engine(engine_options);
    const auto result = repbus::optimize_bus_repeaters(bus, kBuf, options, engine);
    std::vector<double> values;
    for (const auto& eval : result.evaluations) {
      values.push_back(eval.worst_delay);
      values.push_back(eval.noise);
    }
    if (reference.empty())
      reference = values;
    else
      EXPECT_EQ(values, reference);  // bit-identical at any thread count
  }
}

// The per-candidate evaluation path the optimizer's shared models must
// reproduce: every candidate builds its own stage models from a copy of its
// (sections, shield) group's record — the group's first candidate seeds it —
// and runs the three pattern walks on them.
std::vector<repbus::BusDesignEval> per_candidate_evaluations(
    const tline::CoupledBus& bus, const repbus::OptimizerOptions& options,
    const std::vector<repbus::BusDesignEval>& grid) {
  std::map<std::pair<int, int>, mor::ConductanceReuse> records;
  std::vector<repbus::BusDesignEval> evals;
  for (const repbus::BusDesignEval& candidate : grid) {
    repbus::RepeaterBusSpec spec;
    spec.bus = bus;
    spec.sections = candidate.sections;
    spec.size = candidate.size;
    spec.buffer = kBuf;
    spec.placement = candidate.placement;
    spec.segments_per_section = options.segments_per_section;
    spec.vdd = options.vdd;
    spec.source_rise = options.source_rise;
    spec.buffer_rise = options.buffer_rise;
    spec.shield_every = candidate.shield_every;
    auto [it, seeds] =
        records.try_emplace({candidate.sections, candidate.shield_every});
    mor::ConductanceReuse copy = it->second;
    const repbus::StageModels models = repbus::build_stage_models(
        spec, options.order, seeds ? &it->second : &copy);
    repbus::BusDesignEval eval = candidate;
    eval.same_phase_delay =
        repbus::compose_bus_chain(spec, core::SwitchingPattern::kSamePhase,
                                  models)
            .victim_delay_50.value();
    eval.opposite_phase_delay =
        repbus::compose_bus_chain(spec, core::SwitchingPattern::kOppositePhase,
                                  models)
            .victim_delay_50.value();
    eval.worst_delay =
        std::max(eval.same_phase_delay, eval.opposite_phase_delay);
    eval.noise = repbus::compose_bus_chain(
                     spec, core::SwitchingPattern::kQuietVictim, models)
                     .peak_noise;
    eval.area = repbus::repeater_area(spec);
    eval.feasible = eval.noise <= options.noise_cap;
    evals.push_back(eval);
  }
  return evals;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

::testing::AssertionResult same_eval(const repbus::BusDesignEval& a,
                                     const repbus::BusDesignEval& b) {
  if (same_bits(a.size, b.size) && a.sections == b.sections &&
      a.placement == b.placement && a.shield_every == b.shield_every &&
      same_bits(a.same_phase_delay, b.same_phase_delay) &&
      same_bits(a.opposite_phase_delay, b.opposite_phase_delay) &&
      same_bits(a.worst_delay, b.worst_delay) && same_bits(a.noise, b.noise) &&
      same_bits(a.area, b.area) && a.feasible == b.feasible)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "h " << a.size << " k " << a.sections << " placement "
         << repbus::placement_name(a.placement) << " shield "
         << a.shield_every << ": worst " << a.worst_delay << " vs "
         << b.worst_delay << ", noise " << a.noise << " vs " << b.noise;
}

TEST(BusOptimizer, SharedModelsMatchPerCandidateEvaluation) {
  // The optimizer builds one stage model per (sections, shield, size) and
  // walks all three placements on it. Every evaluation must equal the
  // per-candidate path bit for bit — including the donor size's placement
  // siblings, which share the donor's fresh factorization instead of
  // refactoring from a copy of the record.
  const tline::CoupledBus bus = tline::make_bus(5, kLine, 0.4, 0.25);
  repbus::OptimizerOptions options;
  options.sizes = {24.0, 32.0};
  options.sections = {2, 4};
  options.shield_options = {0, 2};
  options.noise_cap = 0.2;
  for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    sweep::EngineOptions engine_options;
    engine_options.threads = threads;
    const sweep::SweepEngine engine(engine_options);
    const auto result = repbus::optimize_bus_repeaters(bus, kBuf, options, engine);
    ASSERT_EQ(result.evaluations.size(), 24u);
    const auto reference =
        per_candidate_evaluations(bus, options, result.evaluations);
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_TRUE(same_eval(result.evaluations[i], reference[i]))
          << "candidate " << i << ", " << threads << " threads";
  }
}

TEST(BusOptimizer, ExtremumScansOnlyOnQuietWalks) {
  // The switching walks read only the delay, so the whole call runs one
  // extremum scan per stage of each candidate's quiet walk and none else.
  if (!obs::metrics_enabled()) GTEST_SKIP() << "needs RLCSIM_METRICS on";
  const tline::CoupledBus bus = tline::make_bus(5, kLine, 0.4, 0.25);
  repbus::OptimizerOptions options;
  options.sizes = {24.0, 32.0};
  options.sections = {2, 3};
  options.shield_options = {0, 2};
  sweep::EngineOptions engine_options;
  engine_options.threads = 1;
  const sweep::SweepEngine engine(engine_options);
  const auto read = [] {
    return obs::counter_total("mor.extremum_scans").value_or(0);
  };
  const std::uint64_t before = read();
  const auto result = repbus::optimize_bus_repeaters(bus, kBuf, options, engine);
  const std::uint64_t scans = read() - before;
  std::uint64_t quiet_stages = 0;
  for (const repbus::BusDesignEval& eval : result.evaluations)
    quiet_stages += static_cast<std::uint64_t>(eval.sections);
  EXPECT_EQ(result.evaluations.size(), 24u);
  EXPECT_EQ(scans, quiet_stages);
}

TEST(StageModels, RecordSharesOneStampProgram) {
  // The first build seeds the record's stamp program; a build of another
  // size (same section topology) through a copy assembles through it, and a
  // different shield layout compiles its own without touching the record.
  // Every model keeps the bits of a build without any record.
  auto spec = spec_for(5, repbus::Placement::kUniform);
  mor::ConductanceReuse record;
  const repbus::StageModels seeded = repbus::build_stage_models(spec, 4, &record);
  ASSERT_TRUE(record.program);
  const sim::StampProgramPtr program = record.program;
  spec.size = 24.0;
  mor::ConductanceReuse copy = record;
  const repbus::StageModels shared = repbus::build_stage_models(spec, 4, &copy);
  EXPECT_EQ(copy.program, program);
  spec.shield_every = 2;
  const repbus::StageModels shielded = repbus::build_stage_models(spec, 4, &copy);
  EXPECT_EQ(copy.program, program);
  const auto same_models = [](const repbus::StageModels& a,
                              const repbus::StageModels& b) {
    if (a.dc != b.dc || !same_bits(a.pitch_estimate, b.pitch_estimate))
      return false;
    for (std::size_t i = 0; i < a.transfer.size(); ++i)
      for (std::size_t j = 0; j < a.transfer[i].size(); ++j) {
        const mor::PoleResidueModel& x = a.transfer[i][j];
        const mor::PoleResidueModel& y = b.transfer[i][j];
        if (x.poles != y.poles || x.residues != y.residues ||
            !same_bits(x.dc_gain, y.dc_gain) || !same_bits(x.delay, y.delay))
          return false;
      }
    return true;
  };
  EXPECT_TRUE(same_models(shielded, repbus::build_stage_models(spec, 4)));
  spec.shield_every = 0;
  EXPECT_TRUE(same_models(shared, repbus::build_stage_models(spec, 4)));
  spec.size = 32.0;
  EXPECT_TRUE(same_models(seeded, repbus::build_stage_models(spec, 4)));
}

// ---------------------------------------------------------------------------
// Delay-only walks
// ---------------------------------------------------------------------------

// A delay-only walk (want_noise = false) skips the victim's extremum scans
// and nothing else: every crossing, fire time and glitch field keeps the
// bits of the full walk, and the unmeasured noise reads NaN.
::testing::AssertionResult same_walk(const repbus::ComposedChainMetrics& full,
                                     const repbus::ComposedChainMetrics& delay) {
  const bool same_delay =
      full.victim_delay_50.has_value() == delay.victim_delay_50.has_value() &&
      (!full.victim_delay_50 ||
       same_bits(*full.victim_delay_50, *delay.victim_delay_50));
  const bool same_fire_times =
      full.victim_fire_times.size() == delay.victim_fire_times.size() &&
      std::equal(full.victim_fire_times.begin(), full.victim_fire_times.end(),
                 delay.victim_fire_times.begin(),
                 [](double a, double b) { return same_bits(a, b); });
  if (!same_delay) return ::testing::AssertionFailure() << "victim_delay_50";
  if (!same_fire_times) return ::testing::AssertionFailure() << "fire times";
  if (full.glitch_fired != delay.glitch_fired ||
      full.glitch_depth != delay.glitch_depth ||
      full.glitch_boundaries != delay.glitch_boundaries)
    return ::testing::AssertionFailure() << "glitch fields";
  if (!std::isnan(delay.peak_noise) || std::isnan(full.peak_noise))
    return ::testing::AssertionFailure()
           << "peak_noise " << full.peak_noise << " / " << delay.peak_noise;
  return ::testing::AssertionSuccess();
}

TEST(ComposeDelayOnly, MatchesFullWalkBits) {
  const core::SwitchingPattern patterns[] = {
      core::SwitchingPattern::kSamePhase, core::SwitchingPattern::kOppositePhase,
      core::SwitchingPattern::kQuietVictim};
  for (repbus::Placement placement :
       {repbus::Placement::kUniform, repbus::Placement::kStaggered,
        repbus::Placement::kInterleaved})
    for (int shield_every : {0, 2}) {
      auto spec = spec_for(5, placement);
      spec.shield_every = shield_every;
      const repbus::StageModels models = repbus::build_stage_models(spec, 4);
      for (core::SwitchingPattern pattern : patterns)
        EXPECT_TRUE(same_walk(repbus::compose_bus_chain(spec, pattern, models),
                              repbus::compose_bus_chain(spec, pattern, models,
                                                        /*want_noise=*/false)))
            << repbus::placement_name(placement) << " shield " << shield_every
            << " " << core::switching_pattern_name(pattern);
    }
  // A quiet bus whose armed repeaters fire on coupled noise (the glitch
  // propagation case below): the glitch walk is a delay-only path too.
  repbus::RepeaterBusSpec glitching;
  glitching.bus = tline::make_bus(5, kLine, 3.0, 0.45);
  glitching.sections = 4;
  glitching.size = 16.0;
  glitching.buffer = kBuf;
  glitching.segments_per_section = 10;
  glitching.buffer_rise = 1e-12;
  const repbus::StageModels models = repbus::build_stage_models(glitching, 4);
  for (core::SwitchingPattern pattern : patterns) {
    const repbus::ComposedChainMetrics full =
        repbus::compose_bus_chain(glitching, pattern, models);
    if (pattern == core::SwitchingPattern::kQuietVictim)
      EXPECT_TRUE(full.glitch_fired);
    EXPECT_TRUE(same_walk(full, repbus::compose_bus_chain(glitching, pattern,
                                                          models, false)))
        << "glitching bus " << core::switching_pattern_name(pattern);
  }
}

// ---------------------------------------------------------------------------
// Sweep-engine wiring
// ---------------------------------------------------------------------------

TEST(RepbusSweep, StaggerModeAxisAndAnalyses) {
  sweep::SweepSpec spec;
  spec.base.system = {100.0, kLine, 50e-15};
  spec.base.buffer = kBuf;
  spec.base.design = {32.0, 4.0};
  spec.base.xtalk.bus_lines = 3;
  spec.base.xtalk.cc_ratio = 0.4;
  spec.base.xtalk.lm_ratio = 0.25;
  spec.base.xtalk.pattern = core::SwitchingPattern::kOppositePhase;
  spec.axes = {sweep::values(sweep::Variable::kStaggerMode, {0.0, 1.0, 2.0})};

  sweep::EngineOptions options;
  options.segments = 12;
  const sweep::SweepEngine engine(options);
  const sweep::SweepResult delays =
      engine.run(spec, sweep::Analysis::kBusRepeaterDelay);
  const sweep::SweepResult noises =
      engine.run(spec, sweep::Analysis::kBusRepeaterNoise);
  ASSERT_EQ(delays.values.size(), 3u);
  for (double v : delays.values) EXPECT_TRUE(std::isfinite(v) && v > 0.0);
  for (double v : noises.values) EXPECT_TRUE(std::isfinite(v) && v >= 0.0);
  // Composed values match direct compose_bus_chain calls.
  repbus::RepeaterBusSpec direct;
  direct.bus = tline::make_bus(3, kLine, 0.4, 0.25);
  direct.sections = 4;
  direct.size = 32.0;
  direct.buffer = kBuf;
  direct.segments_per_section = 12;
  const auto composed = repbus::compose_bus_chain(
      direct, core::SwitchingPattern::kOppositePhase, 4);
  EXPECT_DOUBLE_EQ(delays.values[0], *composed.victim_delay_50);
  // Bad axis values are rejected up front...
  spec.axes = {sweep::values(sweep::Variable::kStaggerMode, {3.0})};
  EXPECT_THROW(engine.run(spec, sweep::Analysis::kBusRepeaterDelay),
               std::invalid_argument);
  // ... and so is a bad BASE-scenario stagger_mode (no silent kUniform).
  spec.axes.clear();
  spec.base.xtalk.stagger_mode = 3;
  EXPECT_THROW(engine.run(spec, sweep::Analysis::kBusRepeaterDelay),
               std::invalid_argument);
  // Mismatched prebuilt models are rejected, not mis-composed.
  const auto models = repbus::build_stage_models(direct, 4);
  repbus::RepeaterBusSpec other = direct;
  other.sections = 8;
  EXPECT_THROW(
      repbus::compose_bus_chain(other, core::SwitchingPattern::kSamePhase, models),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Glitch propagation on a quiet line (regression: silently missing firings)
// ---------------------------------------------------------------------------

// A quiet line's armed repeaters CAN fire on coupled noise alone — and when
// they do, the reported "noise" is a full-rail glitched net, not a bump. The
// pre-fix chains evaluated this correctly but REPORTED nothing: the metrics
// carried only peak_noise, so a fired quiet-line repeater was
// indistinguishable from a benign excursion. These pin the recording.
TEST(GlitchPropagation, QuietArmedBuffersFireOnCoupledNoise) {
  // Strong coupling (Cc/Ct = 3.0, Lm/Lt = 0.45 — a dense minimum-pitch bus),
  // sharp repeater edges, moderate sizing: the victim's section noise lands
  // above vdd/2 at every interior boundary, so the quiet-armed repeaters
  // fire and regenerate the glitch down the whole chain.
  repbus::RepeaterBusSpec spec;
  spec.bus = tline::make_bus(5, kLine, /*cc_ratio=*/3.0, /*lm_ratio=*/0.45);
  spec.sections = 4;
  spec.size = 16.0;
  spec.buffer = kBuf;
  spec.segments_per_section = 10;
  spec.buffer_rise = 1e-12;

  const repbus::ChainMetrics mna =
      repbus::simulate_bus_chain(spec, core::SwitchingPattern::kQuietVictim);
  EXPECT_TRUE(mna.glitch_fired);
  EXPECT_EQ(mna.glitch_depth, 3);
  EXPECT_EQ(mna.glitch_boundaries, (std::vector<int>{1, 2, 3}));
  // A fired chain means the receiver sees (essentially) the full rail.
  EXPECT_GT(mna.peak_noise, 0.9);

  const repbus::ComposedChainMetrics composed =
      repbus::compose_bus_chain(spec, core::SwitchingPattern::kQuietVictim, 4);
  EXPECT_EQ(composed.glitch_fired, mna.glitch_fired);
  EXPECT_EQ(composed.glitch_depth, mna.glitch_depth);
  EXPECT_EQ(composed.glitch_boundaries, mna.glitch_boundaries);
  EXPECT_GT(composed.peak_noise, 0.9);
}

TEST(GlitchPropagation, BenignCouplingReportsNoGlitch) {
  // The standard Cc/Ct = 0.4 bus: quiet-victim noise stays well below the
  // repeater threshold, and BOTH paths must say so.
  const auto spec = spec_for(5, repbus::Placement::kUniform);
  const repbus::ChainMetrics mna =
      repbus::simulate_bus_chain(spec, core::SwitchingPattern::kQuietVictim);
  EXPECT_FALSE(mna.glitch_fired);
  EXPECT_EQ(mna.glitch_depth, 0);
  EXPECT_TRUE(mna.glitch_boundaries.empty());

  const repbus::ComposedChainMetrics composed =
      repbus::compose_bus_chain(spec, core::SwitchingPattern::kQuietVictim, 4);
  EXPECT_FALSE(composed.glitch_fired);
  EXPECT_EQ(composed.glitch_depth, 0);
  EXPECT_TRUE(composed.glitch_boundaries.empty());
}

TEST(RepbusSweep, DeterministicAcrossThreadCounts) {
  sweep::SweepSpec spec;
  spec.base.system = {100.0, kLine, 50e-15};
  spec.base.buffer = kBuf;
  spec.base.design = {32.0, 3.0};
  spec.base.xtalk.bus_lines = 3;
  spec.base.xtalk.pattern = core::SwitchingPattern::kOppositePhase;
  spec.axes = {
      sweep::linspace(sweep::Variable::kCouplingCapRatio, 0.1, 0.5, 3),
      sweep::linspace(sweep::Variable::kMutualRatio, 0.05, 0.25, 2),
      sweep::values(sweep::Variable::kStaggerMode, {0.0, 2.0}),
  };
  std::vector<double> reference;
  for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    sweep::EngineOptions options;
    options.threads = threads;
    options.segments = 10;
    const sweep::SweepEngine engine(options);
    const auto result = engine.run(spec, sweep::Analysis::kBusRepeaterDelay);
    if (reference.empty())
      reference = result.values;
    else
      EXPECT_EQ(result.values, reference);
  }
}

}  // namespace
