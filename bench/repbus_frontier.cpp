// Repeater-bus frontier: stage-composed reduced chains vs the cascaded-MNA
// reference, and the crosstalk-aware (h, k, placement) optimizer. Emits one
// JSON document; the EXIT STATUS is the gate, so CI fails when any of the
// subsystem's three headline claims regresses:
//
//   1. ACCURACY  — stage-composed victim delay within 3% of the full
//      cascaded-MNA chain on the 5-line Table-1-derived bus (Rt = 500 ohm,
//      Lt = 10 nH, Ct = 1 pF line; R0 C0 = 15 ps repeaters), across
//      uniform/staggered/interleaved x same-/opposite-phase.
//   2. SPEEDUP   — the optimizer's inner loop (one stage-model build + three
//      closed-form pattern walks per candidate) is >= 10x faster per
//      candidate than the equivalent three cascaded transients.
//   3. PLACEMENT — staggered placement STRICTLY improves the opposite-phase
//      worst-case MNA delay vs uniform at equal repeater area (the
//      equal-driver-count staggering guarantees equal area by construction),
//      and cuts quiet-victim noise.
//
// Plus the standard determinism contract: the optimizer grid is bit-identical
// at 1 and 3 threads (per-topology symbolic seeding, like every sweep), and
// its shared per-(k, shield, h) stage models give exactly the evaluations of
// a per-candidate model build (optimizer_matches_per_candidate).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "repbus/bus_chain.h"
#include "repbus/optimize.h"
#include "repbus/stage_compose.h"
#include "sweep/sweep.h"

using namespace rlcsim;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool gate(const char* name, double value, double limit, bool* pass) {
  const bool ok = value <= limit;
  if (!ok) *pass = false;
  std::printf("    {\"gate\": \"%s\", \"value\": %.4f, \"limit\": %.4f, "
              "\"pass\": %s}",
              name, value, limit, ok ? "true" : "false");
  return ok;
}

// The per-candidate evaluation path the optimizer's shared models must
// reproduce bit for bit: every candidate builds its own stage models from a
// copy of its (sections, shield) group's record — the group's first
// candidate seeds it — and runs the three pattern walks on them.
bool matches_per_candidate(const tline::CoupledBus& bus,
                           const core::MinBuffer& buffer,
                           const repbus::OptimizerOptions& options,
                           const std::vector<repbus::BusDesignEval>& evals) {
  const auto same = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  std::map<std::pair<int, int>, mor::ConductanceReuse> records;
  for (const repbus::BusDesignEval& eval : evals) {
    repbus::RepeaterBusSpec spec;
    spec.bus = bus;
    spec.sections = eval.sections;
    spec.size = eval.size;
    spec.buffer = buffer;
    spec.placement = eval.placement;
    spec.segments_per_section = options.segments_per_section;
    spec.vdd = options.vdd;
    spec.source_rise = options.source_rise;
    spec.buffer_rise = options.buffer_rise;
    spec.shield_every = eval.shield_every;
    auto [it, seeds] = records.try_emplace({eval.sections, eval.shield_every});
    mor::ConductanceReuse copy = it->second;
    const repbus::StageModels models = repbus::build_stage_models(
        spec, options.order, seeds ? &it->second : &copy);
    const double same_phase =
        *repbus::compose_bus_chain(spec, core::SwitchingPattern::kSamePhase,
                                   models)
             .victim_delay_50;
    const double opposite_phase =
        *repbus::compose_bus_chain(spec, core::SwitchingPattern::kOppositePhase,
                                   models)
             .victim_delay_50;
    const double noise =
        repbus::compose_bus_chain(spec, core::SwitchingPattern::kQuietVictim,
                                  models)
            .peak_noise;
    if (!same(eval.same_phase_delay, same_phase) ||
        !same(eval.opposite_phase_delay, opposite_phase) ||
        !same(eval.worst_delay, std::max(same_phase, opposite_phase)) ||
        !same(eval.noise, noise) ||
        !same(eval.area, repbus::repeater_area(spec)) ||
        eval.feasible != (noise <= options.noise_cap))
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--fast") == 0) fast = true;

  // Table-1-derived bus: the Rt = 500 ohm / Lt = 1e-8 H / Ct = 1 pF cell of
  // the paper's grid, five coupled copies (Cc/Ct = 0.4, Lm/Lt = 0.25), with
  // the R0 C0 = 15 ps repeater technology the repeater suites use.
  const tline::LineParams line{500.0, 1e-8, 1e-12};
  const core::MinBuffer buffer{3000.0, 5e-15, 1.0, 0.0};
  const tline::CoupledBus bus = tline::make_bus(5, line, 0.4, 0.25);
  const core::RepeaterDesign isolated = core::ismail_friedman_rlc(line, buffer);

  repbus::RepeaterBusSpec spec;
  spec.bus = bus;
  spec.sections = 4;
  spec.size = 32.0;
  spec.buffer = buffer;
  spec.segments_per_section = 12;

  bool pass = true;
  std::printf("{\n");
  benchutil::manifest_json_block("repbus_frontier");
  std::printf("  \"bench\": \"repbus_frontier\",\n");
  std::printf("  \"bus\": {\"lines\": %d, \"cc_ratio\": 0.4, \"lm_ratio\": 0.25,"
              " \"sections\": %d, \"size\": %.1f},\n",
              bus.lines, spec.sections, spec.size);
  std::printf("  \"isolated_eq19\": {\"h_opt\": %.2f, \"k_opt\": %.2f, "
              "\"delay_ps\": %.2f},\n",
              isolated.size, isolated.sections,
              core::total_delay(line, buffer, isolated) * 1e12);

  // ------------------------------------------- compose-vs-MNA cross-check
  const repbus::Placement placements[] = {repbus::Placement::kUniform,
                                          repbus::Placement::kStaggered,
                                          repbus::Placement::kInterleaved};
  const core::SwitchingPattern patterns[] = {
      core::SwitchingPattern::kSamePhase, core::SwitchingPattern::kOppositePhase};

  double worst_delay_err = 0.0;
  double mna_seconds = 0.0, composed_seconds = 0.0;
  double uniform_opposite_mna = 0.0, staggered_opposite_mna = 0.0;
  double uniform_noise_mna = 0.0, staggered_noise_mna = 0.0;
  std::printf("  \"placements\": [\n");
  for (std::size_t p = 0; p < 3; ++p) {
    spec.placement = placements[p];
    double t0 = now_seconds();
    const repbus::StageModels models = repbus::build_stage_models(spec, 4);
    composed_seconds += now_seconds() - t0;
    std::printf("    {\"placement\": \"%s\", \"patterns\": [",
                repbus::placement_name(placements[p]));
    for (std::size_t q = 0; q < 2; ++q) {
      t0 = now_seconds();
      const repbus::ChainMetrics mna =
          repbus::simulate_bus_chain(spec, patterns[q]);
      mna_seconds += now_seconds() - t0;
      t0 = now_seconds();
      const repbus::ComposedChainMetrics composed =
          repbus::compose_bus_chain(spec, patterns[q], models);
      composed_seconds += now_seconds() - t0;
      const double err =
          benchutil::pct(*composed.victim_delay_50, *mna.victim_delay_50);
      worst_delay_err = std::max(worst_delay_err, std::fabs(err));
      if (placements[p] == repbus::Placement::kUniform &&
          patterns[q] == core::SwitchingPattern::kOppositePhase)
        uniform_opposite_mna = *mna.victim_delay_50;
      if (placements[p] == repbus::Placement::kStaggered &&
          patterns[q] == core::SwitchingPattern::kOppositePhase)
        staggered_opposite_mna = *mna.victim_delay_50;
      std::printf("{\"pattern\": \"%s\", \"mna_ps\": %.2f, \"composed_ps\": "
                  "%.2f, \"err_pct\": %.3f}%s",
                  core::switching_pattern_name(patterns[q]),
                  *mna.victim_delay_50 * 1e12, *composed.victim_delay_50 * 1e12,
                  err, q == 0 ? ", " : "");
    }
    // Quiet-victim noise: MNA receiver metric (the placement comparison
    // below rides these; the composed model's worst-stage metric is gated
    // in tests, not here).
    double t1 = now_seconds();
    const repbus::ChainMetrics quiet =
        repbus::simulate_bus_chain(spec, core::SwitchingPattern::kQuietVictim);
    mna_seconds += now_seconds() - t1;
    t1 = now_seconds();
    const repbus::ComposedChainMetrics quiet_composed = repbus::compose_bus_chain(
        spec, core::SwitchingPattern::kQuietVictim, models);
    composed_seconds += now_seconds() - t1;
    if (placements[p] == repbus::Placement::kUniform)
      uniform_noise_mna = quiet.peak_noise;
    if (placements[p] == repbus::Placement::kStaggered)
      staggered_noise_mna = quiet.peak_noise;
    // Glitch propagation is part of the quiet-victim record now: a fired
    // quiet-armed repeater means the noise number describes a glitched net.
    std::printf("], \"quiet_noise_mna_v\": %.4f, "
                "\"glitch_fired_mna\": %s, \"glitch_depth_mna\": %d, "
                "\"glitch_fired_composed\": %s, \"glitch_depth_composed\": %d, "
                "\"area\": %.0f}%s\n",
                quiet.peak_noise, quiet.glitch_fired ? "true" : "false",
                quiet.glitch_depth,
                quiet_composed.glitch_fired ? "true" : "false",
                quiet_composed.glitch_depth, repbus::repeater_area(spec),
                p + 1 < 3 ? "," : "");
  }
  std::printf("  ],\n");

  // Per-candidate wall time: 3 MNA patterns vs (models + 3 composed walks),
  // accumulated over the 3 placements above — the optimizer's actual inner
  // loop against the dynamic-simulation alternative.
  const double mna_per_candidate = mna_seconds / 3.0;
  const double composed_per_candidate = composed_seconds / 3.0;
  const double speedup = mna_per_candidate / composed_per_candidate;
  std::printf("  \"inner_loop\": {\"mna_ms_per_candidate\": %.1f, "
              "\"composed_ms_per_candidate\": %.1f, \"speedup\": %.1f},\n",
              1e3 * mna_per_candidate, 1e3 * composed_per_candidate, speedup);

  // ------------------------------------------------------------ optimizer
  repbus::OptimizerOptions optimizer;
  optimizer.segments_per_section = 12;
  if (fast) {
    optimizer.sizes = {24.0, 32.0};
    optimizer.sections = {3, 4};
  }
  std::vector<double> reference_values;
  std::vector<repbus::BusDesignEval> evaluations;  // the 1-thread grid
  bool identical = true;
  std::size_t candidates = 0;
  const char* best_placement = "";
  for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    sweep::EngineOptions engine_options;
    engine_options.threads = threads;
    const sweep::SweepEngine engine(engine_options);
    const repbus::BusOptimizationResult result =
        repbus::optimize_bus_repeaters(bus, buffer, optimizer, engine);
    std::vector<double> values;
    for (const auto& eval : result.evaluations) {
      values.push_back(eval.worst_delay);
      values.push_back(eval.noise);
    }
    if (threads == 1) {
      reference_values = values;
      evaluations = result.evaluations;
      candidates = result.evaluations.size();
      if (result.best)
        best_placement = repbus::placement_name(result.best->placement);
      std::printf("  \"optimizer\": {\"candidates\": %zu, \"frontier\": %zu,\n",
                  result.evaluations.size(), result.frontier.size());
      if (result.best)
        std::printf("    \"best\": {\"h\": %.1f, \"k\": %d, \"placement\": "
                    "\"%s\", \"worst_delay_ps\": %.1f, \"noise_v\": %.4f, "
                    "\"area\": %.0f},\n",
                    result.best->size, result.best->sections,
                    repbus::placement_name(result.best->placement),
                    result.best->worst_delay * 1e12, result.best->noise,
                    result.best->area);
      std::printf("    \"isolated_delay_ps\": %.1f},\n",
                  result.isolated_delay * 1e12);
    } else {
      identical = values == reference_values;  // exact, bit-for-bit
    }
  }
  std::printf("  \"optimizer_determinism\": {\"candidates\": %zu, "
              "\"best_placement\": \"%s\", "
              "\"bit_identical_1_vs_3_threads\": %s},\n",
              candidates, best_placement, identical ? "true" : "false");
  if (!identical) pass = false;

  // ----------------------------------------------------------------- gates
  std::printf("  \"gates\": [\n");
  gate("composed_vs_mna_worst_delay_pct", worst_delay_err, 3.0, &pass);
  std::printf(",\n");
  // Speedup gate framed as a ratio limit so `value <= limit` reads uniformly.
  gate("min_speedup_x", 10.0 / std::max(speedup, 1e-9), 1.0, &pass);
  std::printf(",\n");
  // Staggered must STRICTLY beat uniform on the opposite-phase worst case at
  // equal area (ratio < 1).
  gate("staggered_over_uniform_opposite_delay",
       staggered_opposite_mna / uniform_opposite_mna, 0.999, &pass);
  std::printf(",\n");
  gate("staggered_over_uniform_quiet_noise",
       staggered_noise_mna / uniform_noise_mna, 0.95, &pass);
  std::printf("\n  ],\n");
  benchutil::metrics_json_block();
  // Untimed, and after the metrics snapshot so the counters above describe
  // the optimizer alone: the shared-model grid against per-candidate builds.
  const bool matches_reference =
      matches_per_candidate(bus, buffer, optimizer, evaluations);
  if (!matches_reference) pass = false;
  std::printf("  \"optimizer_matches_per_candidate\": %s,\n",
              matches_reference ? "true" : "false");
  std::printf("  \"pass\": %s\n}\n", pass ? "true" : "false");
  return pass ? 0 : 1;
}
