// Crosstalk-aware repeater optimization on a coupled bus.
//
// The paper's eq. 14/15 optimum sizes (h, k) for the ISOLATED line; on a bus
// the objective that matters is the WORST-CASE delay over switching patterns
// (opposite-phase Miller coupling), subject to a peak-noise cap on a quiet
// victim — and placement (uniform / staggered / interleaved, shield
// insertion) is a design axis alongside sizing. optimize_bus_repeaters()
// scans that grid with the stage-composed reduced model (stage_compose.h) as
// the inner loop: the stage models depend on (k, shield layout, h) but not
// on placement, so there is one reduced stage-model build per (k, shield,
// h) — shared by that size's placements — and three closed-form
// composition walks per candidate. The whole frontier evaluates in the time
// a handful of cascaded transients would take.
//
// Parallelism rides the sweep engine's pool with the same determinism
// contract as every sweep: the first model of each distinct stage TOPOLOGY
// (sections, shield layout) is built serially to record its symbolic G
// factorization (mor::ConductanceReuse), every other model copies its
// group's record — results are bit-identical at any thread count, and equal
// to building every candidate's models separately that way.
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "core/repeater.h"
#include "repbus/stage_compose.h"
#include "sweep/sweep.h"
#include "tline/coupled_bus.h"

namespace rlcsim::repbus {

struct OptimizerOptions {
  // Candidate grids; empty picks defaults bracketing the paper's isolated
  // eq. 14/15 optimum ({0.7, 0.85, 1, 1.15, 1.3} x h_opt; k_opt - 1 .. + 1).
  std::vector<double> sizes;
  std::vector<int> sections;
  std::vector<Placement> placements = {Placement::kUniform, Placement::kStaggered,
                                       Placement::kInterleaved};
  std::vector<int> shield_options = {0};  // shield_every candidates
  // Peak quiet-victim noise cap, volts (infinity = unconstrained).
  double noise_cap = std::numeric_limits<double>::infinity();
  int order = 4;  // reduction order of the stage models
  int segments_per_section = 12;
  double vdd = 1.0;
  double source_rise = 0.0;
  double buffer_rise = -1.0;  // < 0 = auto (see RepeaterBusSpec)
};

// One evaluated candidate.
struct BusDesignEval {
  double size = 0.0;  // h
  int sections = 0;   // k
  Placement placement = Placement::kUniform;
  int shield_every = 0;
  double same_phase_delay = 0.0;      // composed victim delay, fast corner
  double opposite_phase_delay = 0.0;  // ... slow corner
  double worst_delay = 0.0;           // max over the two switching corners
  double noise = 0.0;                 // composed quiet-victim peak noise
  double area = 0.0;                  // total repeater area (h * A_min * count)
  bool feasible = false;              // noise <= noise_cap
};

struct BusOptimizationResult {
  std::vector<BusDesignEval> evaluations;  // every candidate, grid order
  // Feasible candidate with the smallest worst-case delay (ties: smaller
  // area); absent when no candidate meets the noise cap.
  std::optional<BusDesignEval> best;
  // The (worst_delay, area, noise) Pareto frontier over all candidates —
  // reported against the isolated-line reference below, so the cost of
  // crosstalk-awareness is explicit.
  std::vector<BusDesignEval> frontier;
  core::RepeaterDesign isolated_design;  // paper eqs. 14/15 on the victim line
  double isolated_delay = 0.0;           // eq. 19 total delay at that design
  std::size_t threads_used = 0;
};

// Evaluates the candidate grid and returns the frontier. Throws
// std::invalid_argument for empty/invalid grids (a staggered candidate with
// sections < 2 is silently skipped — it has no boundary to offset).
BusOptimizationResult optimize_bus_repeaters(const tline::CoupledBus& bus,
                                             const core::MinBuffer& buffer,
                                             const OptimizerOptions& options,
                                             const sweep::SweepEngine& engine);

}  // namespace rlcsim::repbus
