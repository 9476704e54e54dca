// Reduced-order stage composition of a repeatered coupled bus.
//
// The cascaded chain (bus_chain.h) is piecewise linear between buffer
// firings, and the buffers cut it into k independent N-line coupled
// sections: stage s's waveforms are fully determined by WHEN its drivers
// switch and with what edge. That makes the whole chain composable from ONE
// reduced model of the section topology (mor/):
//
//   1. build_stage_models — AWE-reduce every (line output, line driver)
//      transfer of the aligned N-line section ONCE (a single sparse G
//      factorization via mor::ConductanceReuse; all stages share the
//      topology, so all stages share the models);
//   2. compose_bus_chain — walk the stages: each line's output waveform is
//      the closed-form superposition (mor::AnalyticResponse) of every
//      driver's ramp contribution, started at that driver's ABSOLUTE fire
//      time (the previous stage's measured 50% crossing) with the buffer's
//      output edge as the ramp — the exact semantics of the MNA buffers.
//      The measured crossings become the next stage's fire times; the
//      victim's last-stage crossing is the chain delay, and the worst
//      per-stage excursion is the chain noise. Zero time stepping.
//
// Placement handling mirrors the physical mechanisms:
//   * kInterleaved — drive polarities flip per stage on alternate lines
//     (the models are polarity-independent);
//   * kStaggered — alternate-line repeaters sit half a stage away from the
//     victim's, so the aggressor span adjacent to a victim stage straddles
//     two aggressor stages: its contribution is split into two half-weight
//     drives at t_j -/+ pitch/2 (pitch = the aggressor's measured per-stage
//     delay), reproducing the temporal smearing that defeats the
//     simultaneous Miller peak. This is the one approximation beyond
//     reduction order — the cross-validation tests pin its error against
//     the true shifted-geometry MNA chain.
//
// The composed path is the optimizer's inner loop: one model build per
// (h, k, shield layout), shared by every placement, plus three closed-form
// walks per (h, k, placement) candidate — ~10-100x faster than one cascaded
// transient (bench/repbus_frontier measures it). A walk scans only what its
// caller reads: the same- and opposite-phase walks read the delay alone and
// pass want_noise = false, so only the quiet walk runs the victim's
// extremum scans (one per stage).
#pragma once

#include <optional>
#include <vector>

#include "mor/moments.h"
#include "mor/reduce.h"
#include "repbus/bus_chain.h"

namespace rlcsim::repbus {

// Reduced models of ONE aligned N-line coupled section: transfer[i][j] maps
// driver j's source to line i's stage output (shield lines carry zero
// models — their drivers never move), dc[i][j] the matching DC gains
// (moment 0, pinned exactly).
struct StageModels {
  std::vector<std::vector<mor::PoleResidueModel>> transfer;
  std::vector<std::vector<double>> dc;
  int lines = 0;
  int order = 0;  // requested reduction order q
  // Chain geometry the models were built for: the section parasitics scale
  // with 1/sections and shields zero out rows, so compose_bus_chain rejects
  // a spec whose geometry differs (models from another (k, shield) layout
  // would silently mis-compose).
  int sections = 0;
  int shield_every = 0;
  // Every walk's initial stagger pitch: the victim's unit-step section 50%
  // delay (its section time of flight if that never crosses).
  double pitch_estimate = 0.0;
};

// Builds the section circuit (whole-bus totals scaled by 1/k, the same
// r0/h drivers and h*c0 loads the chain's buffers present) and reduces
// every signal-line pair over one G factorization and one Krylov sequence
// per signal driver. The placement is never read. `reuse` shares the
// symbolic factorization across calls with an identical section topology
// (the optimizer's h-axis, for instance, only changes values).
StageModels build_stage_models(const RepeaterBusSpec& spec, int order,
                               mor::ConductanceReuse* reuse = nullptr);

struct ComposedChainMetrics {
  // Victim 50% crossing at the final receiver; absent for kQuietVictim.
  std::optional<double> victim_delay_50;
  // Worst victim excursion outside its drive envelope across ALL stages —
  // deliberately stricter than the chain transient's receiver-only metric
  // for a switching victim (an interior glitch can fire a repeater; the
  // optimizer's noise cap must see it). For a QUIET victim the per-stage
  // and receiver views agree closely and cross-validate against
  // simulate_bus_chain. NaN when the walk was composed with
  // want_noise = false (never a plausible 0).
  double peak_noise = 0.0;
  // The victim's driver fire times per stage (diagnostics; fire_times[0] is
  // always 0, the external transition).
  std::vector<double> victim_fire_times;
  // Glitch propagation, mirroring ChainMetrics: the quiet victim's stage
  // noise crossed the downstream quiet-armed repeater's threshold, so that
  // buffer fired a full swing toward the opposite rail and every boundary
  // after it followed. `glitch_boundaries` lists the fired boundaries
  // (1-based stage indices, ascending); `glitch_depth` is their count.
  // Once fired, peak_noise and the walk report the GLITCHED net honestly
  // (excursions against the original quiet level) instead of pretending the
  // victim stayed quiet.
  bool glitch_fired = false;
  int glitch_depth = 0;
  std::vector<int> glitch_boundaries;
};

// Composes the chain from prebuilt models (the hot path: the optimizer
// reuses one StageModels across the same-/opposite-/quiet-pattern walks).
// `want_noise` = false skips the victim's per-stage extremum scans for
// callers that read only the delay: peak_noise is then NaN, and the fire
// times, glitch fields and victim_delay_50 keep every bit of a full walk.
// Throws std::invalid_argument on an invalid spec or on models built for a
// different chain geometry (bus width, sections, or shield layout).
ComposedChainMetrics compose_bus_chain(const RepeaterBusSpec& spec,
                                       core::SwitchingPattern pattern,
                                       const StageModels& models,
                                       bool want_noise = true);

// Convenience: build + compose in one call.
ComposedChainMetrics compose_bus_chain(const RepeaterBusSpec& spec,
                                       core::SwitchingPattern pattern,
                                       int order,
                                       mor::ConductanceReuse* reuse = nullptr,
                                       bool want_noise = true);

}  // namespace rlcsim::repbus
