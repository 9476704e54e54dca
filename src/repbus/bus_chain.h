// Repeater insertion on a coupled bus — the full cascaded-MNA reference.
//
// The paper sizes repeaters (h, k) for an ISOLATED RLC line; on a real bus
// every repeater stage is an N-line coupled section and the classic
// countermeasures against crosstalk are PLACEMENT, not just sizing:
//
//   * kUniform     — every line's repeaters at the same positions j*L/k
//                    (the paper's Fig. 3 replicated N times). Worst case:
//                    all stages switch simultaneously, opposite-phase Miller
//                    coupling compounds over every stage.
//   * kStaggered   — alternate lines shift their repeater positions by HALF
//                    a stage (half-length first section, 1.5-length last,
//                    SAME driver count — equal area by construction), so an
//                    aggressor span adjacent to a victim stage straddles two
//                    aggressor stages and its switching edges are smeared in
//                    time: the simultaneous Miller edge-overlap peak never
//                    forms. Cuts quiet-victim noise ~15-20% and, with
//                    realistic (wire-loaded) repeater edges, the opposite-
//                    phase worst-case delay a few percent.
//   * kInterleaved — alternate lines use INVERTING repeaters at uniform
//                    positions, so the relative switching phase of adjacent
//                    lines alternates per stage: every pattern sees ~half
//                    fast (same-phase) and half slow (opposite-phase)
//                    stages, which averages the Miller effect and collapses
//                    the worst-case/best-case delay spread.
//
// build_bus_chain() stamps the whole chain as ONE circuit: a global
// S = k * segments_per_section ladder grid per line, coupling (Cc/S caps and
// per-segment mutuals) between corresponding grid nodes of coupled pairs,
// and sim::Buffer repeaters (paper-style h-scaled R0/C0, finite output edge)
// cutting each line at its placement's boundaries. Shield lines
// (shield_every, victim-anchored as in core::CrosstalkOptions) run
// continuous and unbroken, grounded through r0/h at both ends and stitched
// at every uniform stage boundary. The transient of this circuit is the
// golden reference the stage-composed reduced model (stage_compose.h) is
// cross-validated against.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/crosstalk.h"
#include "core/repeater.h"
#include "sim/circuit.h"
#include "sim/transient.h"
#include "tline/coupled_bus.h"

namespace rlcsim::repbus {

enum class Placement {
  kUniform,
  kStaggered,
  kInterleaved,
};
const char* placement_name(Placement placement);

// A repeatered coupled bus: the bus carries the WHOLE line's totals; every
// signal line is cut into `sections` stages driven by h-sized buffers.
struct RepeaterBusSpec {
  tline::CoupledBus bus;            // full-length totals, N lines
  int sections = 1;                 // k — repeater stages per line
  double size = 1.0;                // h — relative repeater size
  core::MinBuffer buffer;           // r0, c0, area of the minimum repeater
  Placement placement = Placement::kUniform;
  int segments_per_section = 20;    // ladder cells per stage (even if staggered)
  double vdd = 1.0;
  double source_rise = 0.0;         // external input edge duration, s
  // Repeater output edge duration; < 0 picks the auto default
  // 2.2 * (r0/h) * (Ct/k + h*c0) — the 10-90 edge of the repeater driving
  // its own stage load, wire section included (see resolved_buffer_rise).
  // Used identically by the MNA buffers and the stage-composed analytic
  // drive, so the two paths share edge semantics exactly.
  double buffer_rise = -1.0;
  int shield_every = 0;             // victim-anchored shields (no repeaters)
};

// The resolved buffer output edge (spec.buffer_rise, or the auto default).
double resolved_buffer_rise(const RepeaterBusSpec& spec);

// Throws std::invalid_argument (naming the field) for invalid specs:
// bus/buffer validation, sections >= 1 (>= 2 for kStaggered), size > 0,
// even segments_per_section under kStaggered (half-stage boundaries must
// land on the segment grid), vdd > 0, finite nonnegative edges.
void validate(const RepeaterBusSpec& spec);

// True iff `line` is one of the alternate (staggered/inverting) lines: odd
// distance from the victim, so the victim itself is never displaced.
bool is_alternate_line(int line, int victim);

// Pre-/post-transition levels of a line's EXTERNAL input under a drive —
// the DC walk both the chain builder and the stage composer start from.
struct DriveLevels {
  double pre = 0.0;
  double post = 0.0;
};
DriveLevels drive_levels(sim::BusDrive drive, double vdd);

// Repeater count of one line: 0 for shields, k otherwise (the stage-1
// driver is itself an h-sized repeater; staggered lines shift positions but
// keep the count, so placements compare at equal area by construction).
int repeaters_on_line(const RepeaterBusSpec& spec, int line);

// Total repeater area, sum over lines of repeaters * h * A_min — the
// equal-area axis of every placement comparison.
double repeater_area(const RepeaterBusSpec& spec);

// Per-repeater bookkeeping, aligned with circuit.buffers() (same order):
// which line and interior stage boundary each repeater cuts, and whether it
// is quiet-armed — its wire never switches, so the buffer waits toward the
// opposite rail and coupled noise past threshold fires it (the glitch-
// propagation hazard).
struct ChainBufferInfo {
  int line = 0;
  int boundary = 0;  // 1-based interior boundary index (= stage it starts)
  bool quiet_armed = false;
};

// The chain circuit plus the bookkeeping needed to measure it.
struct BusChainCircuit {
  sim::Circuit circuit;
  std::vector<std::string> receiver_nodes;  // far-end node per line
  // Far-end signal polarity per line: +1 = the external transition arrives
  // upright, -1 = inverted (odd number of inverting repeaters on the line).
  std::vector<int> far_polarity;
  std::vector<ChainBufferInfo> buffer_info;
  int victim = 0;
};

// Builds the full cascaded chain under `pattern` (quiet/rising/falling per
// line via core::pattern_drives — the exact drive table the crosstalk
// analyses use).
BusChainCircuit build_bus_chain(const RepeaterBusSpec& spec,
                                core::SwitchingPattern pattern);

// Victim metrics of one full transient of the chain (the golden reference).
struct ChainMetrics {
  // First 50% crossing of the victim's receiver; absent for kQuietVictim.
  std::optional<double> victim_delay_50;
  // Victim receiver excursion outside its drive envelope, volts.
  double peak_noise = 0.0;
  // Glitch propagation: a quiet-armed repeater fired on coupled noise past
  // threshold. Once one fires it drives a FULL SWING downstream, so the
  // victim's receiver numbers describe a glitched net, not a quiet one —
  // which is why this is reported instead of silently folded into
  // peak_noise. `glitch_boundaries` lists the fired quiet-armed boundaries
  // (1-based stage indices, sorted) on the deepest-propagating line;
  // `glitch_depth` is their count — how many stages the glitch traversed.
  bool glitch_fired = false;
  int glitch_depth = 0;
  std::vector<int> glitch_boundaries;
};

// Simulates the chain and probes the victim receiver (50% crossing, min/max).
// t_stop/dt = 0 pick automatic values (a per-section Elmore/time-of-flight
// bound times k, auto-extended until a switching victim crosses). `reuse`
// shares sparse symbolic factorizations across structurally equal chains.
ChainMetrics simulate_bus_chain(const RepeaterBusSpec& spec,
                                core::SwitchingPattern pattern,
                                double t_stop = 0.0, double dt = 0.0,
                                sim::SolverReuse* reuse = nullptr);

}  // namespace rlcsim::repbus
