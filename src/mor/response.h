// Closed-form time responses and waveform metrics of pole-residue models.
//
// Once a circuit is reduced to poles and residues (mor/reduce.h), every
// waveform this library measures becomes an explicit exponential sum:
//
//   step:  y(t) = H(0) + sum Re( (r/p) e^{pt} )
//   ramp:  y(t) = (z(t) - z(t - rise)) / rise,
//          z(t) = H(0) t + sum Re( (r/p^2)(e^{pt} - 1) )
//
// so 50% delay, 10-90% rise, overshoot and peak noise are root- and
// peak-finding problems ON A FORMULA — no time stepping, no LU solves, no
// waveform storage. An AnalyticResponse superposes any number of weighted
// contributions (one per switching driver of a bus) plus a DC offset, which
// is exactly how the coupled-bus victim waveform decomposes by linearity.
//
// Crossing searches mirror sim::measure_transient's auto-extend: a scan window
// derived from the model's own time constants, auto-extended x4 up to 4
// attempts, then sub-sample refinement (Brent) — but each probe evaluates
// the closed form directly. The coarse scans step every pole term along the
// uniform grid by a geometric recurrence (one complex multiply per sample)
// and start past the earliest onset; a sample whose recurrence value lies
// within the scan's drift bound of the decision it feeds is re-evaluated
// with value(), so brackets, extremum indices and every result bit equal an
// exact scan's. A crossing window also stops at a settled tail: once the
// walked sample sits strictly on the final value's side of the level and a
// closed-form bound on the remaining pole terms (plus the scan's rounding
// bound) proves every later sample does too, the rest of that window cannot
// bracket the level. Every window still runs, so a never-crossing search
// (a quiet victim's glitch check) costs a few settled prefixes instead of
// 1 + 4 + 16 + 64 horizons of samples. The extremum scan (extrema(), which
// measure() calls after its crossings) stops early on two proofs: settled
// extrema (the running max and min lie strictly outside the same tail bound
// around the final value) and a monotone tail (the slowest pole is real and
// its derivative term outweighs every other term's bound, by more than
// value()'s own rounding over one grid step), after which only the last
// sample can still move one extremum.
#pragma once

#include <complex>
#include <optional>
#include <vector>

#include "mor/moments.h"
#include "mor/reduce.h"
#include "tline/transfer.h"

namespace rlcsim::mor {

// Waveform metrics of one analytic response against its drive envelope
// [drive_lo, drive_hi] (initial -> final drive level). Optional fields are
// absent — never 0 — when the response does not define them.
struct ResponseMetrics {
  std::optional<double> delay_50;    // first crossing of the 50% level, s
  std::optional<double> rise_10_90;  // 10% -> 90% transition time, s
  double overshoot = 0.0;   // peak excursion past the final level / |swing|
  double peak_noise = 0.0;  // excursion outside the drive envelope, volts
  double peak_value = 0.0;  // global max over the measured window
  double min_value = 0.0;   // global min over the measured window
};

// The refined global extrema of one response over its measured window.
struct ResponseExtrema {
  double peak_value = 0.0;  // global max
  double min_value = 0.0;   // global min
  // Excursion outside the envelope [min(a, b), max(a, b)], volts (>= 0):
  // ResponseMetrics::peak_noise against the drive levels a and b.
  double excursion_outside(double level_a, double level_b) const;
};

// A superposition of closed-form step/ramp responses: the victim waveform of
// an N-driver bus is dc_offset + sum_j delta_j * response_j(t).
class AnalyticResponse {
 public:
  explicit AnalyticResponse(double dc_offset = 0.0);

  // Adds `delta` times the unit-step response of `h` (the driver steps by
  // delta volts at t = `start` >= 0 — nonzero onsets are how stage-composed
  // repeater chains superpose drivers that fire at different absolute
  // times; the onset simply adds to the model's transport delay).
  void add_step(const PoleResidueModel& h, double delta, double start = 0.0);
  // Same but the driver ramps linearly over `rise` seconds (> 0) from the
  // onset.
  void add_ramp(const PoleResidueModel& h, double delta, double rise,
                double start = 0.0);

  double value(double t) const;
  // Batched evaluation: out[i] = value(times[i]) for `count` samples,
  // evaluated one pole-loop pass per contribution across a block of lanes
  // (internally chunked to 8). Each lane accumulates dc offset,
  // contributions and pole terms in value()'s order, so per-sample results
  // are bit-identical to value() and this is the exact reference the
  // recurrence scans are tested against.
  void values(const double* times, double* out, std::size_t count) const;
  double final_value() const;

  // Default scan window: the response has settled well within it.
  double suggested_horizon() const;

  // First crossing of `level` at/after t_from in the given direction
  // (+1 rising, -1 falling, 0 either), with the auto-extending window.
  // absent = never crosses (sim::measure_transient throws here; callers
  // choose).
  std::optional<double> first_crossing(double level, int direction = +1,
                                       double t_from = 0.0) const;

  // The global max and min: the exact grid scan's over the default window,
  // refined. The scan may stop before the horizon once a settled-extrema or
  // monotone-tail proof shows no later sample can change them. Callers that
  // need only the peaks (a quiet victim's noise) call this alone.
  ResponseExtrema extrema() const;

  // All metrics against the drive envelope [drive_lo -> drive_hi]
  // (drive_lo = initial drive level, drive_hi = final): the 50% (and 10% /
  // 90%) first_crossing()s, extrema(), and the envelope arithmetic.
  // delay_50/rise are absent when the envelope has no swing (a quiet
  // victim). `want_rise` skips the two 10%/90% crossing scans for callers
  // that only consume delay and peaks (the reduced-crosstalk hot path).
  ResponseMetrics measure(double drive_lo, double drive_hi,
                          bool want_rise = true) const;

 private:
  struct Contribution {
    double delta = 0.0;
    double rise = 0.0;   // 0 = ideal step
    double dc = 0.0;     // model DC gain
    double delay = 0.0;  // transport delay + onset (response is 0 before it)
    // (pole, residue/pole) for steps; (pole, residue/pole^2) for ramps.
    std::vector<std::pair<std::complex<double>, std::complex<double>>> terms;
  };
  double contribution_value(const Contribution& c, double t) const;
  // The coarse scans' recurrence evaluator (response.cpp).
  class Scanner;

  double dc_offset_ = 0.0;
  std::vector<Contribution> contributions_;
  double max_rise_ = 0.0;
  double max_delay_ = 0.0;
  double slowest_tau_ = 0.0;  // max 1/|Re p| over stable poles (0 if none)
  double max_omega_ = 0.0;  // largest |Im p|: sets the scan resolution
};

// Convenience single-line entry point: the analytic counterpart of
// sim::simulate_gate_line_delay. Builds the same N-segment ladder circuit,
// AWE-reduces the source->out transfer to `order` poles, and returns the
// first crossing of `threshold` (x 1 V step). Throws std::runtime_error if
// the reduced response never crosses.
double reduced_gate_delay(const tline::GateLineLoad& system, int segments,
                          int order, double threshold = 0.5,
                          ConductanceReuse* reuse = nullptr);

}  // namespace rlcsim::mor
