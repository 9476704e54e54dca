// Probe-measured transients: the entry points of every library caller.
//
// The paper's quantities are a few numbers per node (the eq. 9 delay is the
// first 50% crossing at the load; the repeater and noise analyses read one
// node's peak), so no library caller records a waveform. Both entry points
// run the transient engine (sim/transient.cpp) through one probe recorder:
//
//   crossing probe  the first rising crossing of `level` at a node: the
//                   sample pair that passes numeric::find_crossing's rising
//                   test (prev - level < 0 && v - level >= 0), interpolated
//                   by find_crossing. Equals Trace::crossing(level, 0, +1).
//   extremum probe  a running min and max of a node over every sample.
//                   Equals Trace::min_value / max_value.
//
// Stepping stops after the sample at which the last crossing probe crosses,
// unless an extremum probe is present: then it runs to t_stop. Until every
// crossing probe has crossed, the run is repeated with t_stop * 4 (up to 4
// attempts, the caller's dt policy each time) and then throws
// std::runtime_error naming the node; a run without crossing probes makes
// one attempt. Every reading comes from the last attempt.
//
//   measure_transient      one circuit (W = 1) with scalar bookkeeping: it
//                          may seed an empty SolverReuse and accepts
//                          buffered circuits. first_crossing is its
//                          one-probe case.
//   run_batched_crossings  W = 1/4/8 buffer-free circuits of one topology on
//                          one shared time grid, one crossing probe per
//                          lane, each step ONE batched numeric refactor/
//                          solve over the recorded symbolic factorization
//                          (numeric::SparseLuBatch). A lane that does not
//                          cross in the shared window continues alone from
//                          attempt 1.
//
// Bit-identity contract: every reading equals the same read of
// run_transient's full record on the same attempt. The engine's kernels do
// each lane's arithmetic in the scalar order (numeric/sparse_batch.h,
// MnaAssembler::stamp_values_into), and a run's step grid up to a sample
// never depends on what follows it, so neither the lane width nor stopping
// early changes a bit.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/circuit.h"
#include "sim/transient.h"

namespace rlcsim::sim {

struct CrossingProbe {
  std::string node;
  double level = 0.0;  // V, crossed rising
};

struct Extrema {
  double min = 0.0;  // V
  double max = 0.0;
};

struct TransientMeasurement {
  std::vector<double> crossings;           // per crossing probe, s
  std::vector<Extrema> extrema;            // per extremum node
  std::vector<double> buffer_fire_times;   // +inf where a buffer never fired
  std::size_t steps = 0;                   // steps of the last attempt
};

// Throws std::invalid_argument for bad options, std::out_of_range for a
// probed node the circuit lacks (or ground), and std::runtime_error
// (prefixed with `context`) for a crossing probe that never crosses.
TransientMeasurement measure_transient(const Circuit& circuit,
                                       const std::vector<CrossingProbe>& crossings,
                                       const std::vector<std::string>& extrema,
                                       const TransientOptions& options,
                                       const char* context);

// First rising crossing of `level` at `node`: measure_transient with that
// one crossing probe.
double first_crossing(const Circuit& circuit, const std::string& node, double level,
                      const TransientOptions& options, const char* context);

// First rising crossing of `level` at `node`, per lane, for W = 1/4/8
// circuits stepped as one batch. Requires options.reuse populated with the
// recorded system + DC patterns and symbolic factorizations every lane
// structurally matches (the sweep engine's point-0 seeding provides this).
// Eligibility is checked, not assumed: a batch whose lanes cannot share the
// grid (structural pattern mismatch, buffers, missing recorded symbolics,
// differing breakpoint sets, invalid options, an unknown node) returns
// std::nullopt, and the caller evaluates the points with first_crossing.
// Throws (like first_crossing) only for failures first_crossing would also
// throw for, e.g. a lane that never crosses within the auto-extended
// horizon.
std::optional<std::vector<double>> run_batched_crossings(
    const std::vector<Circuit>& circuits, const std::string& node, double level,
    const TransientOptions& options, const char* context);

}  // namespace rlcsim::sim
