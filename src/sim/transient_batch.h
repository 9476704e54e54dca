// Crossing-stopped transient stepping: the delay-only entry points.
//
// The paper's delay (eq. 9) is the first 50% crossing of the far-end
// response, so a delay measurement needs neither the waveform nor the
// horizon after that crossing. Both entry points here run the transient
// engine (sim/transient.cpp) through one crossing recorder: per lane it
// keeps only the last sample of the node the caller asked about, carries a
// "crossed" flag set by exactly numeric::find_crossing's rising test
// (prev - level < 0 && v - level >= 0), interpolates the crossing with
// find_crossing over the two samples that set it, and stops stepping after
// the sample at which the last flag is set. A lane that never crosses keeps
// the run going to t_stop.
//
//   first_crossing         one circuit (W = 1) with scalar bookkeeping: it
//                          may seed an empty SolverReuse and accepts
//                          buffered circuits. It serves every sweep point
//                          that does not batch (the seeded reference point,
//                          lanes = 1 and per-scenario-horizon sweeps, short
//                          remainders), every switching-victim
//                          crosstalk delay and push-out point
//                          (core::analyze_crosstalk_delay) and the
//                          delay-only helpers simulate_gate_line_delay and
//                          simulate_repeater_chain_delay.
//   run_batched_crossings  W = 1/4/8 buffer-free circuits of one topology on
//                          one shared time grid. Per step it assembles W
//                          right-hand sides and performs ONE batched numeric
//                          refactor/solve over the recorded symbolic
//                          factorization (numeric::SparseLuBatch, lane-major
//                          SoA values the autovectorizer turns into SIMD).
//                          The sweep engine tiles its points in eq. 9 delay
//                          order, so the lanes of one tile tend to finish
//                          together.
//
// Bit-identity contract: both return run_until_crossing(...).crossing bit
// for bit. The engine's kernels perform each lane's arithmetic in the
// scalar order (see numeric/sparse_batch.h for the solves and MnaAssembler::
// stamp_values_into for the matrices), so a lane's numbers do not depend on
// the lane width; stopping early leaves every earlier sample unchanged,
// since a run's step grid up to a sample never depends on what follows it.
// A circuit that does not cross within t_stop continues with
// run_until_crossing's auto-extend attempts, each on the recorder (a batch
// lane starts at attempt 1: the shared window was attempt 0).
//
// run_until_crossing and run_transient stay full-waveform: callers that read
// the trace after the crossing (peak noise, overshoot) or the step counts
// use them.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/circuit.h"
#include "sim/transient.h"

namespace rlcsim::sim {

// First rising crossing of `level` at `node`: the value and the exceptions
// of run_until_crossing(circuit, node, level, options, context).crossing,
// with the same auto-extend policy, but every attempt stops at the crossing
// and records no waveform. Throws std::invalid_argument for bad options,
// std::out_of_range for a node the circuit lacks (or ground), and
// std::runtime_error if it never crosses.
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
