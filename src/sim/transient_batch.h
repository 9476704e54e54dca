// Scenario-batched transient stepping.
//
// The sweep engine's transient hot path runs W topologically identical
// circuits that differ only in element VALUES, on one shared time grid
// (explicit t_stop/dt, no buffers, identical source breakpoints). This
// entry point runs them through the transient engine (sim/transient.cpp) at
// lane width W: per step it assembles W right-hand sides, performs ONE
// batched numeric refactor/solve over the recorded symbolic factorization
// (numeric::SparseLuBatch, lane-major SoA values the autovectorizer turns
// into SIMD), and records only the single node the caller asked about —
// instead of W scalar runs each recording every node.
//
// Crossing stop: each lane carries a "crossed" flag, set by exactly
// numeric::find_crossing's rising test (prev - level < 0 && v - level >= 0),
// and the tile stops stepping after the sample at which the last flag is
// set. The paper's delay (eq. 9) is that first crossing, so the rest of the
// horizon could not change any answer. A lane that never crosses keeps the
// tile running to t_stop. The sweep engine tiles its points in eq. 9 delay
// order, so the lanes of one tile tend to finish together.
//
// Bit-identity contract: a lane's numbers do not depend on the lane width.
// The engine's kernels perform each lane's arithmetic in the scalar order
// (see numeric/sparse_batch.h for the solves and MnaAssembler::
// stamp_values_into for the matrices), and the shared step-size sequence is
// state-independent for buffer-free circuits, so stopping early leaves every
// earlier sample, and every crossing, bit-identical. A lane that does not
// cross within the shared horizon continues with run_until_crossing's
// auto-extend attempts (the failed first window is discarded there too), so
// batched sweep results are memcmp-equal to scalar ones.
//
// Eligibility is checked, not assumed: a batch whose lanes cannot share the
// grid (structural pattern mismatch, buffers, missing recorded symbolics,
// per-scenario horizons, differing breakpoint sets, invalid options)
// returns std::nullopt and the caller runs the points scalar.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/circuit.h"
#include "sim/transient.h"

namespace rlcsim::sim {

// First rising crossing of `level` at `node`, per lane, for W = 1/4/8
// circuits stepped as one batch. Requires options.reuse populated with the
// recorded system + DC patterns and symbolic factorizations every lane
// structurally matches (the sweep engine's point-0 seeding provides this).
// Returns std::nullopt when the batch is ineligible — the caller must then
// evaluate the points through the scalar path; throws (like the scalar
// path) only for failures the scalar path would also throw for, e.g. a lane
// that never crosses within the auto-extended horizon.
std::optional<std::vector<double>> run_batched_crossings(
    const std::vector<Circuit>& circuits, const std::string& node, double level,
    const TransientOptions& options, const char* context);

}  // namespace rlcsim::sim
