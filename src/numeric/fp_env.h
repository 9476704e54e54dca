// Floating-point environment guards for the bit-identity contract.
//
// Every memcmp gate in the tree (sweep/graph/batch determinism checks)
// assumes the IEEE-754 default environment: round-to-nearest-even and
// gradual underflow. A library or plugin that flips the rounding mode or
// sets FTZ/DAZ (common in audio/game middleware, and what -ffast-math
// links in via crtfastmath.o) would silently change results while every
// algorithm still "works" — the worst possible failure mode for a
// determinism contract. These guards turn that silent drift into a loud
// error at the entry points of the result-producing subsystems.
//
// Three layers, checked at different times:
//   - configure time: CMakeLists.txt rejects -ffast-math/-ffp-contract=fast
//     flag soup outright;
//   - compile time: static_assert(FLT_EVAL_METHOD == 0) where the batch
//     kernels live (numeric/sparse_batch.cpp, sim/transient.cpp);
//   - run time: fp_env_guard at sweep/graph entry (debug builds).
#pragma once

namespace rlcsim::numeric {

// True iff the current thread's FP environment matches the contract:
// round-to-nearest and no flush-to-zero / denormals-are-zero behavior
// (probed by actually producing and consuming a subnormal, so it catches
// MXCSR bits regardless of how they were set).
bool fp_env_matches_contract();

// Throws std::runtime_error naming `where` when the environment is
// off-contract. Always checks when called, in every build type — callers
// that only want the check in debug builds go through fp_env_guard.
void check_fp_env(const char* where);

// Entry-point guard: checks in debug builds, no-op in release (the probe
// is cheap, but entry points sit on hot paths and the CI sanitizer jobs
// build Debug, so debug-only keeps release overhead at zero while every
// PR still runs the check).
class fp_env_guard {
 public:
  explicit fp_env_guard(const char* where) {
#ifndef NDEBUG
    check_fp_env(where);
#else
    (void)where;
#endif
  }
};

}  // namespace rlcsim::numeric
