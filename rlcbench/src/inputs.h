// Seeded inputs of the four benchmark workloads.
//
// The seed draws VALUES only, never topology: grid sizes, segment counts,
// bus widths and tree depth are fixed, so every seed exercises the same
// code paths (one symbolic factorization per matrix kind per sweep) and the
// same amount of work. Grid axes are stratified: axis value i is drawn
// uniformly (in log space on logarithmic axes) inside a narrow band around
// the centre of the i-th of n equal cells, so a seed moves every point a
// little but the grid keeps covering its whole range. The library sees only
// the generated values.
#pragma once

#include <cstdint>
#include <vector>

#include "core/repeater.h"
#include "graph/h_tree.h"
#include "repbus/optimize.h"
#include "sweep/sweep.h"
#include "tline/coupled_bus.h"

namespace rlcbench {

inline constexpr std::uint64_t kDefaultSeed = 20260101;

// splitmix64: small, portable, and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() {  // [0, 1)
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

 private:
  std::uint64_t state_;
};

// table1_transient: the paper's Table 1 line (Rt = 500 ohm, Ct = 1 pF) over
// an (Rtr, CL, Lt) grid, 25 ladder segments, one shared t_stop.
struct Table1Inputs {
  rlcsim::sweep::SweepSpec spec;
  rlcsim::sweep::EngineOptions options;  // threads = 1, t_stop shared
};
Table1Inputs table1_inputs(std::uint64_t seed);

// xtalk_small_transient: 3-line coupled bus at 6 segments per line
// (63 unknowns), pattern x Cc/Ct x Rtr grid.
struct XtalkInputs {
  rlcsim::sweep::SweepSpec spec;
  rlcsim::sweep::EngineOptions options;
};
XtalkInputs xtalk_inputs(std::uint64_t seed);

// clock_tree_graph: 7-level imbalanced H-tree (127 stages).
rlcsim::graph::HTreeSpec clock_tree_inputs(std::uint64_t seed);

// bus_repeater_opt: the 5-line repbus_frontier bus.
struct BusInputs {
  rlcsim::tline::CoupledBus bus;
  rlcsim::core::MinBuffer buffer;
  rlcsim::repbus::OptimizerOptions options;  // default 45-candidate grid
};
BusInputs bus_inputs(std::uint64_t seed);

}  // namespace rlcbench
