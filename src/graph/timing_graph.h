// Timing-graph engine over reduced stage macromodels: an STA-style DAG of
// driver stages composed through 50% fire times.
//
// Topology model: a node is ONE driver stage — a buffer (or the external
// input) driving a reduced macromodel of its interconnect (point-to-point
// ladder or branching sim::WireTree), with one reduced transfer per fanout
// output. An edge is a (node, output) pin: the 50% crossing measured at a
// stage output IS the absolute start time of the fanout stage's driver
// ramp — exactly the fire-time semantics of the MNA chain's switching
// buffers and of repbus::compose_bus_chain's stage walk. Nothing in the
// graph steps time: every node evaluation is a closed-form
// mor::AnalyticResponse superposition, measured once.
//
// Evaluation is topological levelization on the work-stealing thread pool:
// level(n) = 1 + level(fanin), nodes of one level evaluated by one
// parallel_for. Every node writes only its own result slot and reads only
// completed levels, so results are BIT-IDENTICAL at every thread count —
// the contract every subsystem of this repo keeps. Graphs are DAGs by
// construction (a stage may only reference an already-added fanin), so
// cycles are unrepresentable rather than detected.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "mor/moments.h"
#include "mor/reduce.h"
#include "sim/circuit.h"

namespace rlcsim::graph {

// Reduced macromodel of one single-driver stage: one transfer (and its
// exact moment-0 DC gain) per fanout output.
struct StageModel {
  std::vector<mor::PoleResidueModel> transfer;  // per output
  std::vector<double> dc;                       // DC gains (moment 0)
  std::vector<std::string> outputs;             // stage-circuit node names
};

// AWE-reduces `circuit`'s (driver -> outputs) transfers to `order` poles
// over ONE sparse G factorization. The circuit must contain exactly one
// voltage source (the stage driver, input column 0) and no buffers;
// `max_delay` bounds the transport-delay extraction (e.g. the driver->sink
// time of flight). `reuse` shares the symbolic factorization across stages
// with identical topology (an H-tree's levels, for instance).
StageModel reduce_stage(const sim::Circuit& circuit,
                        const std::vector<std::string>& outputs, int order,
                        double max_delay,
                        mor::ConductanceReuse* reuse = nullptr);

// A fire-time source: output `output` of node `node`, or the primary input
// (node = -1, which fires at t = 0).
struct Pin {
  int node = -1;
  int output = 0;
};

// One stage: its reduced model, where its driver's fire time comes
// from, and the driver's transition.
struct StageNode {
  StageModel model;
  Pin fanin;
  double pre = 0.0;   // driver output level before it fires
  double post = 1.0;  // ... after (ramped over `ramp` from the fire time)
  double ramp = 0.0;  // driver edge duration, s (0 = ideal step)
};

// Per-node results: arrival = absolute 50% crossing per output, slew =
// 10-90 transition per output (absent when the response never brackets the
// levels), peak_noise = worst excursion outside the drive envelope.
struct NodeMetrics {
  std::vector<double> arrival;
  std::vector<std::optional<double>> slew;
  double peak_noise = 0.0;
};

struct GraphResult {
  std::vector<NodeMetrics> nodes;
  std::size_t levels = 0;
  std::size_t threads_used = 0;
};

class TimingGraph {
 public:
  // Adds a stage; returns its node id. Throws std::invalid_argument
  // on an empty/mismatched model, a fanin pin referencing a not-yet-added
  // node (the DAG-by-construction rule), or an out-of-range fanin output.
  int add_stage(StageNode node);

  std::size_t node_count() const { return nodes_.size(); }

  // Evaluates the whole graph. `threads` = 0 picks the runtime default
  // (RLCSIM_THREADS honored). Deterministic: bit-identical results at every
  // thread count.
  GraphResult evaluate(std::size_t threads = 0) const;

 private:
  std::vector<StageNode> nodes_;
};

}  // namespace rlcsim::graph
