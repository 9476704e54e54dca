#include "graph/timing_graph.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "mor/response.h"
#include "numeric/fp_env.h"
#include "obs/obs.h"
#include "runtime/thread_pool.h"
#include "sim/mna.h"

namespace rlcsim::graph {

StageModel reduce_stage(const sim::Circuit& circuit,
                        const std::vector<std::string>& outputs, int order,
                        double max_delay, mor::ConductanceReuse* reuse) {
  OBS_SPAN("graph.reduce_stage");
  OBS_COUNTER_ADD("graph.stage_reductions", 1);
  if (order < 1)
    throw std::invalid_argument("reduce_stage: order must be >= 1");
  if (outputs.empty())
    throw std::invalid_argument("reduce_stage: at least one output required");
  if (circuit.voltage_sources().size() != 1 ||
      !circuit.current_sources().empty() || !circuit.buffers().empty())
    throw std::invalid_argument(
        "reduce_stage: the stage circuit must contain exactly one voltage "
        "source (the driver) and no other sources or buffers");

  const sim::MnaAssembler mna(circuit);
  const mor::LinearSystem linear = mor::make_linear_system(mna, outputs);
  const mor::MomentGenerator generator(linear, reuse);

  StageModel model;
  model.outputs = outputs;
  model.transfer.reserve(outputs.size());
  model.dc.reserve(outputs.size());
  // One Krylov sequence from the single driver serves every output.
  const std::vector<std::vector<double>> rows =
      generator.transfer_moments(linear.outputs, linear.inputs[0], 2 * order);
  for (const std::vector<double>& moments : rows) {
    model.dc.push_back(moments[0]);
    model.transfer.push_back(mor::reduce_transfer(moments, order, max_delay));
  }
  return model;
}

int TimingGraph::add_stage(StageNode node) {
  if (node.model.transfer.empty() ||
      node.model.transfer.size() != node.model.dc.size())
    throw std::invalid_argument(
        "TimingGraph: stage model needs matching, non-empty transfer and dc "
        "tables");
  if (node.pre == node.post)
    throw std::invalid_argument(
        "TimingGraph: a stage driver must transition (pre != post)");
  if (!(node.ramp >= 0.0) || !std::isfinite(node.ramp))
    throw std::invalid_argument("TimingGraph: ramp must be finite and >= 0");
  // DAG by construction: a fanin may only name an ALREADY-ADDED node, so a
  // cycle (including a self-edge) cannot be expressed at all.
  if (node.fanin.node < -1 ||
      node.fanin.node >= static_cast<int>(nodes_.size()))
    throw std::invalid_argument(
        "TimingGraph: fanin must reference an already-added node (or -1 for "
        "the primary input)");
  if (node.fanin.node >= 0) {
    const int outputs = static_cast<int>(
        nodes_[static_cast<std::size_t>(node.fanin.node)]
            .model.transfer.size());
    if (node.fanin.output < 0 || node.fanin.output >= outputs)
      throw std::invalid_argument(
          "TimingGraph: fanin output out of range for node " +
          std::to_string(node.fanin.node));
  } else if (node.fanin.output != 0) {
    throw std::invalid_argument(
        "TimingGraph: the primary input has a single output (0)");
  }
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

GraphResult TimingGraph::evaluate(std::size_t threads) const {
  OBS_SPAN("graph.evaluate");
  OBS_COUNTER_ADD("graph.evaluations", 1);
  const numeric::fp_env_guard fp_guard("graph::TimingGraph::evaluate");
  const std::size_t n = nodes_.size();
  OBS_COUNTER_ADD("graph.nodes_evaluated", n);
  GraphResult out;
  out.nodes.resize(n);

  // Topological levelization: level = 1 + level(fanin). Fanins always
  // precede their nodes (DAG by construction), so one forward pass settles
  // every level.
  std::vector<std::size_t> level(n, 0);
  std::size_t max_level = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const int fanin = nodes_[k].fanin.node;
    level[k] = fanin < 0 ? 0 : level[static_cast<std::size_t>(fanin)] + 1;
    max_level = std::max(max_level, level[k]);
  }
  std::vector<std::vector<std::size_t>> buckets(n == 0 ? 0 : max_level + 1);
  for (std::size_t k = 0; k < n; ++k) buckets[level[k]].push_back(k);
  out.levels = buckets.size();

  runtime::ThreadPool pool(threads);
  out.threads_used = pool.size();

  for (std::size_t lvl = 0; lvl < buckets.size(); ++lvl) {
    const std::vector<std::size_t>& bucket = buckets[lvl];
    // One level at a time; within a level every node writes ONLY its own
    // slot (out.nodes[k]) and reads only completed levels — the
    // determinism contract needs nothing further.
    OBS_SPAN("graph.level", static_cast<long>(lvl));
    pool.parallel_for(bucket.size(), [&](std::size_t b, std::size_t) {
      const std::size_t k = bucket[b];
      const StageNode& node = nodes_[k];
      const double t_fire =
          node.fanin.node < 0
              ? 0.0
              : out.nodes[static_cast<std::size_t>(node.fanin.node)]
                    .arrival[static_cast<std::size_t>(node.fanin.output)];
      NodeMetrics& metrics = out.nodes[k];
      const std::size_t outputs = node.model.transfer.size();
      metrics.arrival.resize(outputs);
      metrics.slew.resize(outputs);
      const double delta = node.post - node.pre;
      for (std::size_t s = 0; s < outputs; ++s) {
        mor::AnalyticResponse response(node.pre * node.model.dc[s]);
        if (node.ramp > 0.0)
          response.add_ramp(node.model.transfer[s], delta, node.ramp, t_fire);
        else
          response.add_step(node.model.transfer[s], delta, t_fire);
        const double lo = node.pre * node.model.dc[s];
        const double hi = response.final_value();
        const mor::ResponseMetrics measured =
            response.measure(lo, hi, /*want_rise=*/true);
        if (!measured.delay_50)
          throw std::runtime_error(
              "TimingGraph: node " + std::to_string(k) + " output " +
              node.model.outputs[s] +
              " never crossed 50% within the (auto-extended) window");
        metrics.arrival[s] = *measured.delay_50;
        metrics.slew[s] = measured.rise_10_90;
        metrics.peak_noise = std::max(metrics.peak_noise, measured.peak_noise);
      }
    });
  }
  return out;
}

}  // namespace rlcsim::graph
