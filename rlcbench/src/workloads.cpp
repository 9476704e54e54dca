// The four end-to-end workloads. Each makes one untraced warm-up call whose
// result is the memcmp reference and the input of the accuracy check, then
// times calls of the same public entry point for the run's wall-time
// budget, with blocks of fresh set-up constructions timed between them.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/delay_model.h"
#include "graph/h_tree.h"
#include "inputs.h"
#include "repbus/bus_chain.h"
#include "repbus/optimize.h"
#include "workloads.h"

namespace rlcbench {

using namespace rlcsim;

namespace {

// Timed calls per run never drop below this, whatever the budget.
constexpr std::size_t kMinCalls = 5;

double rel_err_pct(double model, double reference) {
  return 100.0 * std::fabs(model - reference) / std::fabs(reference);
}

std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, value);
  return buf;
}

// Checks every workload makes on its call series.
void series_checks(const CallSeries& series, std::size_t reference_failed,
                   std::vector<Check>& checks) {
  checks.push_back({"repeats_bit_identical", series.bit_identical,
                    "memcmp of every timed call vs the warm-up call"});
  checks.push_back(
      {"failed_frac_zero", series.failed == 0 && reference_failed == 0,
       fmt("%.0f failed items", static_cast<double>(series.failed))});
}

WorkloadResult table1(std::uint64_t seed, double seconds) {
  const Table1Inputs in = table1_inputs(seed);
  WorkloadResult r;
  const sweep::SweepEngine engine(in.options);
  const auto call = [&] {
    return engine.run(in.spec, sweep::Analysis::kTransientDelay);
  };
  const sweep::SweepResult first = call();
  const CallOutcome reference = sweep_outcome(first);
  r.series = repeat_calls(
      seconds, kMinCalls, reference.bytes, in.spec.size(),
      [&] { return sweep_outcome(call()); },
      [&] { const sweep::SweepEngine fresh(in.options); });
  r.peak_rss_mb = peak_rss_mb();  // before the reference adds its own

  // Paper Table 1 claim: eq. (9) against the MNA delay, per point.
  for (std::size_t i = 0; i < in.spec.size(); ++i)
    r.max_err_pct = std::max(
        r.max_err_pct,
        rel_err_pct(core::rlc_delay(in.spec.at(i).system), first.values[i]));

  series_checks(r.series, reference.failed, r.checks);
  r.checks.push_back(
      {"symbolic_factorizations_eq_2", first.symbolic_factorizations == 2,
       fmt("%.0f", static_cast<double>(first.symbolic_factorizations))});
  // No repo gate covers eq. 9 at 25 segments (seeds land near 15%); this
  // bound catches a broken engine, not the paper's "< 5%" at 120 segments.
  r.checks.push_back({"max_err_pct_le_25", r.max_err_pct <= 25.0,
                      fmt("%.3f%%", r.max_err_pct)});
  return r;
}

WorkloadResult xtalk(std::uint64_t seed, double seconds) {
  const XtalkInputs in = xtalk_inputs(seed);
  WorkloadResult r;
  const sweep::SweepEngine engine(in.options);
  const auto call = [&] {
    return engine.run(in.spec, sweep::Analysis::kCrosstalkDelay);
  };
  const sweep::SweepResult first = call();
  const CallOutcome reference = sweep_outcome(first);
  r.series = repeat_calls(
      seconds, kMinCalls, reference.bytes, in.spec.size(),
      [&] { return sweep_outcome(call()); },
      [&] { const sweep::SweepEngine fresh(in.options); });
  r.peak_rss_mb = peak_rss_mb();  // before the reference adds its own

  // Reduced-order analytic victim delay (q = 4) against the MNA delay.
  const sweep::SweepResult reduced =
      engine.run(in.spec, sweep::Analysis::kReducedDelay);
  for (std::size_t i = 0; i < in.spec.size(); ++i)
    r.max_err_pct = std::max(r.max_err_pct,
                             rel_err_pct(reduced.values[i], first.values[i]));

  series_checks(r.series, reference.failed, r.checks);
  // Below 64 unknowns kAuto steps on the dense LU today (0 symbolic
  // factorizations); on the sparse path a sweep records exactly 2.
  r.checks.push_back(
      {"symbolic_factorizations_0_or_2",
       first.symbolic_factorizations == 0 || first.symbolic_factorizations == 2,
       fmt("%.0f", static_cast<double>(first.symbolic_factorizations))});
  r.checks.push_back({"max_err_pct_le_3", r.max_err_pct <= 3.0,
                      fmt("%.4f%%", r.max_err_pct)});
  return r;
}

WorkloadResult clock_tree(std::uint64_t seed, double seconds) {
  const graph::HTreeSpec spec = clock_tree_inputs(seed);
  WorkloadResult r;
  const graph::HTreeGraph tree = graph::build_h_tree(spec);
  const auto call = [&] { return tree.graph.evaluate(1); };
  const graph::GraphResult first = call();
  const CallOutcome reference = graph_outcome(first);
  r.series = repeat_calls(
      seconds, kMinCalls, reference.bytes, tree.graph.node_count(),
      [&] { return graph_outcome(call()); },
      [&] { const graph::HTreeGraph fresh = graph::build_h_tree(spec); });
  r.peak_rss_mb = peak_rss_mb();  // the flat MNA oracle below is far larger

  // Cascaded full-MNA sink arrivals against the benchmark's own graph.
  const graph::HTreeComparison oracle = graph::compare_h_tree(spec, 1);
  for (std::size_t s = 0; s < tree.sinks.size(); ++s) {
    const graph::Pin pin = tree.sinks[s];
    const double arrival = first.nodes[static_cast<std::size_t>(pin.node)]
                               .arrival[static_cast<std::size_t>(pin.output)];
    r.max_err_pct =
        std::max(r.max_err_pct, rel_err_pct(arrival, oracle.mna_arrival[s]));
  }

  series_checks(r.series, reference.failed, r.checks);
  r.checks.push_back({"max_err_pct_le_3", r.max_err_pct <= 3.0,
                      fmt("%.5f%%", r.max_err_pct)});
  return r;
}

WorkloadResult bus(std::uint64_t seed, double seconds) {
  const BusInputs in = bus_inputs(seed);
  sweep::EngineOptions engine_options;
  engine_options.threads = 1;
  WorkloadResult r;
  const sweep::SweepEngine engine(engine_options);
  const auto call = [&] {
    return repbus::optimize_bus_repeaters(in.bus, in.buffer, in.options, engine);
  };
  const auto outcome = [](const repbus::BusOptimizationResult& result) {
    CallOutcome out;
    for (const repbus::BusDesignEval& e : result.evaluations) {
      out.bytes.put(e.size);
      out.bytes.put(static_cast<std::int64_t>(e.sections));
      out.bytes.put(static_cast<std::int64_t>(e.placement));
      out.bytes.put(static_cast<std::int64_t>(e.shield_every));
      out.bytes.put(e.same_phase_delay);
      out.bytes.put(e.opposite_phase_delay);
      out.bytes.put(e.worst_delay);
      out.bytes.put(e.noise);
      out.bytes.put(e.area);
      out.bytes.put(static_cast<std::int64_t>(e.feasible));
      if (!std::isfinite(e.worst_delay) || !std::isfinite(e.noise)) ++out.failed;
    }
    out.items = result.evaluations.size();
    return out;
  };
  const repbus::BusOptimizationResult first = call();
  if (!first.best) throw std::runtime_error("bus_repeater_opt: no best design");
  const CallOutcome reference = outcome(first);
  r.series = repeat_calls(
      seconds, kMinCalls, reference.bytes, first.evaluations.size(),
      [&] { return outcome(call()); },
      [&] { const sweep::SweepEngine fresh(engine_options); });
  r.peak_rss_mb = peak_rss_mb();

  // Cascaded-MNA worst-case victim delay of the best design against its
  // composed worst-case delay.
  const repbus::BusDesignEval& best = *first.best;
  repbus::RepeaterBusSpec chain;
  chain.bus = in.bus;
  chain.sections = best.sections;
  chain.size = best.size;
  chain.buffer = in.buffer;
  chain.placement = best.placement;
  chain.shield_every = best.shield_every;
  chain.segments_per_section = in.options.segments_per_section;
  double mna_worst = 0.0;
  for (const core::SwitchingPattern pattern :
       {core::SwitchingPattern::kSamePhase,
        core::SwitchingPattern::kOppositePhase}) {
    const repbus::ChainMetrics mna = repbus::simulate_bus_chain(chain, pattern);
    if (!mna.victim_delay_50)
      throw std::runtime_error("bus_repeater_opt: MNA victim never crossed");
    mna_worst = std::max(mna_worst, *mna.victim_delay_50);
  }
  r.max_err_pct = rel_err_pct(best.worst_delay, mna_worst);

  series_checks(r.series, reference.failed, r.checks);
  r.checks.push_back({"max_err_pct_le_3", r.max_err_pct <= 3.0,
                      fmt("%.4f%%", r.max_err_pct)});
  return r;
}

}  // namespace

CallOutcome sweep_outcome(const sweep::SweepResult& result) {
  CallOutcome out;
  out.bytes.put(result.values);
  out.items = result.values.size();
  out.failed = static_cast<std::size_t>(std::count_if(
      result.values.begin(), result.values.end(),
      [](double v) { return !std::isfinite(v); }));
  return out;
}

CallOutcome graph_outcome(const graph::GraphResult& result) {
  CallOutcome out;
  for (const graph::NodeMetrics& node : result.nodes) {
    out.bytes.put(node.arrival);
    for (const std::optional<double>& slew : node.slew) {
      out.bytes.put(static_cast<std::int64_t>(slew.has_value()));
      out.bytes.put(slew.value_or(0.0));
    }
    out.bytes.put(node.peak_noise);
    if (!std::all_of(node.arrival.begin(), node.arrival.end(),
                     [](double v) { return std::isfinite(v); }))
      ++out.failed;
  }
  out.items = result.nodes.size();
  return out;
}

WorkloadResult run_workload(const std::string& name, std::uint64_t seed,
                            double seconds) {
  if (name == "table1_transient") return table1(seed, seconds);
  if (name == "xtalk_small_transient") return xtalk(seed, seconds);
  if (name == "clock_tree_graph") return clock_tree(seed, seconds);
  if (name == "bus_repeater_opt") return bus(seed, seconds);
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

double probe_table1_rate(std::uint64_t seed, double seconds) {
  const Table1Inputs in = table1_inputs(seed);
  const sweep::SweepEngine engine(in.options);
  const auto call = [&] {
    return sweep_outcome(engine.run(in.spec, sweep::Analysis::kTransientDelay));
  };
  const CallOutcome reference = call();
  const CallSeries series =
      repeat_calls(seconds, 3, reference.bytes, in.spec.size(), call);
  if (!series.bit_identical || series.failed != 0)
    throw std::runtime_error("probe: table1_transient calls failed");
  return summarize(series.items_per_second).p50;
}

}  // namespace rlcbench
