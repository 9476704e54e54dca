// The traced run: per-layer metrics measured from outside the library.
//
// Every layer call below sits inside an OBS_SPAN opened HERE, in the
// benchmark's own file, named bench.<layer>.<operation>; the library's own
// spans (sweep.run, transient.run, graph.level, ...) nest under them. The
// Chrome trace is written to the given path and digested by perfkit_report.
// Sub-microsecond operations are timed as loops of N calls on the
// workload's own matrices (median of several loops), never with per-call
// spans. Counts come from public result fields or the obs counters.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "graph/h_tree.h"
#include "inputs.h"
#include "mor/moments.h"
#include "mor/reduce.h"
#include "mor/response.h"
#include "numeric/matrix.h"
#include "numeric/sparse.h"
#include "numeric/sparse_batch.h"
#include "obs/obs.h"
#include "repbus/optimize.h"
#include "repbus/stage_compose.h"
#include "sim/builders.h"
#include "sim/mna.h"
#include "sim/transient.h"
#include "sim/transient_batch.h"
#include "workloads.h"

namespace rlcbench {

using namespace rlcsim;

namespace {

constexpr int kLoops = 7;  // median over this many timed loops

double counter(const char* name) {
  return static_cast<double>(obs::counter_total(name).value_or(0));
}

double median(std::vector<double> samples) {
  return summarize(std::move(samples)).p50;
}

class Suite {
 public:
  LayerReport report;

  void add(const char* name, const char* unit, double value) {
    report.metrics.push_back({name, unit, value, {}});
  }
  // Repeated checks of one name fold into one entry (all must hold).
  void require(const char* name, bool ok, const std::string& detail = "") {
    for (Check& c : report.checks)
      if (c.name == name) {
        c.ok = c.ok && ok;
        return;
      }
    report.checks.push_back({name, ok, detail});
  }
  void count(const CallOutcome& outcome) {
    report.attempted += outcome.items;
    report.failed += outcome.failed;
  }
};

// ----------------------------------------------------------- table1_transient
void table1_layers(std::uint64_t seed, Suite& s,
                   const sweep::SweepResult& untraced) {
  const Table1Inputs in = table1_inputs(seed);
  const double points = static_cast<double>(in.spec.size());
  const CallOutcome reference = sweep_outcome(untraced);

  // Traced sweeps, alternating 1 and 2 threads so a slow phase of the host
  // hits both sides of the speedup alike. Counters are read around each
  // call, so the 1-thread counts and the 2-thread steals stay apart.
  const sweep::SweepEngine engine(in.options);
  sweep::EngineOptions options2 = in.options;
  options2.threads = 2;
  const sweep::SweepEngine engine2(options2);
  constexpr int kCalls = 3;
  std::vector<double> walls, speedups;
  double solves = 0.0, tiles = 0.0, refactors = 0.0, steals = 0.0;
  sweep::SweepResult traced;
  for (int c = 0; c < kCalls; ++c) {
    const double solves0 = counter("lu.solves"), tiles0 = counter("batch.solves"),
                 numeric0 = counter("lu.numeric");
    {
      OBS_SPAN("bench.sweep.transient_delay");
      const double t0 = now_seconds();
      traced = engine.run(in.spec, sweep::Analysis::kTransientDelay);
      walls.push_back(now_seconds() - t0);
    }
    solves += (counter("lu.solves") - solves0) / kCalls;
    tiles += (counter("batch.solves") - tiles0) / kCalls;
    refactors += (counter("lu.numeric") - numeric0) / kCalls;
    const CallOutcome outcome = sweep_outcome(traced);
    s.count(outcome);
    s.require("table1_traced_bits_eq_untraced", outcome.bytes == reference.bytes);

    const double steals0 = counter("pool.steals");
    OBS_SPAN("bench.sweep.transient_delay_2t");
    const double t0 = now_seconds();
    const CallOutcome outcome2 =
        sweep_outcome(engine2.run(in.spec, sweep::Analysis::kTransientDelay));
    speedups.push_back(walls.back() / (now_seconds() - t0));
    steals += counter("pool.steals") - steals0;
    s.count(outcome2);
    s.require("table1_bits_1t_eq_2t", outcome2.bytes == reference.bytes);
  }
  s.add("sweep.batched_fraction", "ratio",
        static_cast<double>(traced.batched_points) / points);
  s.add("sweep.ejected_lanes", "count", static_cast<double>(traced.ejected_lanes));
  s.add("sweep.symbolic_factorizations", "count",
        static_cast<double>(traced.symbolic_factorizations));
  s.require("table1_symbolic_factorizations_eq_2",
            traced.symbolic_factorizations == 2);
  s.add("runtime.speedup_2t_table1", "x", median(speedups));
  s.add("runtime.steals_per_item", "count/item", steals / (kCalls * points));

  // Scalar lanes (W = 1): bit identity with the default lane width.
  {
    sweep::EngineOptions options = in.options;
    options.lanes = 1;
    const sweep::SweepEngine engine1(options);
    OBS_SPAN("bench.sweep.transient_delay_w1");
    const CallOutcome outcome =
        sweep_outcome(engine1.run(in.spec, sweep::Analysis::kTransientDelay));
    s.count(outcome);
    s.require("table1_bits_w1_eq_default_lanes", outcome.bytes == reference.bytes);
  }

  // The workload's own matrices: a mid-grid point, the sweep's dt.
  const std::size_t mid = in.spec.size() / 2;
  const sim::Circuit circuit =
      sim::build_gate_line_load(in.spec.at(mid).system, in.options.segments);
  const sim::MnaAssembler mna(circuit);
  const double dt = in.options.t_stop / 4000.0;
  const auto trap = sim::Integrator::kTrapezoidal;
  const double scale = sim::MnaAssembler::transient_scale(dt, trap);
  std::vector<double> values;
  mna.system_values(scale, values);
  const numeric::RealSparse a(mna.system_pattern(), values);
  const numeric::RealSparseLu lu(a);
  sim::TransientState state = mna.initial_state(sim::dc_operating_point(circuit));
  std::vector<double> rhs;
  mna.transient_rhs_into(dt, trap, state, rhs);
  std::vector<double> x = rhs;

  constexpr int kN = 20000;
  double lu_solve_ns = 0.0;
  {
    OBS_SPAN("bench.numeric.lu_solve");
    lu_solve_ns = 1e9 * median_seconds(kLoops, kN, [&] {
      for (int k = 0; k < kN; ++k) {
        std::copy(rhs.begin(), rhs.end(), x.begin());
        lu.solve_in_place(x);
      }
    });
  }
  s.add("numeric.lu_solve_ns", "ns", lu_solve_ns);
  s.add("numeric.lu_solve_ns_per_nnz", "ns/nnz",
        lu_solve_ns / static_cast<double>(lu.factor_nnz()));
  s.add("numeric.lu_solves_per_item", "count/item",
        (solves + tiles * static_cast<double>(numeric::default_lane_width())) /
            points);
  s.add("numeric.lu_refactors_per_item", "count/item", refactors / points);
  {
    OBS_SPAN("bench.sim.rhs");
    s.add("sim.rhs_ns", "ns", 1e9 * median_seconds(kLoops, kN, [&] {
      for (int k = 0; k < kN; ++k) mna.transient_rhs_into(dt, trap, state, rhs);
    }));
  }
  {
    OBS_SPAN("bench.sim.advance");
    s.add("sim.advance_ns", "ns", 1e9 * median_seconds(kLoops, kN, [&] {
      for (int k = 0; k < kN; ++k) mna.advance_state(x, dt, trap, state);
    }));
  }

  // One W-lane tile of the grid's first W points.
  const std::size_t lanes = numeric::default_lane_width();
  std::vector<sim::Circuit> tile;
  for (std::size_t l = 0; l < lanes; ++l)
    tile.push_back(sim::build_gate_line_load(in.spec.at(l).system, in.options.segments));
  std::vector<sim::MnaAssembler> tile_mna;
  tile_mna.reserve(lanes);
  for (const sim::Circuit& c : tile) tile_mna.emplace_back(c);
  numeric::BatchedValues batch_values(values.size(), lanes);
  for (std::size_t l = 0; l < lanes; ++l)
    tile_mna[l].stamp_values_into(scale, batch_values, l);
  numeric::SparseLuBatch batch(lu, lanes);
  batch.refactor(batch_values);
  numeric::BatchedValues batch_rhs(rhs.size(), lanes), batch_x(rhs.size(), lanes);
  for (std::size_t l = 0; l < lanes; ++l) batch_rhs.set_lane(l, rhs);
  double batch_solve_ns = 0.0;
  {
    OBS_SPAN("bench.numeric.batch_solve");
    batch_solve_ns = 1e9 * median_seconds(kLoops, kN / 4, [&] {
      for (int k = 0; k < kN / 4; ++k) {
        std::copy(batch_rhs.data(), batch_rhs.data() + rhs.size() * lanes,
                  batch_x.data());
        batch.solve_in_place(batch_x);
      }
    });
  }
  s.add("numeric.batch_solve_ns", "ns", batch_solve_ns);
  s.add("sim.solve_share_pct", "%",
        100.0 * (solves * lu_solve_ns + tiles * batch_solve_ns) * 1e-9 /
            median(walls));

  sim::SolverReuse reuse;
  sim::TransientOptions options;
  options.t_stop = in.options.t_stop;
  options.reuse = &reuse;
  sim::run_transient(tile[0], options);  // records the symbolic factorizations
  std::vector<double> tile_ms;
  for (int r = 0; r < 5; ++r) {
    OBS_SPAN("bench.sim.batch_tile");
    const double t0 = now_seconds();
    const std::optional<std::vector<double>> crossings =
        sim::run_batched_crossings(tile, "out", 0.5, options, "rlcbench tile");
    tile_ms.push_back(1e3 * (now_seconds() - t0));
    s.require("table1_tile_batched", crossings.has_value());
  }
  s.add("sim.batch_tile_ms", "ms", median(tile_ms));
}

// ------------------------------------------------------ xtalk_small_transient
void xtalk_layers(std::uint64_t seed, Suite& s) {
  const XtalkInputs in = xtalk_inputs(seed);
  const auto build = [&](std::size_t index) {
    const sweep::Scenario sc = in.spec.at(index);
    const tline::CoupledBus bus = tline::make_bus(
        sc.xtalk.bus_lines, sc.system.line, sc.xtalk.cc_ratio, sc.xtalk.lm_ratio);
    return sim::build_coupled_bus(
        bus, core::pattern_drives(sc.xtalk.bus_lines, sc.xtalk.bus_lines / 2,
                                  sc.xtalk.pattern, 0),
        sc.system.driver_resistance, sc.system.load_capacitance,
        in.options.segments);
  };
  const std::size_t last = in.spec.size() - 1;  // opposite phase, largest Cc
  const double t_stop = sim::default_transient_horizon(in.spec.at(last).system);

  // run_transient per point, one SolverReuse seeded by a first run.
  sim::SolverReuse reuse;
  sim::TransientOptions options;
  options.t_stop = t_stop;
  options.reuse = &reuse;
  sim::run_transient(build(0), options);
  std::vector<double> run_ms;
  double steps = 0.0, factorizations = 0.0;
  constexpr std::size_t kRuns = 6;
  for (std::size_t r = 0; r < kRuns; ++r) {
    const sim::Circuit circuit = build(r * in.spec.size() / kRuns);
    OBS_SPAN("bench.sim.transient");
    const double t0 = now_seconds();
    const sim::TransientResult result = sim::run_transient(circuit, options);
    run_ms.push_back(1e3 * (now_seconds() - t0));
    steps += static_cast<double>(result.steps_taken);
    factorizations += static_cast<double>(result.lu_factorizations);
  }
  s.add("sim.transient_ms", "ms", median(run_ms));
  s.add("sim.steps_per_run", "count", steps / kRuns);
  s.add("sim.lu_factorizations_per_run", "count", factorizations / kRuns);

  // Dense vs sparse solve on the same 63-unknown transient matrix.
  const sim::Circuit circuit = build(last);
  const sim::MnaAssembler mna(circuit);
  const double dt = t_stop / 4000.0;
  const auto trap = sim::Integrator::kTrapezoidal;
  s.require("xtalk_unknowns_eq_63", mna.unknown_count() == 63,
            std::to_string(mna.unknown_count()));
  const numeric::RealLu dense(mna.transient_matrix(dt, trap));
  std::vector<double> values;
  mna.system_values(sim::MnaAssembler::transient_scale(dt, trap), values);
  const numeric::RealSparseLu sparse(numeric::RealSparse(mna.system_pattern(), values));
  std::vector<double> rhs;
  mna.transient_rhs_into(dt, trap,
                         mna.initial_state(sim::dc_operating_point(circuit)), rhs);
  std::vector<double> x = rhs;
  constexpr int kN = 10000;
  {
    OBS_SPAN("bench.numeric.dense_solve");
    s.add("numeric.dense_solve_ns", "ns", 1e9 * median_seconds(kLoops, kN, [&] {
      for (int k = 0; k < kN; ++k) {
        std::copy(rhs.begin(), rhs.end(), x.begin());
        dense.solve_in_place(x);
      }
    }));
  }
  {
    OBS_SPAN("bench.numeric.lu_solve_xtalk");
    s.add("numeric.lu_solve_ns_xtalk", "ns", 1e9 * median_seconds(kLoops, kN, [&] {
      for (int k = 0; k < kN; ++k) {
        std::copy(rhs.begin(), rhs.end(), x.begin());
        sparse.solve_in_place(x);
      }
    }));
  }
}

// ----------------------------------------------------------- clock_tree_graph
void clock_tree_layers(std::uint64_t seed, Suite& s) {
  const graph::HTreeSpec spec = clock_tree_inputs(seed);
  std::optional<graph::HTreeGraph> tree;
  {
    OBS_SPAN("bench.graph.build_h_tree");
    tree.emplace(graph::build_h_tree(spec));
  }
  const double nodes = static_cast<double>(tree->graph.node_count());
  constexpr int kCalls = 10;
  std::vector<double> ms1, ms2;
  std::optional<CallOutcome> reference;
  for (int c = 0; c < 2 * kCalls; ++c) {
    const std::size_t threads = c % 2 == 0 ? 1 : 2;  // alternate 1t / 2t
    OBS_SPAN("bench.graph.evaluate");
    const double t0 = now_seconds();
    const graph::GraphResult result = tree->graph.evaluate(threads);
    (threads == 1 ? ms1 : ms2).push_back(1e3 * (now_seconds() - t0));
    const CallOutcome outcome = graph_outcome(result);
    s.count(outcome);
    if (!reference) reference = outcome;
    s.require("graph_bits_1t_eq_2t", outcome.bytes == reference->bytes);
  }
  const double evaluate_ms = median(ms1);
  s.add("graph.evaluate_ms", "ms", evaluate_ms);
  s.add("graph.us_per_node", "us", 1e3 * evaluate_ms / nodes);
  s.add("runtime.speedup_2t_graph", "x", evaluate_ms / median(ms2));

  // The level-0 stage circuit exactly as build_h_tree assembles it.
  const tline::LineParams half = graph::level_line(spec, 0).section(2);
  const double load = spec.size * spec.buffer.c0;
  sim::WireTree wires;
  wires.branches = {{-1, half, spec.segments_per_branch, 0.0},
                    {0, half, spec.segments_per_branch, load},
                    {0, half, spec.segments_per_branch, load * (1.0 + spec.sink_imbalance)}};
  sim::Circuit stage;
  stage.add_voltage_source("in", "0", sim::DcSpec{0.0}, "vin");
  stage.add_resistor("in", "drv", spec.buffer.r0 / spec.size, "rdrv");
  std::vector<std::string> ends;
  sim::add_wire_tree(stage, "t", "drv", wires, &ends);
  const double max_delay = 2.0 * half.time_of_flight();
  mor::ConductanceReuse reuse;
  graph::StageModel model =
      graph::reduce_stage(stage, {ends[1], ends[2]}, spec.order, max_delay, &reuse);
  {
    OBS_SPAN("bench.graph.reduce_stage");
    s.add("graph.reduce_stage_ms", "ms", 1e3 * median_seconds(kLoops, 20, [&] {
      for (int k = 0; k < 20; ++k)
        model = graph::reduce_stage(stage, {ends[1], ends[2]}, spec.order,
                                    max_delay, &reuse);
    }));
  }

  // The node evaluation's closed form: coarse scan block and measure.
  mor::AnalyticResponse response(0.0);
  response.add_ramp(model.transfer[0], spec.vdd, graph::stage_edge(spec, 0));
  constexpr std::size_t kSamples = 512;
  std::vector<double> times(kSamples), out(kSamples);
  const double horizon = response.suggested_horizon();
  for (std::size_t i = 0; i < kSamples; ++i)
    times[i] = horizon * static_cast<double>(i) / (kSamples - 1);
  {
    OBS_SPAN("bench.mor.scan");
    s.add("mor.scan_us", "us", 1e6 * median_seconds(kLoops, 500, [&] {
      for (int k = 0; k < 500; ++k) response.values(times.data(), out.data(), kSamples);
    }));
  }
  {
    OBS_SPAN("bench.mor.measure");
    s.add("mor.measure_us", "us", 1e6 * median_seconds(kLoops, 200, [&] {
      for (int k = 0; k < 200; ++k) {
        const mor::ResponseMetrics m = response.measure(0.0, spec.vdd);
        if (!m.delay_50) throw std::runtime_error("mor.measure: no crossing");
      }
    }));
  }
}

// ----------------------------------------------------------- bus_repeater_opt
void bus_layers(std::uint64_t seed, Suite& s) {
  const BusInputs in = bus_inputs(seed);
  sweep::EngineOptions engine_options;
  engine_options.threads = 1;
  const sweep::SweepEngine engine(engine_options);
  const double reductions0 = counter("mor.pade_reductions");
  std::optional<repbus::BusOptimizationResult> result;
  {
    OBS_SPAN("bench.repbus.optimize");
    result.emplace(repbus::optimize_bus_repeaters(in.bus, in.buffer, in.options, engine));
  }
  const double candidates = static_cast<double>(result->evaluations.size());
  s.report.attempted += result->evaluations.size();
  s.add("mor.reductions_per_item", "count/item",
        (counter("mor.pade_reductions") - reductions0) / candidates);

  // repbus_frontier's design point: h = 32, k = 4, uniform.
  repbus::RepeaterBusSpec spec;
  spec.bus = in.bus;
  spec.sections = 4;
  spec.size = 32.0;
  spec.buffer = in.buffer;
  spec.segments_per_section = in.options.segments_per_section;
  mor::ConductanceReuse reuse;
  repbus::StageModels models = repbus::build_stage_models(spec, in.options.order, &reuse);
  {
    OBS_SPAN("bench.repbus.build_stage_models");
    s.add("repbus.build_models_ms", "ms", 1e3 * median_seconds(kLoops, 5, [&] {
      for (int k = 0; k < 5; ++k)
        models = repbus::build_stage_models(spec, in.options.order, &reuse);
    }));
  }
  {
    OBS_SPAN("bench.repbus.compose_bus_chain");
    s.add("repbus.compose_ms", "ms", 1e3 * median_seconds(kLoops, 5, [&] {
      for (int k = 0; k < 5; ++k)
        repbus::compose_bus_chain(spec, core::SwitchingPattern::kOppositePhase, models);
    }));
  }

  // One stage section of that chain as a plain coupled bus: its G for the
  // factor/refactor loops, its victim transfer for moments and reduction.
  tline::CoupledBus section = in.bus;
  section.line = in.bus.line.section(spec.sections);
  section.coupling_capacitance /= spec.sections;
  section.mutual_inductance /= spec.sections;
  const sim::Circuit circuit = sim::build_coupled_bus(
      section, std::vector<sim::BusDrive>(5, sim::BusDrive::kRising),
      spec.buffer.r0 / spec.size, spec.size * spec.buffer.c0,
      spec.segments_per_section);
  const sim::MnaAssembler mna(circuit);
  std::vector<double> g;
  mna.conductance_values(g);
  const numeric::RealSparse gm(mna.system_pattern(), g);
  {
    OBS_SPAN("bench.numeric.lu_factor");
    s.add("numeric.lu_factor_us", "us", 1e6 * median_seconds(kLoops, 200, [&] {
      for (int k = 0; k < 200; ++k) {
        const numeric::RealSparseLu lu(gm);
        if (lu.size() == 0) throw std::runtime_error("empty factor");
      }
    }));
  }
  numeric::RealSparseLu lu(gm);
  {
    OBS_SPAN("bench.numeric.lu_refactor");
    s.add("numeric.lu_refactor_us", "us", 1e6 * median_seconds(kLoops, 500, [&] {
      for (int k = 0; k < 500; ++k) lu.refactor(gm);
    }));
  }
  const mor::LinearSystem system = mor::make_linear_system(mna, {"line2.out"});
  mor::ConductanceReuse moment_reuse;
  std::vector<double> moments =
      mor::MomentGenerator(system, &moment_reuse)
          .transfer_moments(system.outputs[0], system.inputs[2], 2 * in.options.order);
  {
    OBS_SPAN("bench.mor.moments");
    s.add("mor.moments_us", "us", 1e6 * median_seconds(kLoops, 100, [&] {
      for (int k = 0; k < 100; ++k) {
        const mor::MomentGenerator generator(system, &moment_reuse);
        moments = generator.transfer_moments(system.outputs[0], system.inputs[2],
                                             2 * in.options.order);
      }
    }));
  }
  {
    OBS_SPAN("bench.mor.reduce");
    const double max_delay = section.line.time_of_flight();
    s.add("mor.reduce_us", "us", 1e6 * median_seconds(kLoops, 200, [&] {
      for (int k = 0; k < 200; ++k)
        mor::reduce_transfer(moments, in.options.order, max_delay);
    }));
  }
}

}  // namespace

LayerReport run_layers(std::uint64_t seed, const std::string& trace_path) {
  Suite s;
  // Tracing overhead on table1_transient: untraced and traced calls
  // alternate, so a slow phase of the host hits both sides alike. The
  // traced halves write a side trace next to the main one.
  sweep::SweepResult untraced;
  {
    const Table1Inputs in = table1_inputs(seed);
    const sweep::SweepEngine engine(in.options);
    const auto timed_call = [&] {
      const double t0 = now_seconds();
      engine.run(in.spec, sweep::Analysis::kTransientDelay);
      return now_seconds() - t0;
    };
    untraced = engine.run(in.spec, sweep::Analysis::kTransientDelay);  // warm-up
    const std::string side_trace = trace_path + ".overhead";
    std::vector<double> ratios;
    for (int c = 0; c < 3; ++c) {
      const double plain = timed_call();
      obs::begin_trace(side_trace);
      ratios.push_back(timed_call() / plain);
      obs::end_trace();
    }
    std::remove(side_trace.c_str());
    s.add("obs.trace_overhead_pct", "%", 100.0 * (median(ratios) - 1.0));
  }

  obs::begin_trace(trace_path);
  table1_layers(seed, s, untraced);
  xtalk_layers(seed, s);
  clock_tree_layers(seed, s);
  bus_layers(seed, s);
  obs::end_trace();
  s.require("failed_frac_zero", s.report.failed == 0);
  return s.report;
}

}  // namespace rlcbench
