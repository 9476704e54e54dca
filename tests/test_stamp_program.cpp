// The stamp program (sim/stamp_program.h): one compiled topology, shared by
// every circuit that matches it. Its claims are byte claims, so these tests
// memcmp: a circuit stamped through another circuit's program gives the
// bytes of its own compile (seeded ladders, coupled buses with mutuals and
// structural zero caps, current sources, buffered chains); the topology
// check covers every element kind, so circuits that differ in one
// resistor's node pair never share a program; a sweep whose load axis
// includes 0 (points without a load capacitor) gives each point the bytes
// of its own first_crossing; and a Table-1 sweep compiles one program at
// every lane width and thread count.
#include "sim/stamp_program.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "numeric/sparse.h"
#include "obs/metrics.h"
#include "sim/builders.h"
#include "sim/mna.h"
#include "sim/transient_batch.h"
#include "sweep/sweep.h"
#include "tline/coupled_bus.h"

namespace {

using namespace rlcsim;

template <typename T>
void expect_bytes_equal(const std::vector<T>& a, const std::vector<T>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0) << what;
  }
}

// Draws a circuit's topology from `shape` and its element values from
// `value`: two calls with one shape seed and different value seeds give two
// circuits of one topology. Kinds: 0 RLC ladder (sometimes with a shunt
// resistor), 1 coupled bus with mutuals and, at a zero coupling ratio,
// structural zero caps, 2 current-source-driven RC ladder, 3 buffered
// repeater chain.
sim::Circuit seeded_circuit(unsigned shape_seed, unsigned value_seed) {
  std::mt19937 shape(shape_seed);
  std::mt19937 value(value_seed);
  const auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(shape);
  };
  const auto log_uniform = [&](double lo, double hi) {
    return std::exp(
        std::uniform_real_distribution<double>(std::log(lo), std::log(hi))(value));
  };
  const auto line = [&] {
    return tline::LineParams{log_uniform(100.0, 2000.0), log_uniform(1e-9, 1e-6),
                             log_uniform(0.1e-12, 2e-12)};
  };
  const int kind = static_cast<int>(shape_seed % 4);
  const int segments = pick(1, 6);
  if (kind == 0) {
    sim::Circuit c = sim::build_gate_line_load(
        {log_uniform(10.0, 1000.0), line(), log_uniform(0.01e-12, 1e-12)}, segments);
    if (pick(0, 1) == 1) c.add_resistor("out", "0", log_uniform(1e3, 1e5), "shunt");
    return c;
  }
  if (kind == 1) {
    const int lines = pick(2, 4);
    // A zero ratio on either circuit of a pair keeps the pattern through
    // structural elements; the value stream decides which one draws it.
    const double cc = std::uniform_int_distribution<int>(0, 2)(value) == 0
                          ? 0.0
                          : log_uniform(0.05, 0.8);
    const double lm = std::uniform_int_distribution<int>(0, 2)(value) == 0
                          ? 0.0
                          : log_uniform(0.01, 0.3);
    std::vector<sim::BusDrive> drives(static_cast<std::size_t>(lines),
                                      sim::BusDrive::kQuietLow);
    drives[static_cast<std::size_t>(pick(0, lines - 1))] = sim::BusDrive::kRising;
    return sim::build_coupled_bus(tline::make_bus(lines, line(), cc, lm), drives,
                                  log_uniform(50.0, 500.0), log_uniform(0.05e-12, 1e-12),
                                  segments);
  }
  if (kind == 2) {
    sim::Circuit c;
    c.add_current_source("0", "in", sim::StepSpec{0.0, log_uniform(1e-4, 1e-2), 0.0, 0.0},
                         "idrive");
    c.add_resistor("in", "0", log_uniform(100.0, 1e4), "rin");
    std::string near = "in";
    for (int k = 0; k < segments; ++k) {
      const std::string far = "n" + std::to_string(k);
      c.add_resistor(near, far, log_uniform(1.0, 100.0));
      c.add_capacitor(far, "0", log_uniform(1e-15, 1e-13));
      near = far;
    }
    return c;
  }
  sim::RepeaterChainSpec spec;
  spec.line = line();
  spec.sections = pick(2, 3);
  spec.size = log_uniform(1.0, 50.0);
  spec.r0 = log_uniform(1e3, 2e4);
  spec.c0 = log_uniform(1e-15, 1e-14);
  spec.segments_per_section = segments;
  return sim::build_repeater_chain(spec);
}

// Every value an assembler stamps: G + s*C (real and complex scale), G, C
// and the DC matrix.
struct Stamped {
  std::vector<double> system, g, c, dc;
  std::vector<std::complex<double>> ac;
};

Stamped stamp_all(const sim::MnaAssembler& mna) {
  Stamped s;
  mna.system_values(sim::MnaAssembler::transient_scale(1e-12, sim::Integrator::kTrapezoidal),
                    s.system);
  mna.system_values(std::complex<double>(0.0, 2e10), s.ac);
  mna.conductance_values(s.g);
  mna.susceptance_values(s.c);
  s.dc = mna.dc_sparse(1e-12).values();
  return s;
}

TEST(StampProgram, SharedProgramStampsOwnCompileBytes) {
  for (unsigned seed = 0; seed < 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const sim::Circuit a = seeded_circuit(seed, 1000 + seed);
    const sim::Circuit b = seeded_circuit(seed, 2000 + seed);
    const sim::StampProgramPtr program = sim::StampProgram::compile(a);
    ASSERT_TRUE(program->matches(a));
    ASSERT_TRUE(program->matches(b));

    const sim::MnaAssembler shared(program, b);
    const sim::MnaAssembler own(b);
    EXPECT_TRUE(numeric::same_structure(*shared.system_pattern(), *own.system_pattern()));
    EXPECT_TRUE(numeric::same_structure(*program->dc_pattern(), *own.program()->dc_pattern()));
    const Stamped got = stamp_all(shared);
    const Stamped want = stamp_all(own);
    expect_bytes_equal(got.system, want.system, "G + scale*C");
    expect_bytes_equal(got.ac, want.ac, "G + s*C");
    expect_bytes_equal(got.g, want.g, "G");
    expect_bytes_equal(got.c, want.c, "C");
    expect_bytes_equal(got.dc, want.dc, "DC");
    // ... and those of compressing b's own DC triplets, as before programs.
    EXPECT_EQ(shared.dc_sparse().pattern_ptr(), program->dc_pattern());
  }
}

// One circuit with every element kind; `moved` (0-6) reconnects one element
// of one kind, -1 moves none. `scale` changes values only. The nodes are
// created first, so every variant numbers them alike.
sim::Circuit every_kind(int moved, double scale) {
  sim::Circuit c;
  for (const char* node : {"a", "b", "c", "d"}) c.node(node);
  c.add_voltage_source(moved == 3 ? "b" : "a", "0", sim::DcSpec{1.0}, "v");
  c.add_resistor("a", moved == 0 ? "c" : "b", 100.0 * scale, "r");
  c.add_resistor("b", "0", 50.0, "rb");
  c.add_resistor("c", "0", 50.0, "rc");
  c.add_capacitor(moved == 1 ? "c" : "b", "0", 1e-12 * scale, 0.0, "cap");
  c.add_inductor("b", moved == 2 ? "0" : "c", 1e-9 * scale, 0.0, "l1");
  c.add_inductor("c", "0", 2e-9, 0.0, "l2");
  c.add_inductor("a", "b", 3e-9, 0.0, "l3");
  c.add_current_source("0", moved == 4 ? "a" : "c", sim::DcSpec{1e-3 * scale}, "i");
  c.add_resistor("d", "0", 75.0, "rd");
  c.add_buffer("c", moved == 5 ? "b" : "d", 200.0 * scale, 1e-15, 1.0, 0.5, "buf");
  c.add_mutual("l1", moved == 6 ? "l3" : "l2", 0.3 * scale, "k");
  return c;
}

TEST(StampProgram, TopologyCheckCoversEveryElementKind) {
  const sim::StampProgramPtr program = sim::StampProgram::compile(every_kind(-1, 1.0));
  EXPECT_TRUE(program->matches(every_kind(-1, 1.5)));
  const char* kinds[] = {"resistor", "capacitor", "inductor", "voltage source",
                         "current source", "buffer", "mutual"};
  for (int moved = 0; moved < 7; ++moved)
    EXPECT_FALSE(program->matches(every_kind(moved, 1.0))) << kinds[moved];

  // A buffer's input capacitance is stamped only when > 0, so its presence
  // is topology too.
  sim::Circuit no_input_cap, with_input_cap;
  for (sim::Circuit* c : {&no_input_cap, &with_input_cap}) {
    c->add_voltage_source("a", "0", sim::DcSpec{1.0});
    c->add_resistor("a", "b", 100.0);
    c->add_buffer("b", "c", 200.0, c == &no_input_cap ? 0.0 : 1e-15);
    c->add_capacitor("c", "0", 1e-12);
  }
  EXPECT_FALSE(sim::StampProgram::compile(no_input_cap)->matches(with_input_cap));
  EXPECT_THROW(sim::MnaAssembler(program, no_input_cap), std::invalid_argument);
}

// A gate line with a shunt resistor at `node`: circuits that differ only in
// that resistor's node pair have one sparsity pattern, one element count
// and one element order, but not one topology.
sim::Circuit shunted_line(const char* node, double driver_resistance) {
  sim::Circuit c = sim::build_gate_line_load(
      {driver_resistance, {500.0, 1e-7, 1e-12}, 0.5e-12}, 10);
  c.add_resistor(node, "0", 5e3, "shunt");
  return c;
}

TEST(StampProgram, ResistorNodePairDoesNotShareAProgram) {
  const sim::Circuit a = shunted_line("drv", 300.0);
  const sim::Circuit b = shunted_line("out", 300.0);
  ASSERT_TRUE(numeric::same_structure(*sim::MnaAssembler(a).system_pattern(),
                                      *sim::MnaAssembler(b).system_pattern()));

  sim::TransientOptions options;
  options.t_stop = 4e-9;
  sim::SolverReuse seeded;
  options.reuse = &seeded;
  sim::first_crossing(a, "out", 0.5, options, "seed");
  ASSERT_TRUE(seeded.program && seeded.system_symbolic && seeded.dc_symbolic);
  EXPECT_FALSE(seeded.program->matches(b));

  const auto own_crossing = [&](const sim::Circuit& c) {
    sim::SolverReuse fresh;
    sim::TransientOptions alone = options;
    alone.reuse = &fresh;
    return sim::first_crossing(c, "out", 0.5, alone, "own");
  };
  const auto expect_untouched = [&](const sim::SolverReuse& r) {
    EXPECT_EQ(r.program, seeded.program);
    EXPECT_EQ(r.system_symbolic, seeded.system_symbolic);
    EXPECT_EQ(r.dc_symbolic, seeded.dc_symbolic);
  };

  // A point handed the record compiles its own program, replays nothing and
  // leaves the record alone.
  sim::SolverReuse copy = seeded;
  options.reuse = &copy;
  const double b_crossing = sim::first_crossing(b, "out", 0.5, options, "b");
  const double b_own = own_crossing(b);
  EXPECT_EQ(std::memcmp(&b_crossing, &b_own, sizeof(double)), 0);
  const double a_own = own_crossing(a);
  EXPECT_NE(std::memcmp(&b_own, &a_own, sizeof(double)), 0);
  expect_untouched(copy);
  EXPECT_EQ(copy.symbolic_factorizations, seeded.symbolic_factorizations + 2);

  // A batch holding it declines, so the sweep evaluates its points one by
  // one, each equal to its own first_crossing.
  const std::vector<sim::Circuit> tile = {a, b, a, shunted_line("drv", 700.0)};
  EXPECT_FALSE(sim::run_batched_crossings(tile, "out", 0.5, options, "mixed tile"));
  expect_untouched(copy);
}

// A Table-1 grid: Rtr x CL x Lt.
sweep::SweepSpec table1_grid(std::vector<double> loads, std::size_t drivers,
                             std::size_t inductances) {
  sweep::SweepSpec spec;
  spec.base.system = {500.0, {500.0, 1e-7, 1e-12}, 0.5e-12};
  spec.axes = {
      sweep::linspace(sweep::Variable::kDriverResistance, 50.0, 500.0, drivers),
      sweep::values(sweep::Variable::kLoadCapacitance, std::move(loads)),
      sweep::logspace(sweep::Variable::kLineInductance, 1e-8, 1e-6, inductances),
  };
  return spec;
}

sweep::EngineOptions tiled_options(const sweep::SweepSpec& spec, std::size_t threads,
                                   std::size_t lanes, int segments) {
  sweep::EngineOptions options;
  options.threads = threads;
  options.lanes = lanes;
  options.segments = segments;
  for (std::size_t i = 0; i < spec.size(); ++i)
    options.t_stop = std::max(options.t_stop,
                              sim::default_transient_horizon(spec.at(i).system));
  options.dt = options.t_stop / 2000.0;
  return options;
}

// Points without a load capacitor have another topology than grid point 0,
// which seeds every worker's record. Each must compile its own program and
// replay nothing, and no point may re-seed the record. Every value equals a
// first_crossing handed a copy of the record (what the sweep does) and one
// handed a fresh SolverReuse (on these ladders the recorded pivot order is
// the one a fresh factorization picks).
TEST(StampProgram, MixedTopologySweepMatchesPerPointRuns) {
  const sweep::SweepSpec spec = table1_grid({0.3e-12, 0.0, 1e-12}, 3, 3);
  const sweep::EngineOptions base = tiled_options(spec, 1, 1, 10);
  sim::SolverReuse recorded;
  std::vector<double> expected;
  std::size_t unloaded = 0;
  for (std::size_t flat = 0; flat < spec.size(); ++flat) {
    const tline::GateLineLoad system = spec.at(flat).system;
    const sim::Circuit circuit = sim::build_gate_line_load(system, base.segments);
    sim::TransientOptions transient;
    transient.t_stop = base.t_stop;
    transient.dt = base.dt;
    sim::SolverReuse reuse = recorded;
    transient.reuse = flat == 0 ? &recorded : &reuse;
    expected.push_back(sim::first_crossing(circuit, "out", 0.5, transient, "per point"));
    if (flat > 0) {
      EXPECT_EQ(reuse.program, recorded.program) << flat;
      EXPECT_EQ(reuse.system_symbolic, recorded.system_symbolic) << flat;
    }
    if (system.load_capacitance == 0.0) ++unloaded;
    sim::SolverReuse fresh;
    transient.reuse = &fresh;
    const double own = sim::first_crossing(circuit, "out", 0.5, transient, "fresh");
    EXPECT_EQ(std::memcmp(&own, &expected.back(), sizeof(double)), 0) << flat;
  }
  ASSERT_EQ(unloaded, 9u);

  for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      SCOPED_TRACE(std::to_string(lanes) + " lanes, " + std::to_string(threads) +
                   " threads");
      const sweep::SweepEngine engine(tiled_options(spec, threads, lanes, 10));
      const auto result = engine.run(spec, sweep::Analysis::kTransientDelay);
      expect_bytes_equal(result.values, expected, "sweep vs per-point runs");
      // The recorded pair, plus each unloaded point's own pair: a point that
      // re-seeded a worker's record would make that worker's later loaded
      // points factorize too.
      EXPECT_EQ(result.symbolic_factorizations, 2u + 2u * unloaded);
    }
  }
}

TEST(StampProgram, Table1SweepCompilesOneProgram) {
  if (!obs::metrics_enabled()) GTEST_SKIP() << "needs RLCSIM_METRICS on";
  const sweep::SweepSpec spec = table1_grid({0.1e-12, 0.3e-12, 0.6e-12, 1e-12}, 8, 8);
  ASSERT_EQ(spec.size(), 256u);
  const obs::Counter programs("transient.stamp_programs");
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      const sweep::SweepEngine engine(tiled_options(spec, threads, lanes, 25));
      const std::uint64_t before = programs.total();
      const auto result = engine.run(spec, sweep::Analysis::kTransientDelay);
      EXPECT_EQ(programs.total() - before, 1u) << lanes << " lanes, " << threads
                                               << " threads";
      EXPECT_EQ(result.symbolic_factorizations, 2u);
    }
  }
}

}  // namespace
