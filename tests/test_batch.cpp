// Batched solver core (numeric/sparse_batch.h + the seams above it): the
// whole feature rests on ONE claim — a W-lane batch produces bit-identical
// numbers to W independent scalar runs — so these tests compare raw bytes
// (memcmp), not tolerances: solver lanes vs scalar SparseLu (including an
// engineered zero-pivot ejection, signed-zero right-hand sides, row-pivoting
// systems, and const solves from several threads), batched
// AnalyticResponse evaluation vs the scalar closed form, and batched
// transient sweeps across every (lane width, thread count) combination
// including tile remainders, NaN points and delay-ordered tiles, tiles that
// stop at their last lane's crossing vs single-circuit runs, and the probe
// recorder's crossings and extrema vs the full record (tests/full_record.h).
// Plus the zero-coupling pattern regression: a coupling axis through 0 must
// keep ONE sparsity pattern (2 symbolic factorizations per sweep).
#include "numeric/sparse_batch.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/crosstalk.h"
#include "full_record.h"
#include "graph/h_tree.h"
#include "mor/reduce.h"
#include "mor/response.h"
#include "numeric/sparse.h"
#include "obs/metrics.h"
#include "sim/builders.h"
#include "sim/mna.h"
#include "sim/transient_batch.h"
#include "sweep/sweep.h"

namespace {

using namespace rlcsim;
using numeric::BatchedValues;
using numeric::RealSparse;
using numeric::RealSparseLu;
using numeric::SparseLuBatch;

// Bitwise double-vector comparison: NaN == NaN, +0 != -0.
void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << what;
  }
}

// Deterministic random diagonally-bumped sparse system (the ladder-like
// shape every MNA matrix here has: strong diagonal, scattered off-diagonals).
std::vector<numeric::Triplet<double>> random_system(int n, double density,
                                                    unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<numeric::Triplet<double>> t;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j)
        t.push_back({i, j, 2.0 + value(rng)});
      else if (coin(rng) < density)
        t.push_back({i, j, value(rng)});
    }
  return t;
}

TEST(BatchedValuesTest, RejectsUnsupportedLaneWidths) {
  for (std::size_t lanes : {std::size_t{0}, std::size_t{2}, std::size_t{3},
                            std::size_t{5}, std::size_t{16}}) {
    EXPECT_THROW(BatchedValues(4, lanes), std::invalid_argument) << lanes;
  }
  EXPECT_TRUE(numeric::is_supported_lane_width(1));
  EXPECT_TRUE(numeric::is_supported_lane_width(4));
  EXPECT_TRUE(numeric::is_supported_lane_width(8));
  EXPECT_FALSE(numeric::is_supported_lane_width(2));
}

TEST(BatchedValuesTest, LaneTransfersRoundTrip) {
  BatchedValues v(3, 4);
  v.set_lane(2, {1.0, 2.0, 3.0});
  EXPECT_EQ(v.at(1, 2), 2.0);
  std::vector<double> out;
  v.extract_lane(2, out);
  EXPECT_EQ(out, (std::vector<double>{1.0, 2.0, 3.0}));
  v.clear_lane(2);
  v.extract_lane(2, out);
  EXPECT_EQ(out, (std::vector<double>{0.0, 0.0, 0.0}));
  EXPECT_THROW(v.set_lane(4, {0.0, 0.0, 0.0}), std::out_of_range);
  EXPECT_THROW(v.set_lane(0, {0.0}), std::invalid_argument);
}

// The core property: refactor + solve of W value lanes over one donor
// factorization is byte-for-byte the W scalar refactor + solve results.
TEST(SparseLuBatchTest, BitIdenticalToScalarLanes) {
  for (const int n : {7, 23, 60}) {
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      const auto base = random_system(n, 4.0 / n, 17u + static_cast<unsigned>(n));
      const RealSparse donor_matrix(n, base);
      const RealSparseLu donor(donor_matrix);
      const std::size_t nnz = static_cast<std::size_t>(donor_matrix.nnz());

      // Per-lane variants: same pattern, perturbed values (lane 0 keeps the
      // donor's own values — the "same matrix" lane must reproduce it too).
      std::mt19937 rng(99u + static_cast<unsigned>(n));
      std::uniform_real_distribution<double> bump(0.5, 1.5);
      std::vector<std::vector<double>> lane_values(lanes, donor_matrix.values());
      std::vector<std::vector<double>> lane_rhs(lanes);
      for (std::size_t w = 0; w < lanes; ++w) {
        if (w > 0)
          for (double& x : lane_values[w]) x *= bump(rng);
        lane_rhs[w].resize(static_cast<std::size_t>(n));
        for (double& x : lane_rhs[w]) x = bump(rng) - 1.0;
      }

      BatchedValues values(nnz, lanes), rhs(static_cast<std::size_t>(n), lanes);
      for (std::size_t w = 0; w < lanes; ++w) {
        values.set_lane(w, lane_values[w]);
        rhs.set_lane(w, lane_rhs[w]);
      }
      SparseLuBatch batch(donor, lanes);
      batch.refactor(values);
      EXPECT_EQ(batch.ejected_lane_count(), 0u);
      batch.solve_in_place(rhs);

      for (std::size_t w = 0; w < lanes; ++w) {
        RealSparseLu scalar(donor);  // copy: same recorded symbolic analysis
        scalar.refactor(RealSparse(donor_matrix.pattern_ptr(), lane_values[w]));
        const std::vector<double> expected = scalar.solve(lane_rhs[w]);
        std::vector<double> got;
        rhs.extract_lane(w, got);
        expect_bits_equal(expected, got, "solver lane");
      }
    }
  }
}

// A lane whose values turn the recorded pivot exactly zero must eject to
// the scalar path alone (scalar refactor re-pivots there), leaving every
// other lane batched — and the stats must account for all of it.
TEST(SparseLuBatchTest, ZeroPivotLaneEjectsIndividually) {
  // [[5, 1], [1, 1]] (2 unknowns, so no RCM): |5| > |1| makes row 0 the
  // recorded first pivot unambiguously, so a lane with a00 = 0 hits an
  // exactly-zero stale pivot — while its matrix [[0, 1], [1, 1]] stays
  // nonsingular for the re-pivoting scalar fallback.
  const RealSparse donor_matrix(
      2, {{0, 0, 5.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}});
  const RealSparseLu donor(donor_matrix);
  const std::size_t lanes = 4;

  std::vector<std::vector<double>> lane_values(lanes, donor_matrix.values());
  for (double& x : lane_values[2])
    if (x == 5.0) x = 0.0;  // lane 2: zero where the recorded pivot sits
  for (double& x : lane_values[3]) x *= 1.5;

  BatchedValues values(static_cast<std::size_t>(donor_matrix.nnz()), lanes);
  for (std::size_t w = 0; w < lanes; ++w) values.set_lane(w, lane_values[w]);

  // Passes recorded in the write-only lu.* counters (0 under
  // RLCSIM_METRICS=0, so those checks run only with metrics on).
  const auto passes = [](const char* counter) {
    return obs::Counter(counter).total();
  };
  const std::uint64_t ejected0 = passes("lu.ejected_lanes");
  const std::uint64_t symbolic0 = passes("lu.symbolic");
  const std::uint64_t numeric0 = passes("lu.numeric");
  SparseLuBatch batch(donor, lanes);
  // The ejected lane's scalar fallback re-pivots: 1 ejected lane plus 1
  // full (symbolic) factorization.
  EXPECT_EQ(batch.refactor(values), 1u);
  EXPECT_EQ(batch.ejected_lane_count(), 1u);
  EXPECT_FALSE(batch.lane_ejected(0));
  EXPECT_TRUE(batch.lane_ejected(2));
  if (obs::metrics_enabled()) {
    // 3 batched numeric passes + the ejected lane's full scalar
    // refactorization (1 symbolic + 1 numeric).
    EXPECT_EQ(passes("lu.ejected_lanes") - ejected0, 1u);
    EXPECT_EQ(passes("lu.symbolic") - symbolic0, 1u);
    EXPECT_EQ(passes("lu.numeric") - numeric0, lanes);
  }

  BatchedValues rhs(2, lanes);
  const std::vector<double> b{1.0, 2.0};
  for (std::size_t w = 0; w < lanes; ++w) rhs.set_lane(w, b);
  batch.solve_in_place(rhs);
  for (std::size_t w = 0; w < lanes; ++w) {
    RealSparseLu scalar(donor);
    scalar.refactor(RealSparse(donor_matrix.pattern_ptr(), lane_values[w]));
    std::vector<double> got;
    rhs.extract_lane(w, got);
    expect_bits_equal(scalar.solve(b), got, "ejected-lane solve");
  }
}

// Solves W right-hand sides through a batch whose lanes all carry `m`'s
// values and memcmps every lane against a scalar refactor + solve. Both run
// one solve program, so the residual check anchors them to m x = b.
void expect_lanes_match_scalar(const RealSparse& m,
                               const std::vector<std::vector<double>>& lane_rhs,
                               const char* what) {
  const RealSparseLu donor(m);
  const std::size_t lanes = lane_rhs.size();
  BatchedValues values(static_cast<std::size_t>(m.nnz()), lanes);
  BatchedValues rhs(static_cast<std::size_t>(m.size()), lanes);
  for (std::size_t w = 0; w < lanes; ++w) {
    values.set_lane(w, m.values());
    rhs.set_lane(w, lane_rhs[w]);
  }
  SparseLuBatch batch(donor, lanes);
  batch.refactor(values);
  ASSERT_EQ(batch.ejected_lane_count(), 0u) << what;
  batch.solve_in_place(rhs);
  RealSparseLu scalar(donor);
  scalar.refactor(m);
  for (std::size_t w = 0; w < lanes; ++w) {
    std::vector<double> got;
    rhs.extract_lane(w, got);
    expect_bits_equal(scalar.solve(lane_rhs[w]), got, what);
    const std::vector<double> back = m.multiply(got);
    for (std::size_t i = 0; i < back.size(); ++i)
      EXPECT_NEAR(back[i], lane_rhs[w][i], 1e-12) << what << " residual, row " << i;
  }
}

// Right-hand sides whose multipliers are exactly zero in some lanes (the
// solve's guarded blend), in every lane (the column skip), or in none (the
// plain update): every 5th entry is a signed zero in all lanes, others are
// -0.0 or +0.0 in some lanes, and the last lane of a batch is all -0.0.
std::vector<std::vector<double>> signed_zero_rhs(std::size_t n, std::size_t lanes,
                                                 unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::vector<std::vector<double>> rhs(lanes, std::vector<double>(n));
  for (std::size_t w = 0; w < lanes; ++w)
    for (std::size_t i = 0; i < n; ++i) {
      double& b = rhs[w][i];
      if (i % 5 == 0)
        b = (w % 2 != 0) ? -0.0 : 0.0;
      else if ((i + w) % 3 == 0)
        b = -0.0;
      else if ((i + w) % 7 == 0)
        b = 0.0;
      else
        b = value(rng);
      if (lanes > 1 && w + 1 == lanes) b = -0.0;
    }
  return rhs;
}

// The solve takes a plain (vectorized) update only where every lane's
// multiplier is nonzero; zero multipliers must keep the scalar skip's
// bits, signed zeros included.
TEST(SparseLuBatchTest, ZeroMultipliersKeepScalarBits) {
  // [[2, 1], [1, 3]]: row 0 pivots column 0, L multiplier 0.5, U entry 1.
  // For b = (-0, -0) the skips keep x = (-0, -0); the unguarded updates
  // would give -0.0 - 0.5 * (-0.0) = +0.0 in L and likewise in U.
  const RealSparse two(2, {{0, 0, 2.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 3.0}});
  const std::vector<double> neg_zero{-0.0, -0.0};
  const std::vector<double> scalar = RealSparseLu(two).solve(neg_zero);
  EXPECT_TRUE(std::signbit(scalar[0]) && scalar[0] == 0.0);
  EXPECT_TRUE(std::signbit(scalar[1]) && scalar[1] == 0.0);
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    // Every lane zero (column skip), then zero lanes mixed with nonzero ones.
    expect_lanes_match_scalar(
        two, std::vector<std::vector<double>>(lanes, neg_zero), "2x2, all lanes -0");
    std::vector<std::vector<double>> mixed(lanes, neg_zero);
    for (std::size_t w = 1; w < lanes; w += 2) mixed[w] = {1.0 + w, -2.0};
    expect_lanes_match_scalar(two, mixed, "2x2, mixed -0 lanes");
  }

  // Row-pivoting systems, so the solve's cycle moves run: [[0, 1], [1, x]]
  // (the zero stored), and three such blocks (zero diagonal absent) coupled
  // in a chain.
  const RealSparse pivot2(2, {{0, 0, 0.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 0.75}});
  std::vector<numeric::Triplet<double>> chain;
  for (int b = 0; b < 3; ++b) {
    chain.push_back({2 * b, 2 * b + 1, 1.0});
    chain.push_back({2 * b + 1, 2 * b, 1.0});
    chain.push_back({2 * b + 1, 2 * b + 1, 2.0 + b});
    if (b < 2) {
      chain.push_back({2 * b + 1, 2 * b + 3, 0.25});
      chain.push_back({2 * b + 3, 2 * b + 1, -0.5});
    }
  }
  const RealSparse pivot6(6, chain);
  const RealSparse random23(23, random_system(23, 4.0 / 23, 40u));
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    expect_lanes_match_scalar(pivot2, signed_zero_rhs(2, lanes, 1u), "pivot 2x2");
    expect_lanes_match_scalar(pivot6, signed_zero_rhs(6, lanes, 2u), "pivot chain");
    expect_lanes_match_scalar(random23, signed_zero_rhs(23, lanes, 3u), "random 23");
  }

  // The refactor's column step: [[5, 1], [1, 1]] records row 0 as the
  // first pivot. Even lanes turn that pivot into 1e-310 and a01 into 0, so
  // their L multiplier 1 / 1e-310 overflows to inf while their U entry u01
  // is exactly 0; odd lanes keep u01 = 1, so the column is mixed. The
  // guarded blend keeps a11 for the even lanes, as the scalar skip does;
  // the plain update would give a11 - inf * 0 = NaN.
  const RealSparse donor_matrix(
      2, {{0, 0, 5.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}});
  const RealSparseLu donor(donor_matrix);
  for (const std::size_t lanes : {std::size_t{4}, std::size_t{8}}) {
    BatchedValues values(static_cast<std::size_t>(donor_matrix.nnz()), lanes);
    BatchedValues rhs(2, lanes);
    std::vector<std::vector<double>> lane_values(lanes), lane_rhs(lanes);
    for (std::size_t w = 0; w < lanes; ++w) {
      const bool tiny = w % 2 == 0;
      // CSR order: a00, a01, a10, a11.
      lane_values[w] = tiny ? std::vector<double>{1e-310, 0.0, 1.0, 2.0 + w}
                            : std::vector<double>{4.0, 1.0, 1.0, 2.0 + w};
      lane_rhs[w] = {tiny ? 0.0 : 1.0, -1.0 - static_cast<double>(w)};
      values.set_lane(w, lane_values[w]);
      rhs.set_lane(w, lane_rhs[w]);
    }
    SparseLuBatch batch(donor, lanes);
    batch.refactor(values);
    ASSERT_EQ(batch.ejected_lane_count(), 0u);
    batch.solve_in_place(rhs);
    for (std::size_t w = 0; w < lanes; ++w) {
      RealSparseLu scalar(donor);
      EXPECT_FALSE(scalar.refactor(RealSparse(donor_matrix.pattern_ptr(), lane_values[w])));
      const std::vector<double> expected = scalar.solve(lane_rhs[w]);
      ASSERT_TRUE(std::isfinite(expected[0]) && std::isfinite(expected[1]));
      std::vector<double> got;
      rhs.extract_lane(w, got);
      expect_bits_equal(expected, got, "inf multiplier, zero U entry");
    }
  }
}

// Solves on a const factorization write no shared state: threads solving
// through one RealSparseLu and one SparseLuBatch get the serial bits.
TEST(SparseLuBatchTest, ConstSolvesAreThreadSafe) {
  constexpr int n = 60;
  constexpr std::size_t lanes = 8;
  constexpr int kThreads = 4;
  constexpr int kRhs = 16;
  const RealSparse m(n, random_system(n, 4.0 / n, 77u));
  const RealSparseLu lu(m);
  BatchedValues values(static_cast<std::size_t>(m.nnz()), lanes);
  for (std::size_t w = 0; w < lanes; ++w) {
    std::vector<double> v = m.values();
    for (double& x : v) x *= 1.0 + 0.125 * static_cast<double>(w);
    values.set_lane(w, v);
  }
  SparseLuBatch batch_factor(lu, lanes);
  batch_factor.refactor(values);
  const SparseLuBatch& batch = batch_factor;

  std::mt19937 rng(5u);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::vector<std::vector<double>> rhs(kRhs, std::vector<double>(n * lanes));
  for (auto& b : rhs)
    for (double& x : b) x = value(rng);
  // Scalar solves take the first n entries of each right-hand side.
  struct Solutions {
    std::vector<std::vector<double>> scalar = std::vector<std::vector<double>>(kRhs);
    std::vector<BatchedValues> batch =
        std::vector<BatchedValues>(kRhs, BatchedValues(n, lanes));
  };
  const auto solve_all = [&](Solutions& out) {
    for (int k = 0; k < kRhs; ++k) {
      out.scalar[k].assign(rhs[k].begin(), rhs[k].begin() + n);
      lu.solve_in_place(out.scalar[k]);
      std::copy(rhs[k].begin(), rhs[k].end(), out.batch[k].data());
      batch.solve_in_place(out.batch[k]);
    }
  };
  Solutions serial;
  solve_all(serial);

  std::vector<Solutions> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 20; ++rep) solve_all(results[t]);
    });
  for (std::thread& th : threads) th.join();

  for (const Solutions& got : results)
    for (int k = 0; k < kRhs; ++k) {
      expect_bits_equal(serial.scalar[k], got.scalar[k], "threaded scalar solve");
      EXPECT_EQ(std::memcmp(serial.batch[k].data(), got.batch[k].data(),
                            n * lanes * sizeof(double)),
                0)
          << "threaded batch solve";
    }
}

// ----------------------------------------------------- AnalyticResponse

mor::PoleResidueModel oscillatory_model() {
  mor::PoleResidueModel model;
  model.poles = {{-1.0e9, 0.0}, {-4.0e8, 3.0e9}, {-4.0e8, -3.0e9}};
  model.residues = {{1.2e9, 0.0}, {-0.6e9, 2.0e8}, {-0.6e9, -2.0e8}};
  model.dc_gain = 0.9;
  model.delay = 2.0e-10;
  return model;
}

TEST(AnalyticResponseBatch, ValuesBitIdenticalToScalarEvaluation) {
  mor::AnalyticResponse response(0.05);
  response.add_step(oscillatory_model(), 1.0);
  response.add_ramp(oscillatory_model(), -0.4, /*rise=*/3.0e-10,
                    /*start=*/1.0e-10);

  // 257 samples (non-multiple of the 8-wide block) spanning the pre-onset
  // zeros, the onset edges, the ramp window, and the settled tail.
  const std::size_t count = 257;
  std::vector<double> times(count), batched(count), scalar(count);
  for (std::size_t i = 0; i < count; ++i) {
    times[i] = 3.0e-9 * static_cast<double>(i) / static_cast<double>(count - 1);
    scalar[i] = response.value(times[i]);
  }
  response.values(times.data(), batched.data(), count);
  expect_bits_equal(scalar, batched, "analytic response block");

  // Odd partial block on its own.
  std::vector<double> small(13);
  response.values(times.data(), small.data(), 13);
  for (std::size_t i = 0; i < 13; ++i) EXPECT_EQ(small[i], scalar[i]);
}

TEST(AnalyticResponseBatch, FirstCrossingStillRefinesExactly) {
  // Single-pole step 1 - exp(-t/tau): the blocked coarse scan must bracket
  // and Brent-refine the same crossing, tau * ln(2).
  const double tau = 1.0e-9;
  mor::PoleResidueModel model;
  model.poles = {{-1.0 / tau, 0.0}};
  model.residues = {{1.0 / tau, 0.0}};
  model.dc_gain = 1.0;
  mor::AnalyticResponse response;
  response.add_step(model, 1.0);
  const auto crossing = response.first_crossing(0.5, +1);
  ASSERT_TRUE(crossing.has_value());
  EXPECT_NEAR(*crossing, tau * std::log(2.0), 1e-6 * tau);
  const auto metrics = response.measure(0.0, 1.0);
  ASSERT_TRUE(metrics.delay_50.has_value());
  EXPECT_EQ(*metrics.delay_50, *crossing);
}

// ------------------------------------------------------------- sweeps

// The grid of the existing sweep tests: 27 points — deliberately NOT a
// multiple of 4 or 8, so every batched run exercises a remainder tile.
sweep::SweepSpec small_grid() {
  sweep::SweepSpec spec;
  spec.base.system = {500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  spec.axes = {
      sweep::values(sweep::Variable::kDriverResistance, {200.0, 500.0, 900.0}),
      sweep::logspace(sweep::Variable::kLineInductance, 1e-8, 1e-6, 3),
      sweep::values(sweep::Variable::kLoadCapacitance, {0.1e-12, 0.5e-12, 1e-12}),
  };
  return spec;
}

sweep::EngineOptions batch_options(std::size_t threads, std::size_t lanes,
                                   const sweep::SweepSpec& spec) {
  sweep::EngineOptions options;
  options.threads = threads;
  options.lanes = lanes;
  options.segments = 25;
  // Batching needs the shared grid an explicit t_stop provides: the largest
  // per-scenario default horizon keeps every point's crossing inside it.
  for (std::size_t i = 0; i < spec.size(); ++i)
    options.t_stop = std::max(
        options.t_stop, sim::default_transient_horizon(spec.at(i).system));
  options.dt = options.t_stop / 2000.0;
  return options;
}

TEST(SweepBatch, TransientSweepBitIdenticalAcrossLanesAndThreads) {
  const sweep::SweepSpec spec = small_grid();
  const sweep::SweepEngine reference(batch_options(1, 1, spec));
  const auto scalar = reference.run(spec, sweep::Analysis::kTransientDelay);
  ASSERT_EQ(scalar.values.size(), spec.size());
  for (double v : scalar.values) EXPECT_TRUE(std::isfinite(v));

  for (const std::size_t lanes : {std::size_t{4}, std::size_t{8}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      const sweep::SweepEngine engine(batch_options(threads, lanes, spec));
      const auto batched = engine.run(spec, sweep::Analysis::kTransientDelay);
      expect_bits_equal(scalar.values, batched.values, "batched sweep");
      // Symbolic-reuse contract is unchanged by batching: one system + one
      // DC analysis for the whole sweep.
      EXPECT_EQ(batched.symbolic_factorizations, 2u)
          << lanes << " lanes, " << threads << " threads";
    }
  }
}

TEST(SweepBatch, TinyGridFallsThroughScalar) {
  // 2 points < any batch width: the undersized tile must fall through to
  // the scalar path and still match a lanes=1 engine bitwise.
  sweep::SweepSpec spec;
  spec.base.system = {500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  spec.axes = {
      sweep::values(sweep::Variable::kDriverResistance, {300.0, 800.0})};
  const sweep::SweepEngine scalar_engine(batch_options(1, 1, spec));
  const sweep::SweepEngine batch_engine(batch_options(2, 8, spec));
  const auto a = scalar_engine.run(spec, sweep::Analysis::kTransientDelay);
  const auto b = batch_engine.run(spec, sweep::Analysis::kTransientDelay);
  expect_bits_equal(a.values, b.values, "undersized tile");
}

TEST(SweepBatch, PointAccountingSumsAndSplitsHonestly) {
  // The batched/scalar split is the only witness of WHERE points ran (the
  // fallback is bit-identical by design, so values can't tell). A point is
  // batched when a W > 1 call stepped it. Regression: the counters must
  // always sum to the grid size, a lanes = 1 engine must report zero
  // batched points, and a batched engine on the 27-point grid must batch
  // exactly the 3 full tiles of 8 (or 6 of 4): the seeded reference point
  // and the 2-point remainder are single-circuit runs.
  const sweep::SweepSpec spec = small_grid();
  const sweep::SweepEngine scalar(batch_options(1, 1, spec));
  const auto a = scalar.run(spec, sweep::Analysis::kTransientDelay);
  EXPECT_EQ(a.batched_points, 0u);
  EXPECT_EQ(a.scalar_points, spec.size());

  for (const std::size_t lanes : {std::size_t{4}, std::size_t{8}}) {
    const sweep::SweepEngine engine(batch_options(2, lanes, spec));
    const auto b = engine.run(spec, sweep::Analysis::kTransientDelay);
    EXPECT_EQ(b.batched_points, 24u) << lanes;
    EXPECT_EQ(b.scalar_points, 3u) << lanes;
    EXPECT_EQ(b.ejected_lanes, 0u) << lanes;
  }

  // run_custom has no batch path: everything is a scalar point.
  const auto c = scalar.run_custom(
      17, [](std::size_t i, sweep::SweepEngine::PointContext&) {
        return static_cast<double>(i);
      });
  EXPECT_EQ(c.batched_points, 0u);
  EXPECT_EQ(c.scalar_points, 17u);
}

TEST(SweepBatch, RejectsUnsupportedLaneCount) {
  sweep::SweepSpec spec = small_grid();
  sweep::EngineOptions options = batch_options(1, 1, spec);
  options.lanes = 3;
  const sweep::SweepEngine engine(options);
  EXPECT_THROW(engine.run(spec, sweep::Analysis::kTransientDelay),
               std::invalid_argument);
}

TEST(SweepBatch, NaNPointsStayDeterministicAcrossLanesAndThreads) {
  // A switching-pattern axis with a quiet victim yields NaN delay points;
  // bitwise determinism must hold through them at every (lanes, threads).
  sweep::SweepSpec spec;
  spec.base.system = {500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  spec.base.xtalk.bus_lines = 3;
  spec.base.xtalk.cc_ratio = 0.4;
  spec.axes = {
      sweep::switching_patterns({core::SwitchingPattern::kQuietVictim,
                                 core::SwitchingPattern::kSamePhase,
                                 core::SwitchingPattern::kOppositePhase}),
      sweep::values(sweep::Variable::kDriverResistance, {300.0, 800.0}),
  };
  sweep::EngineOptions base;
  base.segments = 12;
  const sweep::SweepEngine reference(base);
  const auto scalar = reference.run(spec, sweep::Analysis::kCrosstalkDelay);
  ASSERT_EQ(scalar.values.size(), 6u);
  EXPECT_TRUE(std::isnan(scalar.values[0]));  // quiet victim
  EXPECT_TRUE(std::isfinite(scalar.values[2]));

  for (const std::size_t lanes : {std::size_t{4}, std::size_t{8}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      sweep::EngineOptions options = base;
      options.threads = threads;
      options.lanes = lanes;
      const sweep::SweepEngine engine(options);
      const auto result = engine.run(spec, sweep::Analysis::kCrosstalkDelay);
      expect_bits_equal(scalar.values, result.values, "NaN-point sweep");
    }
  }
}

TEST(SweepBatch, DelayOrderedTilesKeepValuesAndPointCounts) {
  // Tiles take the grid points in eq. 9 delay order, not grid order. Axes
  // that descend, are scrambled and repeat values (duplicate points, whose
  // ties break by grid index) must still give the same bytes at every
  // (lanes, threads), and the same batched/scalar split as grid-order
  // tiling: 47 points after the single-circuit reference, so 11 tiles of 4
  // and a 3-point remainder run point by point, or 5 tiles of 8 and a
  // 7-point remainder that batches 4 and runs 3 point by point.
  sweep::SweepSpec spec;
  spec.base.system = {500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  spec.axes = {
      sweep::values(sweep::Variable::kDriverResistance, {900.0, 600.0, 300.0, 100.0}),
      sweep::values(sweep::Variable::kLoadCapacitance,
                    {0.5e-12, 0.1e-12, 1e-12, 0.5e-12}),
      sweep::values(sweep::Variable::kLineInductance, {1e-7, 1e-8, 1e-7}),
  };
  ASSERT_EQ(spec.size(), 48u);
  std::vector<double> reference;
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      sweep::EngineOptions options = batch_options(threads, lanes, spec);
      options.segments = 10;
      const sweep::SweepEngine engine(options);
      const auto result = engine.run(spec, sweep::Analysis::kTransientDelay);
      if (reference.empty()) {
        reference = result.values;
        for (double v : reference) EXPECT_TRUE(std::isfinite(v));
      }
      expect_bits_equal(reference, result.values, "delay-ordered tiles");
      const std::size_t batched = lanes == 1 ? 0 : 44;
      EXPECT_EQ(result.batched_points, batched) << lanes << " lanes, " << threads;
      EXPECT_EQ(result.scalar_points, 48 - batched) << lanes << " lanes, " << threads;
    }
  }
  // Duplicate points (load-capacitance indices 0 and 3) share their bytes.
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t l = 0; l < 3; ++l)
      EXPECT_EQ(std::memcmp(&reference[spec.flat_index({r, 0, l})],
                            &reference[spec.flat_index({r, 3, l})], sizeof(double)),
                0)
          << r << ", " << l;
}

TEST(SweepBatch, PointWithoutDelayKeyFailsInItsOwnEvaluation) {
  // A negative inductance makes the eq. 9 ordering key throw; such points
  // sort last, and the sweep still reports the scenario's own error.
  sweep::SweepSpec spec = small_grid();
  const sweep::EngineOptions options = batch_options(2, 8, spec);
  spec.axes[1] = sweep::values(sweep::Variable::kLineInductance, {1e-8, -1e-8, 1e-7});
  const sweep::SweepEngine engine(options);
  EXPECT_THROW(engine.run(spec, sweep::Analysis::kTransientDelay), std::invalid_argument);
}

// ------------------------------------------------ batched crossing stop

constexpr double kDipEnd = 20e-12;    // the dipping lane's drive reaches 0
constexpr double kEdgeStart = 200e-12;  // every drive's rising edge
constexpr double kEdgeRise = 10e-12;

// A seeded tile of gate lines whose crossing times span more than 10x: lanes
// 0 and 1 are fast, the last lane is slow (about 3.7 ns), the lanes between
// are random in between (at most about 1.2 ns). All lanes share one PWL
// drive's corner times, so they share one step grid. Lane 1 starts from a
// DC level of 0.8, above the 50% threshold: its drive falls to 0 by kDipEnd
// and its output drops below the threshold before the common rising edge.
std::vector<sim::Circuit> stop_tile(std::size_t width, unsigned seed) {
  std::mt19937 rng(seed);
  const auto log_uniform = [&](double lo, double hi) {
    return std::exp(
        std::uniform_real_distribution<double>(std::log(lo), std::log(hi))(rng));
  };
  std::vector<sim::Circuit> tile;
  for (std::size_t lane = 0; lane < width; ++lane) {
    tline::GateLineLoad system;
    if (lane < 2) {
      system = {log_uniform(10.0, 30.0),
                {log_uniform(20.0, 60.0), 1e-9, 0.05e-12},
                log_uniform(0.01e-12, 0.03e-12)};
    } else if (lane + 1 == width) {
      system = {1000.0, {2000.0, 5e-8, 1e-12}, 1e-12};
    } else {
      system = {log_uniform(50.0, 500.0),
                {log_uniform(100.0, 1000.0), log_uniform(1e-9, 1e-7),
                 log_uniform(0.1e-12, 0.5e-12)},
                log_uniform(0.05e-12, 0.5e-12)};
    }
    sim::Circuit circuit = sim::build_gate_line_load(system, 5);
    const double v0 = lane == 1 ? 0.8 : 0.0;
    circuit.set_voltage_source_spec(
        0, sim::PwlSpec{{{0.0, v0},
                         {kDipEnd, 0.0},
                         {kEdgeStart, 0.0},
                         {kEdgeStart + kEdgeRise, 1.0}}});
    tile.push_back(std::move(circuit));
  }
  return tile;
}

// cache.lu_dt_batch lookups so far: one per batched step.
std::uint64_t batch_lu_lookups() {
  return obs::Counter("cache.lu_dt_batch.hits").total() +
         obs::Counter("cache.lu_dt_batch.misses").total();
}

// A tile stops stepping at its last lane's first crossing. Every crossing
// must still be the bytes of run_until_crossing on that circuit alone, for
// a window every lane crosses in (the stop ends the tile early) and for a
// window the slow lane misses (the tile runs to t_stop and that lane takes
// the auto-extend path). Width 1 steps the lanes of a width-8 tile one call
// each, through run_batched_crossings and through first_crossing, so it
// sees the same fast, dipping and slow lanes.
TEST(BatchedCrossingStop, CrossingsMatchSingleCircuitRuns) {
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    for (const unsigned seed : {11u, 12u, 13u}) {
      const std::vector<sim::Circuit> tile = stop_tile(width == 1 ? 8 : width, seed);
      for (const bool all_cross : {true, false}) {
        SCOPED_TRACE(std::to_string(width) + " lanes, seed " + std::to_string(seed) +
                     (all_cross ? ", every lane crosses" : ", slow lane extends"));
        sim::TransientOptions options;
        options.t_stop = all_cross ? 12e-9 : 2.5e-9;  // dt = t_stop / 4000
        sim::SolverReuse seeded;
        options.reuse = &seeded;
        sim::run_transient(tile[0], options);  // records the shared symbolics

        std::vector<double> expected, alone_crossings;
        std::size_t extended = 0;
        for (const sim::Circuit& circuit : tile) {
          sim::SolverReuse reuse = seeded;
          sim::TransientOptions alone = options;
          alone.reuse = &reuse;
          const full_record::DelayRun run =
              full_record::run_until_crossing(circuit, "out", 0.5, alone, "reference");
          expected.push_back(run.crossing);
          if (run.result.waveforms.time().back() > 2.0 * options.t_stop) ++extended;
          reuse = seeded;
          alone_crossings.push_back(
              sim::first_crossing(circuit, "out", 0.5, alone, "first crossing"));
        }
        const auto [fastest, slowest] = std::minmax_element(expected.begin(), expected.end());
        EXPECT_GT(*slowest / *fastest, 10.0);
        EXPECT_GT(expected[1], kEdgeStart);  // the dipping lane's crossing is on the edge
        EXPECT_EQ(extended, all_cross ? 0u : 1u);
        expect_bits_equal(expected, alone_crossings, "first_crossing");

        sim::SolverReuse batch_reuse = seeded;
        options.reuse = &batch_reuse;
        std::vector<double> crossings;
        std::uint64_t lookups = 0;  // the most of any one call
        for (std::size_t begin = 0; begin < tile.size(); begin += width) {
          const std::vector<sim::Circuit> call(
              tile.begin() + static_cast<std::ptrdiff_t>(begin),
              tile.begin() + static_cast<std::ptrdiff_t>(begin + width));
          const std::uint64_t lookups0 = batch_lu_lookups();
          const auto got = sim::run_batched_crossings(call, "out", 0.5, options, "stop tile");
          lookups = std::max(lookups, batch_lu_lookups() - lookups0);
          ASSERT_TRUE(got.has_value());
          crossings.insert(crossings.end(), got->begin(), got->end());
        }
        expect_bits_equal(expected, crossings, "stopped tile");
        if (all_cross && obs::metrics_enabled()) {
          // One lookup per step: a call stops about where its slowest lane
          // crosses, far short of the t_stop / dt = 4000 steps of its window.
          EXPECT_LT(lookups, 4000u);
          EXPECT_LE(static_cast<double>(lookups), *slowest / (options.t_stop / 4000.0) + 8.0);
        }
      }
    }
  }
}

// first_crossing keeps scalar bookkeeping: from an empty SolverReuse it
// records the system and DC symbolics (2 full factorizations), exactly as
// run_until_crossing does, and a batch can replay that record.
TEST(BatchedCrossingStop, SingleCircuitSeedsAnEmptyRecord) {
  const std::vector<sim::Circuit> tile = stop_tile(4, 21u);
  sim::TransientOptions options;
  options.t_stop = 12e-9;

  sim::SolverReuse full_record;
  options.reuse = &full_record;
  const double expected =
      full_record::run_until_crossing(tile[3], "out", 0.5, options, "reference").crossing;

  sim::SolverReuse record;
  options.reuse = &record;
  const double crossing = sim::first_crossing(tile[3], "out", 0.5, options, "seed");
  EXPECT_EQ(std::memcmp(&crossing, &expected, sizeof(double)), 0);
  EXPECT_EQ(record.symbolic_factorizations, 2u);
  EXPECT_EQ(record.symbolic_factorizations, full_record.symbolic_factorizations);
  EXPECT_EQ(record.reuse_hits, 0u);
  ASSERT_TRUE(record.system_symbolic && record.dc_symbolic);
  ASSERT_TRUE(record.system_pattern && record.dc_pattern);

  // The record replays: a second run and a batch factorize nothing in full.
  record.symbolic_factorizations = 0;
  const double again = sim::first_crossing(tile[3], "out", 0.5, options, "replay");
  EXPECT_EQ(std::memcmp(&again, &expected, sizeof(double)), 0);
  const auto batch = sim::run_batched_crossings(tile, "out", 0.5, options, "replay tile");
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(std::memcmp(&(*batch)[3], &expected, sizeof(double)), 0);
  EXPECT_EQ(record.symbolic_factorizations, 0u);
  EXPECT_EQ(record.reuse_hits, 1u + 4u);
}

// first_crossing throws what run_until_crossing throws.
TEST(BatchedCrossingStop, SingleCircuitErrorsMatchRunUntilCrossing) {
  const sim::Circuit circuit = stop_tile(4, 22u)[3];
  sim::TransientOptions options;
  options.t_stop = 12e-9;
  options.dt = -1.0;
  EXPECT_THROW(full_record::run_until_crossing(circuit, "out", 0.5, options, "bad dt"),
               std::invalid_argument);
  EXPECT_THROW(sim::first_crossing(circuit, "out", 0.5, options, "bad dt"),
               std::invalid_argument);
  options.dt = 0.0;
  for (const char* node : {"nowhere", "0"}) {
    EXPECT_THROW(full_record::run_until_crossing(circuit, node, 0.5, options, "node"),
                 std::out_of_range);
    EXPECT_THROW(sim::first_crossing(circuit, node, 0.5, options, "node"),
                 std::out_of_range);
  }
  // Above the 1 V drive: no attempt ever crosses.
  EXPECT_THROW(full_record::run_until_crossing(circuit, "out", 2.0, options, "never"),
               std::runtime_error);
  EXPECT_THROW(sim::first_crossing(circuit, "out", 2.0, options, "never"),
               std::runtime_error);
}

// Every transient-delay sweep path stops at its crossing: a lanes = 1
// sweep, a per-scenario-horizon (t_stop = 0) sweep and a W = 8 sweep whose
// 7-point remainder splits into a W = 4 batch and three single points must
// each give, per point, the bytes of run_until_crossing on that point alone
// (replaying the symbolics that grid point 0 records, as the sweep does).
TEST(SweepBatch, EveryPathMatchesPerPointRunUntilCrossing) {
  sweep::SweepSpec spec;
  spec.base.system = {500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  spec.axes = {
      sweep::values(sweep::Variable::kDriverResistance, {900.0, 600.0, 300.0, 100.0}),
      sweep::values(sweep::Variable::kLoadCapacitance, {0.5e-12, 0.1e-12, 1e-12}),
      sweep::values(sweep::Variable::kLineInductance, {1e-7, 1e-8, 3e-8, 1e-6}),
  };
  ASSERT_EQ(spec.size() % 8, 0u);  // 47 points after the reference: 7 left over
  const sweep::EngineOptions tiled = [&] {
    sweep::EngineOptions options = batch_options(2, 8, spec);
    options.segments = 10;
    return options;
  }();
  sweep::EngineOptions scalar = tiled;
  scalar.lanes = 1;
  sweep::EngineOptions per_scenario = tiled;
  per_scenario.t_stop = 0.0;
  per_scenario.dt = 0.0;

  for (const sweep::EngineOptions& options : {scalar, per_scenario, tiled}) {
    SCOPED_TRACE("lanes " + std::to_string(options.lanes) + ", t_stop " +
                 std::to_string(options.t_stop));
    sim::SolverReuse recorded;
    std::vector<double> expected;
    for (std::size_t flat = 0; flat < spec.size(); ++flat) {
      const tline::GateLineLoad system = spec.at(flat).system;
      sim::TransientOptions transient;
      transient.t_stop = options.t_stop > 0.0 ? options.t_stop
                                              : sim::default_transient_horizon(system);
      transient.dt = options.dt;
      sim::SolverReuse reuse = recorded;
      transient.reuse = flat == 0 ? &recorded : &reuse;
      expected.push_back(full_record::run_until_crossing(
                             sim::build_gate_line_load(system, options.segments), "out",
                             0.5, transient, "per point")
                             .crossing);
    }
    const sweep::SweepEngine engine(options);
    const auto result = engine.run(spec, sweep::Analysis::kTransientDelay);
    expect_bits_equal(expected, result.values, "sweep vs per-point runs");
    EXPECT_EQ(result.symbolic_factorizations, 2u);
    EXPECT_EQ(result.batched_points, options.lanes == 8 && options.t_stop > 0.0 ? 44u : 0u);
  }
}

// ------------------------------------------------- probe recorder

struct ProbeRun {
  sim::TransientMeasurement got;  // measure_transient
  full_record::Measured want;     // run_transient + Trace, same attempt
};

// Runs both and memcmps every reading. A run with an extremum probe, or
// with no crossing probe, goes to t_stop, so its fire times and step count
// must match the full record's too.
ProbeRun expect_matches_full_record(const sim::Circuit& circuit,
                                    const std::vector<sim::CrossingProbe>& crossings,
                                    const std::vector<std::string>& extrema,
                                    const sim::TransientOptions& options) {
  ProbeRun run{sim::measure_transient(circuit, crossings, extrema, options, "measure"),
               full_record::measure(circuit, crossings, extrema, options, "measure")};
  const sim::TransientMeasurement& want = run.want.readings;
  expect_bits_equal(run.got.crossings, want.crossings, "crossings");
  EXPECT_EQ(run.got.extrema.size(), want.extrema.size());
  for (std::size_t k = 0; k < std::min(run.got.extrema.size(), want.extrema.size()); ++k) {
    expect_bits_equal({run.got.extrema[k].min, run.got.extrema[k].max},
                      {want.extrema[k].min, want.extrema[k].max}, extrema[k].c_str());
  }
  if (!extrema.empty() || crossings.empty()) {
    expect_bits_equal(run.got.buffer_fire_times, want.buffer_fire_times, "fire times");
    EXPECT_EQ(run.got.steps, want.steps);
  } else {
    EXPECT_LE(run.got.steps, want.steps);
  }
  return run;
}

// Per node, the 10/50/90% crossing probes of a 0 -> vdd response.
std::vector<sim::CrossingProbe> band_probes(const std::vector<std::string>& nodes,
                                            double vdd) {
  std::vector<sim::CrossingProbe> probes;
  for (const std::string& node : nodes)
    for (const double fraction : {0.1, 0.5, 0.9}) probes.push_back({node, fraction * vdd});
  return probes;
}

// Each node's 10-90 span off the probes vs Trace::rise_time on the record.
void expect_spans_match(const ProbeRun& run, const std::vector<std::string>& nodes,
                        double vdd) {
  for (std::size_t s = 0; s < nodes.size(); ++s) {
    const double span = run.got.crossings[3 * s + 2] - run.got.crossings[3 * s];
    const double rise = run.want.result.waveforms.trace(nodes[s]).rise_time(vdd);
    EXPECT_GT(rise, 0.0) << nodes[s];
    EXPECT_EQ(std::memcmp(&span, &rise, sizeof(double)), 0) << nodes[s];
  }
}

TEST(Measure, MatchesFullRecord) {
  // Seeded RLC ladders, underdamped to overdamped: crossings + extrema,
  // extremum only, and crossing only (which stops early).
  for (const unsigned seed : {31u, 32u, 33u}) {
    SCOPED_TRACE("ladder seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    const auto log_uniform = [&](double lo, double hi) {
      return std::exp(
          std::uniform_real_distribution<double>(std::log(lo), std::log(hi))(rng));
    };
    const tline::GateLineLoad system{log_uniform(20.0, 500.0),
                                     {log_uniform(20.0, 1000.0), log_uniform(1e-9, 1e-7),
                                      log_uniform(0.1e-12, 1e-12)},
                                     log_uniform(0.01e-12, 0.5e-12)};
    const sim::Circuit circuit = sim::build_gate_line_load(system, 8);
    sim::TransientOptions options;
    options.t_stop = sim::default_transient_horizon(system);
    const ProbeRun both = expect_matches_full_record(
        circuit, band_probes({"out", "drv"}, 1.0), {"out", "drv"}, options);
    expect_spans_match(both, {"out", "drv"}, 1.0);
    expect_matches_full_record(circuit, {}, {"out"}, options);
    const ProbeRun crossing_only =
        expect_matches_full_record(circuit, {{"out", 0.5}}, {}, options);
    EXPECT_LT(crossing_only.got.steps, crossing_only.want.readings.steps);
  }

  // A 3-line coupled bus: a switching victim (crossing + extremum) and a
  // quiet one (extremum only).
  const tline::CoupledBus bus = tline::make_bus(3, {300.0, 2e-8, 1e-12}, 0.5, 0.3);
  sim::TransientOptions bus_options;
  bus_options.t_stop = 2e-9;
  {
    SCOPED_TRACE("coupled bus, opposite phase");
    const sim::Circuit circuit = sim::build_coupled_bus(
        bus, {sim::BusDrive::kFalling, sim::BusDrive::kRising, sim::BusDrive::kFalling},
        100.0, 20e-15, 8);
    expect_matches_full_record(circuit, {{"line1.out", 0.5}}, {"line1.out"}, bus_options);
  }
  {
    SCOPED_TRACE("coupled bus, quiet victim");
    const sim::Circuit circuit = sim::build_coupled_bus(
        bus, {sim::BusDrive::kRising, sim::BusDrive::kQuietLow, sim::BusDrive::kRising},
        100.0, 20e-15, 8);
    const ProbeRun quiet = expect_matches_full_record(circuit, {}, {"line1.out"}, bus_options);
    EXPECT_GT(quiet.got.extrema[0].max, 0.0);  // coupled noise, not a flat line
  }

  // A buffered repeater chain: the fire times come from the same run.
  {
    SCOPED_TRACE("repeater chain");
    sim::RepeaterChainSpec chain;
    chain.line = {300.0, 3e-9, 3e-12};
    chain.sections = 3;
    chain.size = 10.0;
    chain.r0 = 1000.0;
    chain.c0 = 5e-15;
    chain.segments_per_section = 10;
    const sim::Circuit circuit = sim::build_repeater_chain(chain);
    sim::TransientOptions options;
    options.t_stop = 2e-9;
    const ProbeRun run = expect_matches_full_record(circuit, {{"stage3.out", 0.5}},
                                                    {"stage3.out"}, options);
    ASSERT_EQ(run.got.buffer_fire_times.size(), 2u);
    for (const double fired : run.got.buffer_fire_times) EXPECT_TRUE(std::isfinite(fired));
  }

  // A 4-level buffered H-tree: 10/50/90% at every sink, crossing only.
  {
    SCOPED_TRACE("4-level H-tree");
    graph::HTreeSpec spec;
    spec.levels = 4;
    spec.root_line = {150.0, 5e-10, 3e-13};
    spec.taper = 0.6;
    spec.buffer = {3000.0, 5e-15, 1.0, 0.0};
    spec.size = 32.0;
    spec.source_rise = 2e-11;
    spec.segments_per_branch = 5;
    spec.sink_capacitance = 2e-14;
    spec.sink_imbalance = 0.15;
    std::vector<std::string> sinks;
    const sim::Circuit circuit = graph::build_h_tree_circuit(spec, &sinks);
    ASSERT_EQ(sinks.size(), 16u);
    sim::TransientOptions options;
    options.t_stop = 1e-9;
    const ProbeRun run =
        expect_matches_full_record(circuit, band_probes(sinks, spec.vdd), {}, options);
    expect_spans_match(run, sinks, spec.vdd);
  }
}

TEST(Measure, ExtendsUntilEveryProbeCrosses) {
  // A slow gate line ("out", crossed only on the third attempt) beside a
  // ringing line driven by a 70 ps pulse ("a.out"). The pulse rings out
  // inside every attempt, and the first attempt's finer step resolves a
  // higher peak than the last one's: extrema that did not restart with each
  // attempt would keep it.
  sim::Circuit circuit =
      sim::build_gate_line_load({1000.0, {2000.0, 5e-8, 1e-12}, 1e-12}, 5);
  circuit.add_voltage_source(
      "a.in", "0", sim::PwlSpec{{{0.0, 0.0}, {10e-12, 1.0}, {60e-12, 1.0}, {70e-12, 0.0}}},
      "va");
  circuit.add_resistor("a.in", "a.drv", 20.0, "ra");
  sim::add_rlc_ladder(circuit, "a", "a.drv", "a.out", {20.0, 5e-9, 0.2e-12}, 6);
  circuit.add_capacitor("a.out", "0", 20e-15, 0.0, "ca");
  sim::TransientOptions options;
  options.t_stop = 0.3e-9;

  const ProbeRun run =
      expect_matches_full_record(circuit, {{"out", 0.5}}, {"a.out"}, options);
  EXPECT_NEAR(run.want.result.waveforms.time().back(), 16.0 * options.t_stop,
              1e-6 * options.t_stop);
  const sim::Trace first_attempt = sim::run_transient(circuit, options).waveforms.trace("a.out");
  EXPECT_GT(first_attempt.max_value(), run.got.extrema[0].max);
  EXPECT_LT(first_attempt.min_value(), run.got.extrema[0].min);

  const ProbeRun crossing_only = expect_matches_full_record(circuit, {{"out", 0.5}}, {}, options);
  EXPECT_LT(crossing_only.got.steps, crossing_only.want.readings.steps);
}

TEST(Measure, NeverCrossingProbeThrowsTheFullRecordsMessage) {
  const sim::Circuit circuit = stop_tile(4, 23u)[3];
  sim::TransientOptions options;
  options.t_stop = 12e-9;
  // "out" crosses 0.5 but never 2.0, above the 1 V drive.
  const std::vector<sim::CrossingProbe> probes{{"out", 0.5}, {"out", 2.0}};
  std::string got, want;
  try {
    sim::measure_transient(circuit, probes, {"out"}, options, "never");
  } catch (const std::runtime_error& e) {
    got = e.what();
  }
  try {
    full_record::measure(circuit, probes, {"out"}, options, "never");
  } catch (const std::runtime_error& e) {
    want = e.what();
  }
  EXPECT_EQ(got, "never: 'out' never crossed the threshold within the (auto-extended) horizon");
  EXPECT_EQ(got, want);
  EXPECT_THROW(sim::measure_transient(circuit, {}, {"nowhere"}, options, "node"),
               std::out_of_range);
}

TEST(Measure, NodePastTheLevelAtTimeZero) {
  // stop_tile's lane 1 starts at 0.8 V: its first RISING 0.5 crossing is on
  // the common edge, after the dip, in the recorder as in the record.
  const sim::Circuit circuit = stop_tile(4, 24u)[1];
  sim::TransientOptions options;
  options.t_stop = 12e-9;
  const ProbeRun run =
      expect_matches_full_record(circuit, {{"out", 0.5}}, {"out"}, options);
  EXPECT_GT(run.got.crossings[0], kEdgeStart);
  EXPECT_LT(run.got.extrema[0].min, 0.5);
  EXPECT_GE(run.got.extrema[0].max, 0.8);
}

// ------------------------------------------- zero-coupling pattern fork

TEST(ZeroCouplingPattern, StructuralStampsKeepOnePattern) {
  const tline::LineParams line{1000.0, 1e-7, 1e-12};
  const auto bus_of = [&](double cc_ratio) {
    return tline::make_bus(2, line, cc_ratio, 0.0);
  };
  const auto circuit_of = [&](double cc_ratio) {
    sim::Circuit c;
    c.add_resistor("in0", "0", 50.0, "g0");
    c.add_resistor("in1", "0", 50.0, "g1");
    sim::add_coupled_bus(c, "bus", {"in0", "in1"}, {"out0", "out1"},
                         bus_of(cc_ratio), 6);
    return c;
  };
  const sim::MnaAssembler zero(circuit_of(0.0));
  const sim::MnaAssembler coupled(circuit_of(0.5));
  EXPECT_EQ(zero.system_pattern()->row_ptr, coupled.system_pattern()->row_ptr);
  EXPECT_EQ(zero.system_pattern()->col_idx, coupled.system_pattern()->col_idx);
}

// The acceptance regression: a coupling axis whose range INCLUDES 0 stays
// on the 1-symbolic-factorization-per-matrix-kind contract (2 total).
TEST(ZeroCouplingPattern, SweepThroughZeroKeepsTwoFactorizations) {
  sweep::SweepSpec spec;
  spec.base.system = {500.0, {1000.0, 1e-7, 1e-12}, 0.5e-12};
  spec.base.xtalk.bus_lines = 3;
  spec.axes = {
      sweep::values(sweep::Variable::kCouplingCapRatio, {0.0, 0.3, 0.6})};
  sweep::EngineOptions options;
  options.segments = 12;
  options.threads = 1;
  const sweep::SweepEngine engine(options);
  const auto result = engine.run(spec, sweep::Analysis::kCrosstalkNoise);
  ASSERT_EQ(result.values.size(), 3u);
  for (double v : result.values) EXPECT_TRUE(std::isfinite(v));
  EXPECT_EQ(result.symbolic_factorizations, 2u);
}

}  // namespace
