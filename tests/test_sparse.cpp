// Sparse CSR assembly, RCM ordering, and sparse LU (symbolic reuse) tests.
// The dense LuFactorization is the oracle throughout.
#include "numeric/sparse.h"

#include <cmath>
#include <complex>
#include <random>
#include <stdexcept>

#include <gtest/gtest.h>

#include "numeric/matrix.h"
#include "obs/metrics.h"

namespace {

using namespace rlcsim::numeric;
namespace obs = rlcsim::obs;

// Passes recorded so far in one of the write-only lu.* counters. They read 0
// under RLCSIM_METRICS=0, so the pass-count checks run only with metrics on.
std::uint64_t lu_passes(const char* counter) { return obs::Counter(counter).total(); }

TEST(Pattern, MergesDuplicatesAndSorts) {
  std::vector<std::pair<int, int>> entries{{1, 2}, {0, 0}, {1, 2}, {1, 0}, {0, 0}};
  std::vector<int> slots;
  const auto pattern = build_pattern(3, entries, &slots);
  EXPECT_EQ(pattern->n, 3);
  EXPECT_EQ(pattern->nnz(), 3);  // (0,0), (1,0), (1,2)
  EXPECT_EQ(pattern->row_ptr, (std::vector<int>{0, 1, 3, 3}));
  EXPECT_EQ(pattern->col_idx, (std::vector<int>{0, 0, 2}));
  // Duplicate entries share a slot.
  EXPECT_EQ(slots[0], slots[2]);
  EXPECT_EQ(slots[1], slots[4]);
  EXPECT_NE(slots[0], slots[3]);
}

TEST(Pattern, RejectsOutOfRange) {
  EXPECT_THROW(build_pattern(2, {{0, 2}}), std::out_of_range);
  EXPECT_THROW(build_pattern(2, {{-1, 0}}), std::out_of_range);
}

TEST(SparseMatrixTest, TripletAssemblySumsDuplicates) {
  std::vector<Triplet<double>> t{{0, 0, 1.0}, {0, 1, 2.0}, {0, 0, 3.0}, {1, 1, 5.0}};
  const RealSparse a(2, t);
  EXPECT_EQ(a.nnz(), 3);
  const auto dense = a.to_dense();
  EXPECT_DOUBLE_EQ(dense(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(dense(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(dense(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(dense(1, 1), 5.0);
  const auto y = a.multiply({1.0, 10.0});
  EXPECT_DOUBLE_EQ(y[0], 24.0);
  EXPECT_DOUBLE_EQ(y[1], 50.0);
}

TEST(Rcm, IsAPermutation) {
  // Arrow matrix: dense first row/column + diagonal.
  std::vector<std::pair<int, int>> entries;
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    entries.push_back({i, i});
    entries.push_back({0, i});
    entries.push_back({i, 0});
  }
  const auto pattern = build_pattern(n, entries);
  const auto perm = rcm_ordering(*pattern);
  ASSERT_EQ(perm.size(), static_cast<std::size_t>(n));
  std::vector<char> seen(n, 0);
  for (int p : perm) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, n);
    EXPECT_FALSE(seen[p]);
    seen[p] = 1;
  }
}

TEST(Rcm, ReducesTridiagonalScramble) {
  // A tridiagonal matrix with rows randomly relabeled has a huge bandwidth;
  // RCM must recover an O(1) bandwidth.
  const int n = 64;
  std::mt19937 rng(7);
  std::vector<int> label(n);
  for (int i = 0; i < n; ++i) label[i] = i;
  std::shuffle(label.begin(), label.end(), rng);
  std::vector<std::pair<int, int>> entries;
  for (int i = 0; i < n; ++i) {
    entries.push_back({label[i], label[i]});
    if (i + 1 < n) {
      entries.push_back({label[i], label[i + 1]});
      entries.push_back({label[i + 1], label[i]});
    }
  }
  const auto pattern = build_pattern(n, entries);
  const auto perm = rcm_ordering(*pattern);
  std::vector<int> inv(n);
  for (int k = 0; k < n; ++k) inv[perm[k]] = k;
  int bandwidth = 0;
  for (const auto& [r, c] : entries) bandwidth = std::max(bandwidth, std::abs(inv[r] - inv[c]));
  EXPECT_LE(bandwidth, 2);
}

// Deterministic random sparse diagonally-bumped system; returns the triplets.
std::vector<Triplet<double>> random_system(int n, double density, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<Triplet<double>> t;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) {
        t.push_back({i, j, 2.0 + value(rng)});  // keep it comfortably nonsingular
      } else if (coin(rng) < density) {
        t.push_back({i, j, value(rng)});
      }
    }
  return t;
}

class SparseVsDense : public ::testing::TestWithParam<int> {};

TEST_P(SparseVsDense, MatchesDenseLuOnRandomSparseSystems) {
  const int n = GetParam();
  for (unsigned seed = 1; seed <= 3; ++seed) {
    const RealSparse a(n, random_system(n, 4.0 / n, seed));
    const RealLu dense(a.to_dense());
    const RealSparseLu sparse(a);
    std::vector<double> b(n);
    for (int i = 0; i < n; ++i) b[i] = std::sin(0.3 * i + seed);
    const auto xd = dense.solve(b);
    const auto xs = sparse.solve(b);
    for (int i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9) << "n=" << n << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseVsDense, ::testing::Values(1, 2, 5, 17, 60, 200));

TEST(SparseLuTest, ZeroDiagonalNeedsPivoting) {
  // MNA-style saddle point: [[0, 1], [1, 1]] — no valid factorization without
  // row pivoting.
  std::vector<Triplet<double>> t{{0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}};
  const RealSparse a(2, t);
  const RealSparseLu lu(a);
  const auto x = lu.solve({2.0, 5.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SparseLuTest, SingularThrows) {
  std::vector<Triplet<double>> t{{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 2.0}, {1, 1, 4.0}};
  const RealSparse a(2, t);
  EXPECT_THROW(RealSparseLu{a}, std::runtime_error);
}

TEST(SparseLuTest, RefactorReusesSymbolicAnalysis) {
  const int n = 40;
  RealSparse a(n, random_system(n, 0.1, 11));
  const std::uint64_t symbolic0 = lu_passes("lu.symbolic");
  const std::uint64_t numeric0 = lu_passes("lu.numeric");
  RealSparseLu lu(a);
  if (obs::metrics_enabled()) {
    EXPECT_EQ(lu_passes("lu.symbolic") - symbolic0, 1u);
    EXPECT_EQ(lu_passes("lu.numeric") - numeric0, 1u);
  }

  // Rescale the values (same pattern), refactor, and check against dense.
  for (auto& v : a.values()) v *= 1.7;
  EXPECT_FALSE(lu.refactor(a)) << "refactor must not redo symbolic analysis";
  if (obs::metrics_enabled()) {
    EXPECT_EQ(lu_passes("lu.symbolic") - symbolic0, 1u)
        << "refactor must not redo symbolic analysis";
    EXPECT_EQ(lu_passes("lu.numeric") - numeric0, 2u);
  }

  const RealLu dense(a.to_dense());
  std::vector<double> b(n, 1.0);
  const auto xs = lu.solve(b);
  const auto xd = dense.solve(b);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9);
}

TEST(SparseLuTest, RefactorPatternMismatchThrows) {
  // Structurally DIFFERENT patterns are rejected...
  const std::vector<Triplet<double>> ta{{0, 0, 2.0}, {1, 1, 2.0}, {0, 1, 1.0}};
  const std::vector<Triplet<double>> tb{{0, 0, 2.0}, {1, 1, 2.0}, {1, 0, 1.0}};
  const RealSparse a(2, ta);
  const RealSparse b(2, tb);
  RealSparseLu lu(a);
  EXPECT_THROW(lu.refactor(b), std::invalid_argument);
}

TEST(SparseLuTest, RefactorAcceptsStructurallyIdenticalPattern) {
  // ...but a structurally identical pattern in a DIFFERENT object is
  // accepted — the sweep hot path rebuilds topologically identical circuits
  // per grid point, each with its own pattern allocation.
  const auto triplets = random_system(5, 1.0, 1);
  auto scaled = triplets;
  for (auto& t : scaled) t.value *= 3.0;
  const RealSparse a(5, triplets);
  const RealSparse b(5, scaled);  // same structure, new pattern object
  ASSERT_NE(a.pattern_ptr(), b.pattern_ptr());

  RealSparseLu lu(a);
  const std::uint64_t symbolic0 = lu_passes("lu.symbolic");
  EXPECT_FALSE(lu.refactor(b)) << "structural match must not re-analyze";
  EXPECT_EQ(lu_passes("lu.symbolic"), symbolic0) << "structural match must not re-analyze";
  const RealLu dense(b.to_dense());
  std::vector<double> rhs(5, 1.0);
  const auto xs = lu.solve(rhs);
  const auto xd = dense.solve(rhs);
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9);
}

TEST(SparseLuTest, RefactorFallsBackOnZeroPivot) {
  // First factor a well-behaved diagonal system; then zero the diagonal so
  // the recorded pivot order dies and the refactor must re-pivot (the values
  // remain solvable thanks to the off-diagonal entries).
  std::vector<Triplet<double>> t{
      {0, 0, 4.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 4.0}};
  RealSparse a(2, t);
  RealSparseLu lu(a);
  const std::uint64_t symbolic0 = lu_passes("lu.symbolic");
  a.values() = {0.0, 1.0, 1.0, 0.0};  // anti-diagonal permutation matrix
  EXPECT_TRUE(lu.refactor(a));  // fallback full factorization
  if (obs::metrics_enabled()) {
    EXPECT_EQ(lu_passes("lu.symbolic") - symbolic0, 1u);
  }
  const auto x = lu.solve({2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SparseLuTest, ComplexSystemMatchesDense) {
  using C = std::complex<double>;
  const int n = 30;
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<Triplet<C>> t;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j)
        t.push_back({i, j, C(3.0 + value(rng), value(rng))});
      else if (coin(rng) < 0.15)
        t.push_back({i, j, C(value(rng), value(rng))});
    }
  const ComplexSparse a(n, t);
  const ComplexLu dense(a.to_dense());
  const ComplexSparseLu sparse(a);
  std::vector<C> b(n);
  for (int i = 0; i < n; ++i) b[i] = C(std::cos(0.2 * i), std::sin(0.4 * i));
  const auto xd = dense.solve(b);
  const auto xs = sparse.solve(b);
  for (int i = 0; i < n; ++i) EXPECT_LT(std::abs(xs[i] - xd[i]), 1e-9);
}

TEST(SparseLuTest, SolveInPlaceReusesBuffer) {
  const RealSparse a(5, random_system(5, 0.5, 9));
  const RealSparseLu lu(a);
  std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto expect = lu.solve(x);
  lu.solve_in_place(x);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(x[i], expect[i]);
  EXPECT_THROW(lu.solve({1.0}), std::invalid_argument);
}

TEST(SparseLuTest, LadderSystemLowFill) {
  // 1-D chain (tridiagonal after RCM): fill must stay linear in n.
  const int n = 400;
  std::vector<Triplet<double>> t;
  for (int i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0});
    if (i + 1 < n) {
      t.push_back({i, i + 1, -1.0});
      t.push_back({i + 1, i, -1.0});
    }
  }
  const RealSparse a(n, t);
  const RealSparseLu lu(a);
  EXPECT_LE(lu.factor_nnz(), static_cast<std::size_t>(6 * n));
  // Spot-check the solution of the discrete Poisson problem.
  std::vector<double> b(n, 1.0);
  const auto x = lu.solve(b);
  const auto r = a.multiply(x);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(r[i], 1.0, 1e-9);
}

}  // namespace
