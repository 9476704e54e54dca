// Dense-vs-sparse LU scaling on the paper's core workload: N-segment
// distributed RLC ladders (gate + line + load) swept over segment count.
//
// Every analysis solves with the sparse LU; this bench keeps that decision
// measured. For each N it assembles the MNA system twice — the transient
// companion matrix G + (2/dt)*C (trapezoidal, dt = horizon / 4000) and the
// AC matrix G + s*C at 1 GHz — and times numeric::RealLu / ComplexLu against
// numeric::SparseLu on the SAME assembled matrix: a full factorization, the
// sparse numeric-only refactorization, and one solve. Both solve the same
// unit excitation of the driver source; max_abs_err is the largest
// difference between the two solutions. The dense LU is skipped above the
// size where O(n^3) stops being benchmarkable (null in the JSON).
//
// Each transient row also times numeric::SparseLuBatch solves at lane
// widths W = 1/4/8 (per-lane ns/solve and ns/nnz of the factors; lane w
// carries the matrix scaled by 1 + w/64 and the same excitation) and
// memcmps every lane against a scalar SparseLu refactor + solve of its
// values (batch_matches_scalar).
//
// Exit status: 1 if any max_abs_err exceeds 1e-9 (sparse vs dense oracle)
// or any batched lane differs from its scalar solve by a single bit.
//
// Usage: solver_scaling [--fast]
//   --fast   caps N at 500 (CI smoke run)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <numbers>
#include <vector>

#include "bench_util.h"
#include "numeric/matrix.h"
#include "numeric/sparse.h"
#include "numeric/sparse_batch.h"
#include "sim/builders.h"
#include "sim/mna.h"
#include "tline/rc_line.h"

namespace {

using namespace rlcsim;
using Clock = std::chrono::steady_clock;

constexpr double kMaxAbsErr = 1e-9;

// The benchmark workload: a strongly inductive on-chip line where the
// paper's analysis matters.
const tline::GateLineLoad& bench_system() {
  static const tline::GateLineLoad system{500.0, {500.0, 1e-7, 1e-12}, 0.5e-12};
  return system;
}

double transient_dt() {
  const auto& s = bench_system();
  const double elmore =
      tline::elmore_delay(s.driver_resistance, s.line.total_resistance,
                          s.line.total_capacitance, s.load_capacitance);
  const double tof = std::sqrt(s.line.total_inductance *
                               (s.line.total_capacitance + s.load_capacitance));
  return 8.0 * std::max(elmore, tof) / 4000.0;
}

// Mean wall time of one fn() call: repeats until 50 ms have elapsed.
template <typename Fn>
double seconds_per_call(Fn&& fn) {
  std::size_t calls = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < 0.05);
  return elapsed / static_cast<double>(calls);
}

volatile std::size_t g_sink = 0;  // keeps timed factorizations observable

struct Comparison {
  int nnz = 0;
  std::size_t factor_nnz = 0;
  double sparse_factor_s = 0.0;
  double sparse_refactor_s = 0.0;
  double sparse_solve_s = 0.0;
  bool have_dense = false;
  double dense_factor_s = 0.0;
  double dense_solve_s = 0.0;
  double max_abs_err = 0.0;
  // Batched solves (real transient matrices only), per lane width in
  // kBatchLaneWidths order.
  bool have_batch = false;
  double batch_lane_solve_s[3] = {0.0, 0.0, 0.0};
  bool batch_matches_scalar = true;
};

// Times W-lane SparseLuBatch solves over `a` (lane w: values scaled by
// 1 + w/64, right-hand side b) and memcmps each lane against a scalar
// refactor + solve of the same values.
void compare_batched(const numeric::RealSparse& a, const std::vector<double>& b,
                     Comparison& c) {
  const numeric::RealSparseLu donor(a);
  const std::size_t n = b.size();
  c.have_batch = true;
  for (std::size_t k = 0; k < std::size(numeric::kBatchLaneWidths); ++k) {
    const std::size_t lanes = numeric::kBatchLaneWidths[k];
    numeric::BatchedValues values(static_cast<std::size_t>(a.nnz()), lanes);
    numeric::BatchedValues rhs(n, lanes), x(n, lanes);
    std::vector<std::vector<double>> lane_values(lanes, a.values());
    for (std::size_t w = 0; w < lanes; ++w) {
      for (double& v : lane_values[w]) v *= 1.0 + static_cast<double>(w) / 64.0;
      values.set_lane(w, lane_values[w]);
      rhs.set_lane(w, b);
    }
    numeric::SparseLuBatch batch(donor, lanes);
    batch.refactor(values);
    c.batch_lane_solve_s[k] = seconds_per_call([&] {
                                std::copy(rhs.data(), rhs.data() + n * lanes, x.data());
                                batch.solve_in_place(x);
                              }) /
                              static_cast<double>(lanes);
    for (std::size_t w = 0; w < lanes; ++w) {
      numeric::RealSparseLu scalar(donor);
      scalar.refactor(numeric::RealSparse(a.pattern_ptr(), lane_values[w]));
      const std::vector<double> expected = scalar.solve(b);
      std::vector<double> got;
      x.extract_lane(w, got);
      c.batch_matches_scalar = c.batch_matches_scalar &&
                               std::memcmp(expected.data(), got.data(),
                                           n * sizeof(double)) == 0;
    }
  }
}

// Times SparseLu and (when with_dense) the dense LuFactorization on `a`,
// solving a x = b with each.
template <typename T>
Comparison compare_solvers(const numeric::SparseMatrix<T>& a,
                           const std::vector<T>& b, bool with_dense) {
  Comparison c;
  c.nnz = a.nnz();
  c.sparse_factor_s = seconds_per_call([&] { g_sink = numeric::SparseLu<T>(a).factor_nnz(); });
  numeric::SparseLu<T> sparse(a);
  c.factor_nnz = sparse.factor_nnz();
  c.sparse_refactor_s = seconds_per_call([&] { g_sink = sparse.refactor(a); });
  std::vector<T> xs;
  c.sparse_solve_s = seconds_per_call([&] {
    xs = b;
    sparse.solve_in_place(xs);
  });
  if (!with_dense) return c;

  c.have_dense = true;
  const numeric::Matrix<T> dense_a = a.to_dense();
  c.dense_factor_s = seconds_per_call(
      [&] { g_sink = numeric::LuFactorization<T>(dense_a).size(); });
  const numeric::LuFactorization<T> dense(dense_a);
  std::vector<T> xd;
  c.dense_solve_s = seconds_per_call([&] {
    xd = b;
    dense.solve_in_place(xd);
  });
  for (std::size_t i = 0; i < xs.size(); ++i)
    c.max_abs_err = std::max(c.max_abs_err, std::abs(xs[i] - xd[i]));
  return c;
}

void json_number_or_null(const char* key, double value, bool present) {
  if (present)
    std::printf("\"%s\": %.6e", key, value);
  else
    std::printf("\"%s\": null", key);
}

void print_row(int segments, std::size_t unknowns, const Comparison& c, bool last) {
  std::printf("    {\"segments\": %d, \"unknowns\": %zu, \"nnz\": %d, "
              "\"factor_nnz\": %zu, ",
              segments, unknowns, c.nnz, c.factor_nnz);
  std::printf("\"sparse_factor_s\": %.6e, \"sparse_refactor_s\": %.6e, "
              "\"sparse_solve_s\": %.6e, ",
              c.sparse_factor_s, c.sparse_refactor_s, c.sparse_solve_s);
  json_number_or_null("dense_factor_s", c.dense_factor_s, c.have_dense);
  std::printf(", ");
  json_number_or_null("dense_solve_s", c.dense_solve_s, c.have_dense);
  std::printf(", ");
  json_number_or_null("factor_speedup",
                      c.have_dense ? c.dense_factor_s / c.sparse_factor_s : 0.0,
                      c.have_dense);
  std::printf(", ");
  json_number_or_null("solve_speedup",
                      c.have_dense ? c.dense_solve_s / c.sparse_solve_s : 0.0,
                      c.have_dense);
  std::printf(", ");
  json_number_or_null("max_abs_err", c.max_abs_err, c.have_dense);
  if (c.have_batch) {
    for (std::size_t k = 0; k < std::size(numeric::kBatchLaneWidths); ++k) {
      const double ns = 1e9 * c.batch_lane_solve_s[k];
      std::printf(", \"batch_w%zu_lane_solve_ns\": %.1f, \"batch_w%zu_ns_per_nnz\": %.3f",
                  numeric::kBatchLaneWidths[k], ns, numeric::kBatchLaneWidths[k],
                  ns / static_cast<double>(c.factor_nnz));
    }
    std::printf(", \"batch_matches_scalar\": %s", c.batch_matches_scalar ? "true" : "false");
  }
  std::printf("}%s\n", last ? "" : ",");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = argc > 1 && std::strcmp(argv[1], "--fast") == 0;
  if (argc > 2 || (argc == 2 && !fast)) {
    std::fprintf(stderr, "usage: %s [--fast]\n", argv[0]);
    return 2;
  }
  std::vector<int> sizes{1, 2, 5, 10, 20, 50, 100, 200, 500};
  if (!fast) sizes.insert(sizes.end(), {1000, 2000});
  // O(n^3) ceilings: beyond these the dense LU takes many seconds per call.
  const int dense_transient_cap = 1000;
  const int dense_ac_cap = 500;
  const double dt = transient_dt();
  const std::complex<double> s_ac(0.0, 2.0 * std::numbers::pi * 1e9);

  std::printf("{\n");
  benchutil::manifest_json_block("solver_scaling");
  std::printf("  \"workload\": \"gate + N-segment RLC ladder + load "
              "(Rtr=500, Rt=500, Lt=1e-7, Ct=1e-12, CL=0.5e-12); transient "
              "trapezoidal dt=%.6e s, AC at 1 GHz\",\n", dt);

  bool accurate = true, identical = true;
  for (const bool ac : {false, true}) {
    std::printf("  \"%s\": [\n", ac ? "ac" : "transient");
    for (std::size_t idx = 0; idx < sizes.size(); ++idx) {
      const int n = sizes[idx];
      const sim::Circuit circuit = sim::build_gate_line_load(bench_system(), n);
      const sim::MnaAssembler mna(circuit);
      const std::size_t unknowns = mna.unknown_count();
      const std::size_t drive = mna.vsource_branch(0);
      Comparison c;
      if (ac) {
        numeric::ComplexSparse a(mna.system_pattern());
        mna.system_values(s_ac, a.values());
        std::vector<std::complex<double>> b(unknowns);
        b[drive] = 1.0;
        c = compare_solvers(a, b, n <= dense_ac_cap);
      } else {
        numeric::RealSparse a(mna.system_pattern());
        mna.system_values(
            sim::MnaAssembler::transient_scale(dt, sim::Integrator::kTrapezoidal),
            a.values());
        std::vector<double> b(unknowns);
        b[drive] = 1.0;
        c = compare_solvers(a, b, n <= dense_transient_cap);
        compare_batched(a, b, c);
      }
      accurate = accurate && c.max_abs_err <= kMaxAbsErr;
      identical = identical && c.batch_matches_scalar;
      print_row(n, unknowns, c, idx + 1 == sizes.size());
    }
    std::printf("  ],\n");
  }
  std::printf("  \"max_abs_err_ok\": %s,\n", accurate ? "true" : "false");
  std::printf("  \"batch_matches_scalar\": %s,\n", identical ? "true" : "false");
  benchutil::metrics_json_block(/*last=*/true);
  std::printf("}\n");
  if (!accurate)
    std::fprintf(stderr, "solver_scaling: sparse vs dense max_abs_err > %g\n",
                 kMaxAbsErr);
  if (!identical)
    std::fprintf(stderr, "solver_scaling: a batched lane differs from its scalar solve\n");
  return accurate && identical ? 0 : 1;
}
