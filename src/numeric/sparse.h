// Sparse linear algebra for the MNA hot paths.
//
// The simulator's matrices (N-segment RLC ladders, repeater chains, coupled
// buses) are >99% zero and nearly banded, and — crucially — every transient
// step size and every AC frequency point shares ONE sparsity pattern: the
// system is always G + scale*C for a frequency/timestep-independent
// conductance pattern G and susceptance pattern C. This header provides the
// three pieces that exploit that:
//
//  * triplet (COO) assembly compressed into CSR with duplicate summing, with
//    a slot map so re-stamping new VALUES into a fixed pattern is a flat
//    array write (no hashing, no searching);
//  * a fill-reducing reverse Cuthill-McKee (RCM) ordering, which makes the
//    ladder matrices nearly banded so LU fill stays O(n);
//  * a left-looking sparse LU (Gilbert–Peierls) with partial pivoting whose
//    symbolic factorization (fill pattern + pivot order) is computed once
//    and then reused by `refactor()` for every subsequent value change —
//    the KLU-style refactorization that turns an AC sweep or a multi-dt
//    transient into one symbolic analysis plus cheap numeric passes.
//
// The simulator's transient, DC and AC analyses all solve through this
// sparse LU. The dense LuFactorization in matrix.h stays as the tests'
// correctness oracle and the solver for small dense (MOR q x q) systems.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "numeric/matrix.h"

namespace rlcsim::numeric {

struct LuProgram;  // numeric/lu_program.h

// ------------------------------------------------------------------ pattern

// One (row, col, value) assembly entry. Duplicates are summed on compression.
template <typename T>
struct Triplet {
  int row = 0;
  int col = 0;
  T value{};
};

// Sparsity structure of a square CSR matrix, shared (via shared_ptr) between
// every matrix/factorization with the same pattern: real transient systems,
// complex AC systems, and the LU symbolic analysis all point at one copy.
struct SparsePattern {
  int n = 0;                 // square dimension
  std::vector<int> row_ptr;  // size n + 1
  std::vector<int> col_idx;  // size nnz, ascending within each row

  int nnz() const { return static_cast<int>(col_idx.size()); }
};

using SparsePatternPtr = std::shared_ptr<const SparsePattern>;

// True when two patterns have the same structure (dimension, row pointers
// and column indices), whether or not they are the same object.
inline bool same_structure(const SparsePattern& a, const SparsePattern& b) {
  return a.n == b.n && a.row_ptr == b.row_ptr && a.col_idx == b.col_idx;
}

// Compresses entry positions into a CSR pattern (duplicates merged, columns
// sorted). If `slots` is non-null, slots->at(k) receives the index into the
// CSR value array where entry k lands, so assembly loops can re-stamp values
// with `values[slots[k]] += v` and never touch the pattern again.
SparsePatternPtr build_pattern(int n, const std::vector<std::pair<int, int>>& entries,
                               std::vector<int>* slots = nullptr);

// --------------------------------------------------------------------- CSR

template <typename T>
class SparseMatrix {
 public:
  SparseMatrix() = default;

  // An all-zero matrix over an existing pattern (values to be stamped).
  explicit SparseMatrix(SparsePatternPtr pattern)
      : pattern_(std::move(pattern)),
        values_(static_cast<std::size_t>(pattern_->nnz()), T{}) {}

  SparseMatrix(SparsePatternPtr pattern, std::vector<T> values)
      : pattern_(std::move(pattern)), values_(std::move(values)) {
    if (values_.size() != static_cast<std::size_t>(pattern_->nnz()))
      throw std::invalid_argument("SparseMatrix: values/pattern size mismatch");
  }

  // Convenience: compress a triplet list (duplicates summed).
  SparseMatrix(int n, const std::vector<Triplet<T>>& triplets);

  int size() const { return pattern_ ? pattern_->n : 0; }
  int nnz() const { return pattern_ ? pattern_->nnz() : 0; }
  const SparsePattern& pattern() const { return *pattern_; }
  const SparsePatternPtr& pattern_ptr() const { return pattern_; }
  std::vector<T>& values() { return values_; }
  const std::vector<T>& values() const { return values_; }

  // y = A x (for residual checks and tests).
  std::vector<T> multiply(const std::vector<T>& x) const;

  Matrix<T> to_dense() const;

 private:
  SparsePatternPtr pattern_;
  std::vector<T> values_;
};

using RealSparse = SparseMatrix<double>;
using ComplexSparse = SparseMatrix<std::complex<double>>;

// ---------------------------------------------------------------- ordering

// Reverse Cuthill-McKee ordering of the symmetrized pattern; perm[new] = old.
// Handles disconnected components; starts each component from a
// pseudo-peripheral vertex found by repeated BFS.
std::vector<int> rcm_ordering(const SparsePattern& pattern);

// --------------------------------------------------------------------- LU

// Sparse LU with partial pivoting and symbolic-factorization reuse.
//
// Construction performs the full (symbolic + numeric) factorization:
// RCM pre-ordering (above 2 unknowns), then a left-looking column
// factorization that discovers the fill pattern by depth-first reachability
// and pivots by magnitude.
// `refactor(a)` accepts a matrix with the same pattern — pointer-identical
// or structurally identical (a sweep rebuilds topologically identical
// circuits per grid point, each with its own pattern allocation) — and
// redoes only the numeric work along the recorded pattern with the recorded
// pivot sequence — no graph traversal, no allocation. If the recorded pivot
// sequence hits an exactly-zero pivot on the new values, refactor falls back
// to a fresh full factorization (a new symbolic analysis) rather than
// failing, and reports that it did so.
//
// The recorded structure is compiled once per symbolic analysis into an
// immutable solve program (numeric/lu_program.h) that every copy shares;
// copying a SparseLu copies only the numeric factors, so copy + refactor is
// the cheap way to hold several numeric factorizations (e.g. one per
// transient step size) over one symbolic analysis. A re-pivot compiles a
// new program for the re-pivoted copy alone.
template <typename T>
class SparseLu {
 public:
  explicit SparseLu(const SparseMatrix<T>& a);

  // Numeric-only refactorization; `a` must share the constructor's pattern.
  // Returns true when the zero-pivot fallback re-pivoted, i.e. the call
  // performed a full symbolic + numeric factorization instead.
  bool refactor(const SparseMatrix<T>& a);

  std::size_t size() const { return static_cast<std::size_t>(n_); }

  std::vector<T> solve(const std::vector<T>& b) const;
  // In-place variant for hot loops. Allocates nothing and writes no state
  // of the factorization, so threads may solve through one const SparseLu.
  void solve_in_place(std::vector<T>& x) const;

  // Fill statistics (L + U stored entries, including both diagonals).
  std::size_t factor_nnz() const { return lx_.size() + ux_.size(); }

 private:
  // The scenario-batched value layer replays this factorization's program
  // for W value lanes at once (numeric/sparse_batch.h).
  friend class SparseLuBatch;

  // A factorization over an existing program whose factors are still to be
  // computed by refactor() (the batch's per-lane scalar fallback).
  SparseLu(SparsePatternPtr pattern, std::shared_ptr<const LuProgram> program);

  // Factors `a` with pivoting over `program`'s ordering (perm + CSC map) and
  // compiles the result into program_.
  void full_factor(const SparseMatrix<T>& a, LuProgram program);
  bool numeric_refactor(const SparseMatrix<T>& a);

  int n_ = 0;
  SparsePatternPtr pattern_;  // of the assembled matrix (for refactor checks)
  std::shared_ptr<const LuProgram> program_;
  // Factor values of P2 * A(perm, perm) = L * U, in program_'s L/U entry
  // order.
  std::vector<T> lx_, ux_;
  std::vector<T> refactor_work_;  // refactor scratch; solves need none
};

using RealSparseLu = SparseLu<double>;
using ComplexSparseLu = SparseLu<std::complex<double>>;

}  // namespace rlcsim::numeric
