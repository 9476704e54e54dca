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
// Copying a SparseLu copies the factors; copy + refactor is the cheap way to
// hold several numeric factorizations (e.g. one per transient step size)
// that share one symbolic analysis.
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
  // In-place variant for hot loops (no allocation beyond an internal
  // workspace reused across calls).
  void solve_in_place(std::vector<T>& x) const;

  // Fill statistics (L + U stored entries, including both diagonals).
  std::size_t factor_nnz() const { return li_.size() + ui_.size(); }

 private:
  // The scenario-batched value layer replays this factorization's recorded
  // elimination sequence for W value lanes at once (numeric/sparse_batch.h).
  friend class SparseLuBatch;

  void build_csc(const SparseMatrix<T>& a);
  void full_factor(const SparseMatrix<T>& a);
  bool numeric_refactor(const SparseMatrix<T>& a);

  int n_ = 0;
  SparsePatternPtr pattern_;  // of the assembled matrix (for refactor checks)

  // Symmetric fill-reducing permutation: perm_[new] = old, inv_perm_[old] = new.
  std::vector<int> perm_, inv_perm_;

  // CSC view of the permuted matrix A2 = A(perm, perm): for column j of A2,
  // csc_row_[p] is the A2 row index and csc_src_[p] the index into the input
  // CSR value array (so refactor scatters values without rebuilding).
  std::vector<int> csc_ptr_, csc_row_, csc_src_;

  // Factors of P2 * A2 = L * U. L columns store the unit diagonal first; U
  // columns store the pivot last. Row indices of L are in pivot (final)
  // order; U row indices are pivot-order too, stored in the topological
  // order the factorization discovered (which is what refactor replays).
  std::vector<int> lp_, li_, up_, ui_;
  std::vector<T> lx_, ux_;
  std::vector<int> pivot_inv_;  // A2 row -> pivot position

  mutable std::vector<T> work_;  // solve scratch, size n
};

using RealSparseLu = SparseLu<double>;
using ComplexSparseLu = SparseLu<std::complex<double>>;

}  // namespace rlcsim::numeric
