// The solve program of one SparseLu symbolic analysis (library-internal).
//
// A SparseLu factors P2 * A(perm, perm) = L * U. Its recorded structure —
// ordering, CSC scatter map, elimination pattern and pivot order — is
// compiled once per symbolic analysis into this immutable object, which
// every copy of the factorization and every SparseLuBatch built from it
// share (numeric values live with each factorization, in the layout of the
// index streams below: lx[p] belongs to lp/li entry p, ux[q] to up/ui
// entry q).
//
// The triangular solves run directly on the caller's unknown vector: L's
// row indices are mapped through perm o (pivot row), U's through perm, and
// the few cycle moves that row pivoting leaves run between the two passes,
// so no gather/scatter pass and no scratch vector is needed. Every stored
// value is moved, never recomputed, so a solve performs exactly the
// arithmetic of the textbook pivot-space solve, in the same order.
#pragma once

#include <cstddef>
#include <vector>

namespace rlcsim::numeric {

// One column step of an elimination over W lanes: for p in [begin, end),
// x[rows[p]] = x[rows[p]] - f[p] * col, per lane, where every lane whose
// multiplier col[lane] is exactly zero keeps its value — the scalar
// `if (v == 0) continue;` skip, signed zeros included (the unguarded form
// would turn -0.0 - (-0.0) into +0.0). The column's lanes are counted once:
//   - all nonzero (nearly every column of a transient solve): the plain
//     update, which vectorizes to packed mul/sub on baseline x86-64 (SSE2);
//   - none nonzero: nothing to do;
//   - mixed: the guarded blend `x = (v != 0) ? x - f*v : x`. Vectorizing it
//     needs a packed blend, which SSE2 lacks, so this path alone runs
//     scalar on the portable build.
// Where v != 0 the plain and guarded forms compute the same value, so the
// split changes no bit. The count is a double (exact for W <= 8) because
// that form vectorizes on SSE2 (cmpneqpd + andpd); an integer count
// compiles to one ucomisd + setne per lane. col, f and x must not overlap;
// rows[p] * W indexes x.
template <int W, typename T>
inline void eliminate_column(const T* __restrict col, const T* __restrict f,
                             const int* rows, int begin, int end, T* __restrict x) {
  const T zero{};
  double nonzero = 0.0;
#pragma GCC unroll 1
  for (int lane = 0; lane < W; ++lane) nonzero += (col[lane] != zero) ? 1.0 : 0.0;
  if (nonzero == 0.0) return;
  if (nonzero == W) {
    for (int p = begin; p < end; ++p) {
      T* xr = x + static_cast<std::size_t>(rows[p]) * W;
      const T* fr = f + static_cast<std::size_t>(p) * W;
#pragma GCC unroll 1
      for (int lane = 0; lane < W; ++lane) xr[lane] = xr[lane] - fr[lane] * col[lane];
    }
  } else {
    for (int p = begin; p < end; ++p) {
      T* xr = x + static_cast<std::size_t>(rows[p]) * W;
      const T* fr = f + static_cast<std::size_t>(p) * W;
#pragma GCC unroll 1
      for (int lane = 0; lane < W; ++lane) {
        const T v = col[lane];
        xr[lane] = (v != zero) ? xr[lane] - fr[lane] * v : xr[lane];
      }
    }
  }
}

struct LuProgram {
  int n = 0;

  // ---- ordering (depends on the pattern only; a re-pivot keeps it) ------
  std::vector<int> perm;  // fill-reducing symmetric order: perm[new] = old
  // CSC view of A2 = A(perm, perm): csc_row[p] is the A2 row of entry p of
  // column j (p in [csc_ptr[j], csc_ptr[j+1])), csc_src[p] its CSR slot.
  std::vector<int> csc_ptr, csc_row, csc_src;

  // ---- elimination structure in pivot order (what refactor replays) -----
  // L columns store the unit diagonal first; U columns store the pivot last,
  // the other entries in the topological order the factorization found.
  std::vector<int> lp, li, up, ui;
  std::vector<int> pivot_inv;  // A2 row -> pivot position

  // ---- solve streams over the caller's unknown order ---------------------
  std::vector<int> l_col;  // unknown holding L column j's multiplier
  std::vector<int> l_row;  // unknown of L entry p (l_col[li[p]])
  std::vector<int> u_row;  // unknown of U entry q (perm[ui[q]])
  // Cycles between the passes: for cycle c, unknowns
  // cycle_idx[cycle_ptr[c] .. cycle_ptr[c+1]) each take the next one's
  // value, the last takes the first's.
  std::vector<int> cycle_ptr, cycle_idx;

  // Fills the solve streams from the elimination structure and pivot_inv.
  // li must already be in pivot order.
  void compile();

  // Solves L U x = b for W lane-major right-hand sides in place
  // (x[unknown * W + lane]); lx/ux hold the factors in the same lane-major
  // layout. Per lane, the arithmetic is the scalar solve's, in its order.
  template <int W, typename T>
  void solve(const T* lx, const T* ux, T* x) const;
};

}  // namespace rlcsim::numeric
