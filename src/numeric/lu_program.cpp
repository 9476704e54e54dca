#include "numeric/lu_program.h"

#include <complex>
#include <cstddef>
#include <utility>

namespace rlcsim::numeric {

void LuProgram::compile() {
  // The L pass keeps pivot position j's value where the right-hand side
  // brings it in: unknown perm[pivot_row[j]].
  std::vector<int> pivot_row(static_cast<std::size_t>(n));  // position -> A2 row
  l_col.resize(static_cast<std::size_t>(n));
  std::size_t moved = 0;  // positions whose row pivoted
  for (int r = 0; r < n; ++r) {
    const int j = pivot_inv[static_cast<std::size_t>(r)];
    pivot_row[static_cast<std::size_t>(j)] = r;
    l_col[static_cast<std::size_t>(j)] = perm[static_cast<std::size_t>(r)];
    moved += (j != r);
  }
  l_row.resize(li.size());
  for (std::size_t p = 0; p < li.size(); ++p)
    l_row[p] = l_col[static_cast<std::size_t>(li[p])];
  // The U pass leaves position j's solution at unknown perm[j].
  u_row.resize(ui.size());
  for (std::size_t q = 0; q < ui.size(); ++q)
    u_row[q] = perm[static_cast<std::size_t>(ui[q])];

  // Between the passes position j moves from l_col[j] to perm[j]: the
  // unknowns perm[j], perm[pivot_row[j]], perm[pivot_row[pivot_row[j]]], ...
  // each take the next one's value around every cycle of pivot_row. A
  // walked position becomes a fixed point of pivot_row.
  cycle_ptr.clear();
  cycle_ptr.reserve(moved / 2 + 1);  // every cycle has at least 2 positions
  cycle_ptr.push_back(0);
  cycle_idx.clear();
  cycle_idx.reserve(moved);
  for (int j = 0; j < n; ++j) {
    if (pivot_row[static_cast<std::size_t>(j)] == j) continue;
    int k = j;
    do {
      cycle_idx.push_back(perm[static_cast<std::size_t>(k)]);
      k = std::exchange(pivot_row[static_cast<std::size_t>(k)], k);
    } while (k != j);
    cycle_ptr.push_back(static_cast<int>(cycle_idx.size()));
  }
}

// One kernel serves the scalar solve (W = 1, real and complex) and the
// batched solves (W = 4/8). Per lane it performs the pivot-space solve's
// operations in its order — the scalar `if (xj == 0) continue;` skips
// included (eliminate_column) — so every lane's bits equal a scalar
// solve's. Vectorization recipe (each part is load-bearing):
//   - the column's multipliers are copied to a local array first (a store
//     to x might alias them otherwise, and that phantom dependence kills
//     vectorization);
//   - the factor and unknown bases are restrict-qualified;
//   - `#pragma GCC unroll 1` keeps the W-trip lane loops as LOOPS: early
//     complete peeling otherwise flattens them to scalar statements before
//     the vectorizer ever runs, and it cannot re-roll them.
// No FMA contraction (see RLCSIM_NATIVE), so vector and scalar code
// produce identical bits.
template <int W, typename T>
void LuProgram::solve(const T* lx, const T* ux, T* xv) const {
  T* __restrict const x = xv;
  T col[W];  // the column's multipliers, one per lane

  for (int j = 0; j < n; ++j) {  // L: unit diagonal stored first per column
    const T* xj = x + static_cast<std::size_t>(l_col[static_cast<std::size_t>(j)]) * W;
#pragma GCC unroll 1
    for (int lane = 0; lane < W; ++lane) col[lane] = xj[lane];
    eliminate_column<W>(col, lx, l_row.data(), lp[static_cast<std::size_t>(j)] + 1,
                        lp[static_cast<std::size_t>(j) + 1], x);
  }

  T first[W];
  for (std::size_t c = 0; c + 1 < cycle_ptr.size(); ++c) {
    const int begin = cycle_ptr[c], last = cycle_ptr[c + 1] - 1;
    const T* head = x + static_cast<std::size_t>(cycle_idx[static_cast<std::size_t>(begin)]) * W;
#pragma GCC unroll 1
    for (int lane = 0; lane < W; ++lane) first[lane] = head[lane];
    for (int k = begin; k < last; ++k) {
      T* dst = x + static_cast<std::size_t>(cycle_idx[static_cast<std::size_t>(k)]) * W;
      const T* src = x + static_cast<std::size_t>(cycle_idx[static_cast<std::size_t>(k) + 1]) * W;
#pragma GCC unroll 1
      for (int lane = 0; lane < W; ++lane) dst[lane] = src[lane];
    }
    T* tail = x + static_cast<std::size_t>(cycle_idx[static_cast<std::size_t>(last)]) * W;
#pragma GCC unroll 1
    for (int lane = 0; lane < W; ++lane) tail[lane] = first[lane];
  }

  for (int j = n - 1; j >= 0; --j) {  // U: pivot stored last per column
    T* xj = x + static_cast<std::size_t>(perm[static_cast<std::size_t>(j)]) * W;
    const int end = up[static_cast<std::size_t>(j) + 1] - 1;
    const T* piv = ux + static_cast<std::size_t>(end) * W;
#pragma GCC unroll 1
    for (int lane = 0; lane < W; ++lane) col[lane] = xj[lane] / piv[lane];
#pragma GCC unroll 1
    for (int lane = 0; lane < W; ++lane) xj[lane] = col[lane];
    eliminate_column<W>(col, ux, u_row.data(), up[static_cast<std::size_t>(j)], end, x);
  }
}

template void LuProgram::solve<1, double>(const double*, const double*, double*) const;
template void LuProgram::solve<4, double>(const double*, const double*, double*) const;
template void LuProgram::solve<8, double>(const double*, const double*, double*) const;
template void LuProgram::solve<1, std::complex<double>>(const std::complex<double>*,
                                                         const std::complex<double>*,
                                                         std::complex<double>*) const;

}  // namespace rlcsim::numeric
