#include "numeric/sparse.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

#include "numeric/lu_program.h"
#include "obs/metrics.h"

namespace rlcsim::numeric {
namespace {

double magnitude(double v) { return std::fabs(v); }
double magnitude(const std::complex<double>& v) { return std::abs(v); }

}  // namespace

// ------------------------------------------------------------------ pattern

SparsePatternPtr build_pattern(int n, const std::vector<std::pair<int, int>>& entries,
                               std::vector<int>* slots) {
  if (n < 0) throw std::invalid_argument("build_pattern: negative dimension");
  for (const auto& [r, c] : entries)
    if (r < 0 || r >= n || c < 0 || c >= n)
      throw std::out_of_range("build_pattern: entry outside matrix");

  std::vector<int> order(entries.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return entries[a] < entries[b];
  });

  auto pattern = std::make_shared<SparsePattern>();
  pattern->n = n;
  pattern->row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  pattern->col_idx.reserve(entries.size());
  if (slots) slots->assign(entries.size(), -1);

  int prev_row = -1, prev_col = -1;
  for (int k : order) {
    const auto [r, c] = entries[static_cast<std::size_t>(k)];
    if (r != prev_row || c != prev_col) {
      pattern->col_idx.push_back(c);
      ++pattern->row_ptr[static_cast<std::size_t>(r) + 1];
      prev_row = r;
      prev_col = c;
    }
    if (slots)
      (*slots)[static_cast<std::size_t>(k)] = static_cast<int>(pattern->col_idx.size()) - 1;
  }
  for (int i = 0; i < n; ++i) pattern->row_ptr[i + 1] += pattern->row_ptr[i];
  return pattern;
}

// --------------------------------------------------------------------- CSR

template <typename T>
SparseMatrix<T>::SparseMatrix(int n, const std::vector<Triplet<T>>& triplets) {
  std::vector<std::pair<int, int>> positions(triplets.size());
  for (std::size_t k = 0; k < triplets.size(); ++k)
    positions[k] = {triplets[k].row, triplets[k].col};
  std::vector<int> slots;
  pattern_ = build_pattern(n, positions, &slots);
  values_.assign(static_cast<std::size_t>(pattern_->nnz()), T{});
  for (std::size_t k = 0; k < triplets.size(); ++k)
    values_[static_cast<std::size_t>(slots[k])] += triplets[k].value;
}

template <typename T>
std::vector<T> SparseMatrix<T>::multiply(const std::vector<T>& x) const {
  const int n = size();
  if (x.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("SparseMatrix::multiply: size mismatch");
  std::vector<T> y(static_cast<std::size_t>(n), T{});
  for (int r = 0; r < n; ++r) {
    T acc{};
    for (int p = pattern_->row_ptr[r]; p < pattern_->row_ptr[r + 1]; ++p)
      acc += values_[static_cast<std::size_t>(p)] *
             x[static_cast<std::size_t>(pattern_->col_idx[static_cast<std::size_t>(p)])];
    y[static_cast<std::size_t>(r)] = acc;
  }
  return y;
}

template <typename T>
Matrix<T> SparseMatrix<T>::to_dense() const {
  const int n = size();
  Matrix<T> m(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    for (int p = pattern_->row_ptr[r]; p < pattern_->row_ptr[r + 1]; ++p)
      m(static_cast<std::size_t>(r),
        static_cast<std::size_t>(pattern_->col_idx[static_cast<std::size_t>(p)])) +=
          values_[static_cast<std::size_t>(p)];
  return m;
}

template class SparseMatrix<double>;
template class SparseMatrix<std::complex<double>>;

// ---------------------------------------------------------------- ordering

namespace {

// Symmetrized adjacency (pattern union its transpose, self-loops dropped).
std::vector<std::vector<int>> symmetric_adjacency(const SparsePattern& pattern) {
  const int n = pattern.n;
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    for (int p = pattern.row_ptr[r]; p < pattern.row_ptr[r + 1]; ++p) {
      const int c = pattern.col_idx[static_cast<std::size_t>(p)];
      if (c == r) continue;
      adj[static_cast<std::size_t>(r)].push_back(c);
      adj[static_cast<std::size_t>(c)].push_back(r);
    }
  }
  for (auto& nbrs : adj) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }
  return adj;
}

// BFS from `start`; returns a minimum-degree vertex of the last level
// (a pseudo-peripheral candidate).
int bfs_farthest(const std::vector<std::vector<int>>& adj, int start,
                 std::vector<int>& level_buf) {
  std::fill(level_buf.begin(), level_buf.end(), -1);
  std::queue<int> q;
  q.push(start);
  level_buf[static_cast<std::size_t>(start)] = 0;
  int last_level = 0;
  std::vector<int> last_nodes{start};
  while (!q.empty()) {
    const int v = q.front();
    q.pop();
    const int lv = level_buf[static_cast<std::size_t>(v)];
    if (lv > last_level) {
      last_level = lv;
      last_nodes.clear();
    }
    if (lv == last_level) last_nodes.push_back(v);
    for (int w : adj[static_cast<std::size_t>(v)]) {
      if (level_buf[static_cast<std::size_t>(w)] < 0) {
        level_buf[static_cast<std::size_t>(w)] = lv + 1;
        q.push(w);
      }
    }
  }
  int best = last_nodes.front();
  for (int v : last_nodes)
    if (adj[static_cast<std::size_t>(v)].size() < adj[static_cast<std::size_t>(best)].size())
      best = v;
  return best;
}

}  // namespace

std::vector<int> rcm_ordering(const SparsePattern& pattern) {
  const int n = pattern.n;
  const auto adj = symmetric_adjacency(pattern);

  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  std::vector<int> level_buf(static_cast<std::size_t>(n), -1);
  std::vector<int> nbrs;

  for (int seed = 0; seed < n; ++seed) {
    if (visited[static_cast<std::size_t>(seed)]) continue;
    // Lowest-degree unvisited vertex of this component would be ideal; the
    // double-BFS pseudo-peripheral refinement below makes the exact seed
    // unimportant.
    int start = bfs_farthest(adj, seed, level_buf);
    start = bfs_farthest(adj, start, level_buf);

    // Cuthill-McKee BFS with neighbors enqueued in ascending degree order.
    std::queue<int> q;
    q.push(start);
    visited[static_cast<std::size_t>(start)] = 1;
    while (!q.empty()) {
      const int v = q.front();
      q.pop();
      order.push_back(v);
      nbrs.clear();
      for (int w : adj[static_cast<std::size_t>(v)])
        if (!visited[static_cast<std::size_t>(w)]) nbrs.push_back(w);
      std::sort(nbrs.begin(), nbrs.end(), [&](int a, int b) {
        return adj[static_cast<std::size_t>(a)].size() < adj[static_cast<std::size_t>(b)].size();
      });
      for (int w : nbrs) {
        visited[static_cast<std::size_t>(w)] = 1;
        q.push(w);
      }
    }
  }

  std::reverse(order.begin(), order.end());
  return order;
}

// --------------------------------------------------------------------- LU

namespace {

// CSC view of the permuted matrix A2 = A(perm, perm): for column j of A2,
// csc_row[p] is the A2 row index and csc_src[p] the index into the input
// CSR value array (so refactor scatters values without rebuilding).
void build_csc(const SparsePattern& pattern, LuProgram& prog) {
  const int n = pattern.n;
  const int nnz = pattern.nnz();
  std::vector<int> inv_perm(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) inv_perm[static_cast<std::size_t>(prog.perm[i])] = i;
  prog.csc_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  prog.csc_row.resize(static_cast<std::size_t>(nnz));
  prog.csc_src.resize(static_cast<std::size_t>(nnz));

  for (int p = 0; p < nnz; ++p)
    ++prog.csc_ptr[static_cast<std::size_t>(
                       inv_perm[static_cast<std::size_t>(pattern.col_idx[p])]) +
                   1];
  for (int j = 0; j < n; ++j) prog.csc_ptr[j + 1] += prog.csc_ptr[j];

  std::vector<int> fill(prog.csc_ptr.begin(), prog.csc_ptr.end() - 1);
  for (int r = 0; r < n; ++r) {
    const int r2 = inv_perm[static_cast<std::size_t>(r)];
    for (int p = pattern.row_ptr[r]; p < pattern.row_ptr[r + 1]; ++p) {
      const int j2 = inv_perm[static_cast<std::size_t>(pattern.col_idx[p])];
      const int pos = fill[static_cast<std::size_t>(j2)]++;
      prog.csc_row[static_cast<std::size_t>(pos)] = r2;
      prog.csc_src[static_cast<std::size_t>(pos)] = p;
    }
  }
}

}  // namespace

template <typename T>
SparseLu<T>::SparseLu(const SparseMatrix<T>& a) : n_(a.size()), pattern_(a.pattern_ptr()) {
  if (n_ == 0) throw std::invalid_argument("SparseLu: empty matrix");

  LuProgram ordering;
  ordering.n = n_;
  if (n_ > 2) {
    ordering.perm = rcm_ordering(*pattern_);
  } else {
    ordering.perm.resize(static_cast<std::size_t>(n_));
    std::iota(ordering.perm.begin(), ordering.perm.end(), 0);
  }
  build_csc(*pattern_, ordering);
  full_factor(a, std::move(ordering));
}

template <typename T>
SparseLu<T>::SparseLu(SparsePatternPtr pattern, std::shared_ptr<const LuProgram> program)
    : n_(program->n),
      pattern_(std::move(pattern)),
      program_(std::move(program)),
      lx_(program_->li.size()),
      ux_(program_->ui.size()) {}

template <typename T>
void SparseLu<T>::full_factor(const SparseMatrix<T>& a, LuProgram prog) {
  const auto& av = a.values();
  const std::size_t reserve = 4 * static_cast<std::size_t>(a.nnz()) +
                              2 * static_cast<std::size_t>(n_);
  const auto& csc_ptr = prog.csc_ptr;
  const auto& csc_row = prog.csc_row;
  const auto& csc_src = prog.csc_src;
  auto& lp = prog.lp;
  auto& li = prog.li;
  auto& up = prog.up;
  auto& ui = prog.ui;
  auto& pivot_inv = prog.pivot_inv;  // A2 row -> pivot position

  lp.assign(1, 0);
  up.assign(1, 0);
  li.clear();
  ui.clear();
  lx_.clear();
  ux_.clear();
  li.reserve(reserve);
  lx_.reserve(reserve);
  ui.reserve(reserve);
  ux_.reserve(reserve);
  pivot_inv.assign(static_cast<std::size_t>(n_), -1);

  std::vector<T> x(static_cast<std::size_t>(n_), T{});
  std::vector<char> marked(static_cast<std::size_t>(n_), 0);
  std::vector<int> xi(static_cast<std::size_t>(n_));
  std::vector<int> dfs_stack(static_cast<std::size_t>(n_));
  std::vector<int> pos_stack(static_cast<std::size_t>(n_));

  // Iterative DFS through L's structure: the pattern of L\A2(:,j) is the set
  // of rows reachable from A2(:,j)'s rows. Emits into xi[top..n) in
  // topological order. Row indices are A2 (pre-pivot) rows; pivot_inv maps
  // a row to its L column once it has been chosen as a pivot.
  const auto dfs = [&](int start, int top) {
    int head = 0;
    dfs_stack[0] = start;
    while (head >= 0) {
      const int i = dfs_stack[static_cast<std::size_t>(head)];
      const int jl = pivot_inv[static_cast<std::size_t>(i)];
      if (!marked[static_cast<std::size_t>(i)]) {
        marked[static_cast<std::size_t>(i)] = 1;
        pos_stack[static_cast<std::size_t>(head)] = (jl < 0) ? 0 : lp[jl];
      }
      bool done = true;
      const int p_end = (jl < 0) ? 0 : lp[jl + 1];
      for (int p = pos_stack[static_cast<std::size_t>(head)]; p < p_end; ++p) {
        const int child = li[static_cast<std::size_t>(p)];
        if (marked[static_cast<std::size_t>(child)]) continue;
        pos_stack[static_cast<std::size_t>(head)] = p + 1;
        dfs_stack[static_cast<std::size_t>(++head)] = child;
        done = false;
        break;
      }
      if (done) {
        --head;
        xi[static_cast<std::size_t>(--top)] = i;
      }
    }
    return top;
  };

  for (int j = 0; j < n_; ++j) {
    // --- symbolic: reachability of column j ------------------------------
    int top = n_;
    for (int p = csc_ptr[j]; p < csc_ptr[j + 1]; ++p) {
      const int i = csc_row[static_cast<std::size_t>(p)];
      if (!marked[static_cast<std::size_t>(i)]) top = dfs(i, top);
    }

    // --- numeric: x = L \ A2(:,j) ---------------------------------------
    for (int p = top; p < n_; ++p) x[static_cast<std::size_t>(xi[p])] = T{};
    for (int p = csc_ptr[j]; p < csc_ptr[j + 1]; ++p)
      x[static_cast<std::size_t>(csc_row[p])] += av[static_cast<std::size_t>(csc_src[p])];
    for (int p = top; p < n_; ++p) {
      const int i = xi[static_cast<std::size_t>(p)];
      marked[static_cast<std::size_t>(i)] = 0;  // reset for the next column
      const int jl = pivot_inv[static_cast<std::size_t>(i)];
      if (jl < 0) continue;
      const T xi_val = x[static_cast<std::size_t>(i)];
      if (xi_val == T{}) continue;
      for (int q = lp[jl] + 1; q < lp[jl + 1]; ++q)
        x[static_cast<std::size_t>(li[q])] -= lx_[static_cast<std::size_t>(q)] * xi_val;
    }

    // --- pivot: largest magnitude among not-yet-pivotal rows -------------
    int pivot_row = -1;
    double pivot_mag = -1.0;
    for (int p = top; p < n_; ++p) {
      const int i = xi[static_cast<std::size_t>(p)];
      if (pivot_inv[static_cast<std::size_t>(i)] >= 0) continue;
      const double m = magnitude(x[static_cast<std::size_t>(i)]);
      if (m > pivot_mag) {
        pivot_mag = m;
        pivot_row = i;
      }
    }
    if (pivot_row < 0 || pivot_mag <= 0.0)
      throw std::runtime_error("SparseLu: matrix is singular");
    const T pivot = x[static_cast<std::size_t>(pivot_row)];

    // --- emit U(:,j) in discovery (topological) order, pivot last --------
    for (int p = top; p < n_; ++p) {
      const int i = xi[static_cast<std::size_t>(p)];
      const int jl = pivot_inv[static_cast<std::size_t>(i)];
      if (jl < 0) continue;
      ui.push_back(jl);
      ux_.push_back(x[static_cast<std::size_t>(i)]);
    }
    ui.push_back(j);
    ux_.push_back(pivot);
    up.push_back(static_cast<int>(ui.size()));

    // --- emit L(:,j): unit diagonal first --------------------------------
    pivot_inv[static_cast<std::size_t>(pivot_row)] = j;
    li.push_back(pivot_row);
    lx_.push_back(T{1});
    for (int p = top; p < n_; ++p) {
      const int i = xi[static_cast<std::size_t>(p)];
      if (pivot_inv[static_cast<std::size_t>(i)] >= 0) continue;
      li.push_back(i);
      lx_.push_back(x[static_cast<std::size_t>(i)] / pivot);
    }
    lp.push_back(static_cast<int>(li.size()));
  }

  // Remap L's rows from A2 space into pivot space so the solves and the
  // refactorization replay work entirely in final row order.
  for (auto& i : li) i = pivot_inv[static_cast<std::size_t>(i)];
  prog.compile();
  program_ = std::make_shared<const LuProgram>(std::move(prog));

  OBS_COUNTER_ADD("lu.symbolic", 1);
  OBS_COUNTER_ADD("lu.numeric", 1);
}

template <typename T>
bool SparseLu<T>::numeric_refactor(const SparseMatrix<T>& a) {
  const auto& av = a.values();
  const LuProgram& prog = *program_;
  const auto& lp = prog.lp;
  const auto& li = prog.li;
  const auto& up = prog.up;
  const auto& ui = prog.ui;
  std::vector<T>& x = refactor_work_;
  x.resize(static_cast<std::size_t>(n_));

  for (int j = 0; j < n_; ++j) {
    for (int q = up[j]; q < up[j + 1]; ++q) x[static_cast<std::size_t>(ui[q])] = T{};
    for (int q = lp[j]; q < lp[j + 1]; ++q) x[static_cast<std::size_t>(li[q])] = T{};
    for (int p = prog.csc_ptr[j]; p < prog.csc_ptr[j + 1]; ++p)
      x[static_cast<std::size_t>(prog.pivot_inv[static_cast<std::size_t>(prog.csc_row[p])])] +=
          av[static_cast<std::size_t>(prog.csc_src[p])];

    // Replay the recorded elimination sequence (stored topologically).
    for (int q = up[j]; q < up[j + 1] - 1; ++q) {
      const int k = ui[static_cast<std::size_t>(q)];
      const T ukj = x[static_cast<std::size_t>(k)];
      ux_[static_cast<std::size_t>(q)] = ukj;
      if (ukj == T{}) continue;
      for (int r = lp[k] + 1; r < lp[k + 1]; ++r)
        x[static_cast<std::size_t>(li[r])] -= lx_[static_cast<std::size_t>(r)] * ukj;
    }

    const T pivot = x[static_cast<std::size_t>(j)];
    if (pivot == T{}) return false;  // stale pivot order: caller re-pivots
    ux_[static_cast<std::size_t>(up[j + 1]) - 1] = pivot;
    lx_[static_cast<std::size_t>(lp[j])] = T{1};
    for (int r = lp[j] + 1; r < lp[j + 1]; ++r)
      lx_[static_cast<std::size_t>(r)] = x[static_cast<std::size_t>(li[r])] / pivot;
  }

  OBS_COUNTER_ADD("lu.numeric", 1);
  return true;
}

template <typename T>
bool SparseLu<T>::refactor(const SparseMatrix<T>& a) {
  if (a.pattern_ptr() != pattern_) {
    // Structurally identical patterns are as good as pointer-identical ones:
    // the recorded CSC scatter map (csc_src) indexes CSR value positions,
    // which depend only on the structure. Adopting the caller's pattern
    // pointer makes every later refactor against it an O(1) check. This is
    // what lets a sweep reuse one symbolic analysis across circuits that are
    // rebuilt per grid point with identical topology.
    if (!a.pattern_ptr() || !pattern_ || !same_structure(a.pattern(), *pattern_))
      throw std::invalid_argument("SparseLu::refactor: pattern mismatch");
    pattern_ = a.pattern_ptr();
  }
  if (numeric_refactor(a)) return false;
  full_factor(a, *program_);  // same ordering, fresh pivots and program
  return true;
}

template <typename T>
std::vector<T> SparseLu<T>::solve(const std::vector<T>& b) const {
  std::vector<T> x = b;
  solve_in_place(x);
  return x;
}

template <typename T>
void SparseLu<T>::solve_in_place(std::vector<T>& x) const {
  if (x.size() != static_cast<std::size_t>(n_))
    throw std::invalid_argument("SparseLu::solve: rhs size mismatch");
  OBS_COUNTER_ADD("lu.solves", 1);
  program_->solve<1>(lx_.data(), ux_.data(), x.data());
}

template class SparseLu<double>;
template class SparseLu<std::complex<double>>;

}  // namespace rlcsim::numeric
