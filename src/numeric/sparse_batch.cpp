#include "numeric/sparse_batch.h"

#include <algorithm>
#include <cfloat>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "runtime/env.h"

// The bit-identity contract assumes double expressions evaluate at double
// precision; excess-precision evaluation (x87-style FLT_EVAL_METHOD == 2)
// would round batched and scalar intermediates differently and fork the
// memcmp-gated results. See also numeric/fp_env.h for the runtime half.
static_assert(FLT_EVAL_METHOD == 0,
              "rlcsim batch kernels require FLT_EVAL_METHOD == 0 "
              "(strict double evaluation)");

namespace rlcsim::numeric {

bool is_supported_lane_width(std::size_t lanes) {
  for (std::size_t w : kBatchLaneWidths)
    if (lanes == w) return true;
  return false;
}

std::size_t default_lane_width() {
  // Exact-token knob: "auto" and the supported widths, nothing else ("2"
  // silently meaning "some default" is what an override must not do).
  const auto parsed = runtime::parse_env_enum(
      "RLCSIM_LANES", {{"auto", 8}, {"1", 1}, {"4", 4}, {"8", 8}},
      "1, 4, 8, or \"auto\"");
  return parsed ? static_cast<std::size_t>(*parsed)
                : 8;  // no override: widest kernel
}

// ------------------------------------------------------------ BatchedValues

BatchedValues::BatchedValues(std::size_t slots, std::size_t lanes)
    : slots_(slots), lanes_(lanes) {
  if (!is_supported_lane_width(lanes))
    throw std::invalid_argument("BatchedValues: lane width must be 1, 4, or 8, got " +
                                std::to_string(lanes));
  data_.assign(slots_ * lanes_, 0.0);
}

void BatchedValues::set_lane(std::size_t lane, const std::vector<double>& values) {
  if (lane >= lanes_)
    throw std::out_of_range("BatchedValues::set_lane: lane out of range");
  if (values.size() != slots_)
    throw std::invalid_argument("BatchedValues::set_lane: slot count mismatch");
  for (std::size_t s = 0; s < slots_; ++s) data_[s * lanes_ + lane] = values[s];
}

void BatchedValues::extract_lane(std::size_t lane, std::vector<double>& out) const {
  if (lane >= lanes_)
    throw std::out_of_range("BatchedValues::extract_lane: lane out of range");
  out.resize(slots_);
  for (std::size_t s = 0; s < slots_; ++s) out[s] = data_[s * lanes_ + lane];
}

void BatchedValues::clear_lane(std::size_t lane) {
  if (lane >= lanes_)
    throw std::out_of_range("BatchedValues::clear_lane: lane out of range");
  for (std::size_t s = 0; s < slots_; ++s) data_[s * lanes_ + lane] = 0.0;
}

// ------------------------------------------------------------ SparseLuBatch

SparseLuBatch::SparseLuBatch(const RealSparseLu& donor, std::size_t lanes)
    : donor_(donor), lanes_(lanes) {
  if (!is_supported_lane_width(lanes))
    throw std::invalid_argument("SparseLuBatch: lane width must be 1, 4, or 8, got " +
                                std::to_string(lanes));
  lx_.assign(donor_.lx_.size() * lanes_, 0.0);
  ux_.assign(donor_.ux_.size() * lanes_, 0.0);
  ejected_.assign(lanes_, 0);
  scalar_.resize(lanes_);
  work_.assign(static_cast<std::size_t>(donor_.n_) * lanes_, 0.0);
}

std::size_t SparseLuBatch::ejected_lane_count() const {
  std::size_t count = 0;
  for (char e : ejected_) count += (e != 0);
  return count;
}

// Replays the donor's recorded elimination sequence (topological U order,
// frozen pivot positions) for all W lanes at once. Each per-lane operation
// is EXACTLY the scalar numeric_refactor's operation in the scalar order:
// the scalar `if (ukj == 0) continue;` skip becomes a value-preserving blend
// `x = (u != 0) ? x - l*u : x`, which keeps even signed zeros bit-identical
// (the unguarded form would turn -0.0 - (-0.0) into +0.0). Lanes whose
// pivot replays to exactly zero are flagged ejected and keep streaming
// garbage (inf/NaN) harmlessly — lanes are independent and nothing traps —
// until refactor() hands them to the scalar re-pivoting fallback.
template <int W>
void SparseLuBatch::refactor_kernel(const BatchedValues& values) {
  const RealSparseLu& d = donor_;
  const int n = d.n_;
  // Same vectorization recipe as solve_kernel below: restrict-qualified
  // base pointers (av/x/lxb/uxb are four distinct buffers) and
  // `#pragma GCC unroll 1` on every lane loop so the W-trip loops stay
  // loops long enough for the vectorizer to see them.
  const double* __restrict const av = values.data();
  double* __restrict const x = work_.data();
  double* __restrict const lxb = lx_.data();
  double* __restrict const uxb = ux_.data();

  for (int j = 0; j < n; ++j) {
    for (int q = d.up_[j]; q < d.up_[j + 1]; ++q) {
      double* xr = x + static_cast<std::size_t>(d.ui_[q]) * W;
#pragma GCC unroll 1
      for (int lane = 0; lane < W; ++lane) xr[lane] = 0.0;
    }
    for (int q = d.lp_[j]; q < d.lp_[j + 1]; ++q) {
      double* xr = x + static_cast<std::size_t>(d.li_[q]) * W;
#pragma GCC unroll 1
      for (int lane = 0; lane < W; ++lane) xr[lane] = 0.0;
    }
    for (int p = d.csc_ptr_[j]; p < d.csc_ptr_[j + 1]; ++p) {
      double* xr =
          x + static_cast<std::size_t>(d.pivot_inv_[d.csc_row_[p]]) * W;
      const double* src = av + static_cast<std::size_t>(d.csc_src_[p]) * W;
#pragma GCC unroll 1
      for (int lane = 0; lane < W; ++lane) xr[lane] += src[lane];
    }

    for (int q = d.up_[j]; q < d.up_[j + 1] - 1; ++q) {
      const int k = d.ui_[q];
      double* ukj = uxb + static_cast<std::size_t>(q) * W;
      const double* xk = x + static_cast<std::size_t>(k) * W;
#pragma GCC unroll 1
      for (int lane = 0; lane < W; ++lane) ukj[lane] = xk[lane];
      for (int r = d.lp_[k] + 1; r < d.lp_[k + 1]; ++r) {
        double* xr = x + static_cast<std::size_t>(d.li_[r]) * W;
        const double* lr = lxb + static_cast<std::size_t>(r) * W;
#pragma GCC unroll 1
        for (int lane = 0; lane < W; ++lane) {
          const double u = ukj[lane];
          xr[lane] = (u != 0.0) ? xr[lane] - lr[lane] * u : xr[lane];
        }
      }
    }

    const double* piv = x + static_cast<std::size_t>(j) * W;
    double* upiv = uxb + (static_cast<std::size_t>(d.up_[j + 1]) - 1) * W;
    double* ldiag = lxb + static_cast<std::size_t>(d.lp_[j]) * W;
#pragma GCC unroll 1
    for (int lane = 0; lane < W; ++lane) {
      if (piv[lane] == 0.0) ejected_[static_cast<std::size_t>(lane)] = 1;
      upiv[lane] = piv[lane];
      ldiag[lane] = 1.0;
    }
    for (int r = d.lp_[j] + 1; r < d.lp_[j + 1]; ++r) {
      double* lr = lxb + static_cast<std::size_t>(r) * W;
      const double* xr = x + static_cast<std::size_t>(d.li_[r]) * W;
#pragma GCC unroll 1
      for (int lane = 0; lane < W; ++lane) lr[lane] = xr[lane] / piv[lane];
    }
  }
}

std::size_t SparseLuBatch::refactor(const BatchedValues& values) {
  if (values.lanes() != lanes_)
    throw std::invalid_argument("SparseLuBatch::refactor: lane count mismatch");
  if (values.slots() != static_cast<std::size_t>(donor_.pattern_->nnz()))
    throw std::invalid_argument(
        "SparseLuBatch::refactor: values do not match the donor pattern");

  std::fill(ejected_.begin(), ejected_.end(), 0);
  switch (lanes_) {
    case 1: refactor_kernel<1>(values); break;
    case 4: refactor_kernel<4>(values); break;
    case 8: refactor_kernel<8>(values); break;
    default:
      throw std::logic_error("SparseLuBatch: unreachable lane width");
  }

  // A W-lane refactor counts as one numeric pass per non-ejected lane, so
  // lu.numeric stays comparable across lane widths.
  const std::size_t n_ejected = ejected_lane_count();
  OBS_COUNTER_ADD("lu.numeric", lanes_ - n_ejected);
  OBS_COUNTER_ADD("lu.ejected_lanes", n_ejected);
  OBS_COUNTER_ADD("batch.refactors", 1);
  OBS_COUNTER_ADD("batch.lanes_refactored", lanes_ - n_ejected);
  if (n_ejected == 0) return 0;

  // Ejected lanes fall back to exactly what the scalar path would do: a
  // SparseLu sharing the donor's symbolic analysis refactors the lane's
  // values, hits the same zero stale pivot, and re-pivots via full_factor.
  std::size_t repivots = 0;
  std::vector<double> lane_values;
  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    if (!ejected_[lane]) continue;
    values.extract_lane(lane, lane_values);
    RealSparse a(donor_.pattern_, lane_values);
    if (!scalar_[lane]) scalar_[lane] = std::make_unique<RealSparseLu>(donor_);
    repivots += scalar_[lane]->refactor(a) ? 1 : 0;
  }
  return repivots;
}

// Batched triangular solves along the donor's factors; per-lane ops mirror
// the scalar solve_in_place order with the same blend treatment of its
// `if (xj == 0) continue;` skips.
//
// The entry loops are written so the lane loop vectorizes to one masked
// update per entry instead of W branchy scalar ops; each ingredient is
// load-bearing:
//   - the column's x values are copied to a local array first (a store to
//     wr[lane] might alias xj[lane + 1] as far as the compiler can tell —
//     both point into w — and that phantom dependence kills vectorization);
//   - the factor/work base pointers are restrict-qualified (same phantom
//     dependence against the factor loads);
//   - `#pragma GCC unroll 1` keeps the W-trip lane loops as LOOPS: early
//     complete peeling otherwise flattens them to scalar statements before
//     the vectorizer ever runs, and it cannot re-roll them.
// The blend itself is value-exact lane by lane, so vector code and scalar
// code produce identical bits (no FMA contraction: see RLCSIM_NATIVE).
template <int W>
void SparseLuBatch::solve_kernel(BatchedValues& xv) const {
  const RealSparseLu& d = donor_;
  const int n = d.n_;
  double* __restrict const x = xv.data();
  double* __restrict const w = work_.data();
  const double* __restrict const lxb = lx_.data();
  const double* __restrict const uxb = ux_.data();

  for (int i = 0; i < n; ++i) {
    double* dst = w + static_cast<std::size_t>(d.pivot_inv_[i]) * W;
    const double* src = x + static_cast<std::size_t>(d.perm_[i]) * W;
#pragma GCC unroll 1
    for (int lane = 0; lane < W; ++lane) dst[lane] = src[lane];
  }

  double xcol[W];
  for (int j = 0; j < n; ++j) {  // L: unit diagonal stored first per column
    const double* xj = w + static_cast<std::size_t>(j) * W;
#pragma GCC unroll 1
    for (int lane = 0; lane < W; ++lane) xcol[lane] = xj[lane];
    for (int p = d.lp_[j] + 1; p < d.lp_[j + 1]; ++p) {
      double* wr = w + static_cast<std::size_t>(d.li_[p]) * W;
      const double* lr = lxb + static_cast<std::size_t>(p) * W;
#pragma GCC unroll 1
      for (int lane = 0; lane < W; ++lane) {
        const double v = xcol[lane];
        wr[lane] = (v != 0.0) ? wr[lane] - lr[lane] * v : wr[lane];
      }
    }
  }
  for (int j = n - 1; j >= 0; --j) {  // U: pivot stored last per column
    double* xj = w + static_cast<std::size_t>(j) * W;
    const double* upiv = uxb + (static_cast<std::size_t>(d.up_[j + 1]) - 1) * W;
#pragma GCC unroll 1
    for (int lane = 0; lane < W; ++lane) xcol[lane] = xj[lane] / upiv[lane];
#pragma GCC unroll 1
    for (int lane = 0; lane < W; ++lane) xj[lane] = xcol[lane];
    for (int p = d.up_[j]; p < d.up_[j + 1] - 1; ++p) {
      double* wr = w + static_cast<std::size_t>(d.ui_[p]) * W;
      const double* ur = uxb + static_cast<std::size_t>(p) * W;
#pragma GCC unroll 1
      for (int lane = 0; lane < W; ++lane) {
        const double v = xcol[lane];
        wr[lane] = (v != 0.0) ? wr[lane] - ur[lane] * v : wr[lane];
      }
    }
  }

  for (int j = 0; j < n; ++j) {
    double* dst = x + static_cast<std::size_t>(d.perm_[j]) * W;
    const double* src = w + static_cast<std::size_t>(j) * W;
#pragma GCC unroll 1
    for (int lane = 0; lane < W; ++lane) dst[lane] = src[lane];
  }
}

void SparseLuBatch::solve_in_place(BatchedValues& x) const {
  if (x.lanes() != lanes_)
    throw std::invalid_argument("SparseLuBatch::solve: lane count mismatch");
  if (x.slots() != static_cast<std::size_t>(donor_.n_))
    throw std::invalid_argument("SparseLuBatch::solve: rhs size mismatch");

  // Solve ejected lanes through their scalar fallback BEFORE the batch
  // kernel clobbers x; the kernel then streams garbage through those lanes
  // (harmless — nothing traps) and the scalar solutions overwrite it. The
  // no-ejection hot path allocates nothing.
  std::vector<std::pair<std::size_t, std::vector<double>>> scalar_solutions;
  if (ejected_lane_count() != 0) {
    for (std::size_t lane = 0; lane < lanes_; ++lane) {
      if (!ejected_[lane]) continue;
      x.extract_lane(lane, scalar_work_);
      scalar_[lane]->solve_in_place(scalar_work_);
      scalar_solutions.emplace_back(lane, scalar_work_);
    }
  }

  switch (lanes_) {
    case 1: solve_kernel<1>(x); break;
    case 4: solve_kernel<4>(x); break;
    case 8: solve_kernel<8>(x); break;
    default:
      throw std::logic_error("SparseLuBatch: unreachable lane width");
  }

  for (const auto& [lane, solution] : scalar_solutions) x.set_lane(lane, solution);
}

}  // namespace rlcsim::numeric
