#include "numeric/sparse_batch.h"

#include <algorithm>
#include <cfloat>
#include <stdexcept>
#include <string>
#include <utility>

#include "numeric/lu_program.h"
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
    : program_(donor.program_), pattern_(donor.pattern_), lanes_(lanes) {
  if (!is_supported_lane_width(lanes))
    throw std::invalid_argument("SparseLuBatch: lane width must be 1, 4, or 8, got " +
                                std::to_string(lanes));
  lx_.assign(donor.lx_.size() * lanes_, 0.0);
  ux_.assign(donor.ux_.size() * lanes_, 0.0);
  ejected_.assign(lanes_, 0);
  scalar_.resize(lanes_);
}

std::size_t SparseLuBatch::ejected_lane_count() const {
  std::size_t count = 0;
  for (char e : ejected_) count += (e != 0);
  return count;
}

// Replays the program's recorded elimination sequence (topological U
// order, frozen pivot positions) for all W lanes at once. Each per-lane
// operation is EXACTLY the scalar numeric_refactor's operation in the
// scalar order; its `if (ukj == 0) continue;` skip is the solve's
// eliminate_column (numeric/lu_program.h). Lanes whose pivot replays to
// exactly zero are flagged ejected and keep streaming garbage (inf/NaN)
// harmlessly — lanes are independent and nothing traps — until refactor()
// hands them to the scalar re-pivoting fallback.
template <int W>
void SparseLuBatch::refactor_kernel(const BatchedValues& values) {
  const LuProgram& prog = *program_;
  const int n = prog.n;
  std::vector<double> work(static_cast<std::size_t>(n) * W);
  // Restrict-qualified base pointers (av/x/lxb/uxb are four distinct
  // buffers) and `#pragma GCC unroll 1` on every lane loop, as in the solve
  // program.
  const double* __restrict const av = values.data();
  double* __restrict const x = work.data();
  double* __restrict const lxb = lx_.data();
  double* __restrict const uxb = ux_.data();

  for (int j = 0; j < n; ++j) {
    for (int q = prog.up[j]; q < prog.up[j + 1]; ++q) {
      double* xr = x + static_cast<std::size_t>(prog.ui[q]) * W;
#pragma GCC unroll 1
      for (int lane = 0; lane < W; ++lane) xr[lane] = 0.0;
    }
    for (int q = prog.lp[j]; q < prog.lp[j + 1]; ++q) {
      double* xr = x + static_cast<std::size_t>(prog.li[q]) * W;
#pragma GCC unroll 1
      for (int lane = 0; lane < W; ++lane) xr[lane] = 0.0;
    }
    for (int p = prog.csc_ptr[j]; p < prog.csc_ptr[j + 1]; ++p) {
      double* xr = x + static_cast<std::size_t>(prog.pivot_inv[prog.csc_row[p]]) * W;
      const double* src = av + static_cast<std::size_t>(prog.csc_src[p]) * W;
#pragma GCC unroll 1
      for (int lane = 0; lane < W; ++lane) xr[lane] += src[lane];
    }

    for (int q = prog.up[j]; q < prog.up[j + 1] - 1; ++q) {
      const int k = prog.ui[q];
      double* ukj = uxb + static_cast<std::size_t>(q) * W;
      const double* xk = x + static_cast<std::size_t>(k) * W;
#pragma GCC unroll 1
      for (int lane = 0; lane < W; ++lane) ukj[lane] = xk[lane];
      eliminate_column<W>(ukj, lxb, prog.li.data(), prog.lp[k] + 1, prog.lp[k + 1], x);
    }

    const double* piv = x + static_cast<std::size_t>(j) * W;
    double* upiv = uxb + (static_cast<std::size_t>(prog.up[j + 1]) - 1) * W;
    double* ldiag = lxb + static_cast<std::size_t>(prog.lp[j]) * W;
#pragma GCC unroll 1
    for (int lane = 0; lane < W; ++lane) {
      if (piv[lane] == 0.0) ejected_[static_cast<std::size_t>(lane)] = 1;
      upiv[lane] = piv[lane];
      ldiag[lane] = 1.0;
    }
    for (int r = prog.lp[j] + 1; r < prog.lp[j + 1]; ++r) {
      double* lr = lxb + static_cast<std::size_t>(r) * W;
      const double* xr = x + static_cast<std::size_t>(prog.li[r]) * W;
#pragma GCC unroll 1
      for (int lane = 0; lane < W; ++lane) lr[lane] = xr[lane] / piv[lane];
    }
  }
}

std::size_t SparseLuBatch::refactor(const BatchedValues& values) {
  if (values.lanes() != lanes_)
    throw std::invalid_argument("SparseLuBatch::refactor: lane count mismatch");
  if (values.slots() != static_cast<std::size_t>(pattern_->nnz()))
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
  // SparseLu over the donor's program refactors the lane's values, hits the
  // same zero stale pivot, and re-pivots via full_factor (which compiles
  // that lane's own program).
  std::size_t repivots = 0;
  std::vector<double> lane_values;
  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    if (!ejected_[lane]) continue;
    values.extract_lane(lane, lane_values);
    RealSparse a(pattern_, lane_values);
    scalar_[lane].reset(new RealSparseLu(pattern_, program_));
    repivots += scalar_[lane]->refactor(a) ? 1 : 0;
  }
  return repivots;
}

void SparseLuBatch::solve_in_place(BatchedValues& x) const {
  if (x.lanes() != lanes_)
    throw std::invalid_argument("SparseLuBatch::solve: lane count mismatch");
  if (x.slots() != size())
    throw std::invalid_argument("SparseLuBatch::solve: rhs size mismatch");

  // Solve ejected lanes through their scalar fallback BEFORE the batch
  // program overwrites x; the program then streams garbage through those
  // lanes (harmless — nothing traps) and the scalar solutions overwrite it.
  // The no-ejection hot path allocates nothing.
  std::vector<std::pair<std::size_t, std::vector<double>>> scalar_solutions;
  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    if (!ejected_[lane]) continue;
    std::vector<double> b;
    x.extract_lane(lane, b);
    scalar_[lane]->solve_in_place(b);
    scalar_solutions.emplace_back(lane, std::move(b));
  }

  switch (lanes_) {
    case 1: program_->solve<1>(lx_.data(), ux_.data(), x.data()); break;
    case 4: program_->solve<4>(lx_.data(), ux_.data(), x.data()); break;
    case 8: program_->solve<8>(lx_.data(), ux_.data(), x.data()); break;
    default:
      throw std::logic_error("SparseLuBatch: unreachable lane width");
  }

  for (const auto& [lane, solution] : scalar_solutions) x.set_lane(lane, solution);
}

}  // namespace rlcsim::numeric
