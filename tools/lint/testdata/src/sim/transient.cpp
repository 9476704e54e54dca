// Fixture standing in for the REAL src/sim/transient.cpp, home of the
// transient engine's lane kernels (the batch-kernel rules key on this
// path): a lane loop missing its load-bearing pragma and a kernel base
// pointer missing __restrict, in a kernel and in a crossing recorder.
#include <vector>

namespace fixture {

template <std::size_t W>
void rhs_kernel(std::vector<double>& rhs, const std::vector<double>& state) {
  const double* s = state.data();  // planted: kernel-restrict
  double* __restrict const r = rhs.data();  // compliant: not flagged
  for (std::size_t lane = 0; lane < W; ++lane) r[lane] = s[lane];  // planted: lane-unroll
#pragma GCC unroll 1
  for (std::size_t lane = 0; lane < W; ++lane) r[lane] += 1.0;  // compliant
}

template void rhs_kernel<8>(std::vector<double>&, const std::vector<double>&);

// The batched crossing recorder's shape: a lambda whose lane loop sets each
// lane's crossed flag and returns whether any lane is still open.
template <std::size_t W>
bool record_crossings(const double* voltage, bool (&crossed)[W]) {
  const auto record = [&](double level) {
    std::size_t open = 0;
    for (std::size_t lane = 0; lane < W; ++lane) {  // planted: lane-unroll
      if (voltage[lane] - level >= 0.0) crossed[lane] = true;
      if (!crossed[lane]) ++open;
    }
    return open != 0;
  };
  return record(0.5);
}

}  // namespace fixture

// The engine's own file defines the full record: not flagged here.
namespace fixture {
auto full_record(const rlcsim::sim::Circuit& circuit) {
  return rlcsim::sim::run_transient(circuit, {}).waveforms;
}
}  // namespace fixture
