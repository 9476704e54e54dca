// Fixture: full-waveform records in library code. Each planted violation
// below is pinned by expected.txt; library callers measure through probes.
#include <string>

namespace fixture {

double record_then_read(const rlcsim::sim::Circuit& circuit,
                        const rlcsim::sim::TransientOptions& options) {
  const auto result = rlcsim::sim::run_transient(circuit, options);  // planted
  return result.waveforms.trace("out").max_value();                 // planted
}

// Probes are fine, and so are names that merely end in the token or
// mention it in a comment: run_transient(circuit, options).waveforms
double probe(const rlcsim::sim::Circuit& circuit,
             const rlcsim::sim::TransientOptions& options) {
  const double t = my_run_transient(circuit);
  return t + rlcsim::sim::first_crossing(circuit, "out", 0.5, options, "probe");
}

}  // namespace fixture
