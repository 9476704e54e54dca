// Fixture: the src/obs/ wall-clock carve-out. The now() reads below are in
// the observability subsystem's directory, so wallclock-scope must NOT
// report them — no allow() comment needed. The planted unordered-container
// violation proves the file is still scanned by every other rule.
#include <chrono>
#include <unordered_map>

namespace fixture::obs {

double span_seconds() {
  const auto start = std::chrono::steady_clock::now();  // NOT flagged: src/obs/
  const auto stop = std::chrono::steady_clock::now();   // NOT flagged: src/obs/
  return std::chrono::duration<double>(stop - start).count();
}

std::unordered_map<int, double> planted;  // planted: unordered-container

// The obs subsystem may read its own metrics: metric-read-scope is silent.
bool gate() { return metrics_enabled() && !obs::snapshot().counters.empty(); }

}  // namespace fixture::obs
