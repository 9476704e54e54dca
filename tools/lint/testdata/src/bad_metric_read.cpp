// Fixture: metric reads in library code. Each planted violation below is
// pinned by expected.txt; telemetry is write-only outside src/obs/.
#include <cstdint>

namespace fixture {

std::uint64_t read_back(const rlcsim::obs::Counter& counter) {
  const std::uint64_t sum = counter.total();                     // planted
  const auto all = rlcsim::obs::snapshot();                      // planted
  if (rlcsim::obs::metrics_enabled()) return sum;                // planted
  const auto* handle = &counter;
  if (handle->total() > sum) return 0;                           // planted
  const auto named = rlcsim::obs::counter_total("lu.symbolic");  // planted
  const auto hist = rlcsim::obs::histogram_total("span.us");     // planted
  const std::string json = rlcsim::obs::metrics_json();          // planted
  return all.counters.size() + named.value_or(0) + hist->count + json.size();
}

// Writing a metric is fine, and so are names that merely end in a token.
void write_only(const rlcsim::obs::Counter& counter) { counter.add(1); }
bool app_metrics_enabled() { return false; }
double my_counter_total(double x) { return x; }

}  // namespace fixture
