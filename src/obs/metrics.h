// Process-wide observability metrics registry.
//
// One instrumentation layer for every engine in the stack: named counters
// and histograms registered by string name, stored in PER-THREAD shards
// (one cache-friendly block of relaxed atomics per thread, created on the
// thread's first touch and owned by the registry forever), aggregated only
// when somebody asks for a snapshot. Writes never take a lock and never
// contend — each thread touches only its own shard — so instrumenting a
// hot path costs a thread-local lookup plus one relaxed atomic add.
//
// Determinism contract (the reason this subsystem exists at all, see
// README "Determinism contract"): telemetry is WRITE-ONLY from compute's
// perspective. Nothing in src/ outside src/obs/ may read a metric value
// (rlcsim_lint's metric-read-scope rule) or branch on a clock; the
// registry records what happened, it never steers what happens next.
// That is why tracing/metrics can be toggled freely while every memcmp
// bit-identity gate keeps passing — and CI re-runs those gates with
// telemetry ON to prove it.
//
// Env knobs (runtime::parse_env_* junk-throws contract):
//   RLCSIM_METRICS=0|1  gates every counter and histogram, span
//                       durations included (default 1; junk throws). With
//                       0 every metric reads 0: result metadata such as
//                       SweepResult / AcSweepInfo factorization counts is
//                       counted by the code that does the work, never
//                       read back from here.
//   RLCSIM_TRACE=<path> enables Chrome-trace span recording (obs/trace.h).
//
// RLCSIM_METRICS=0 is the one off switch: the OBS_* macros always compile
// in, and with metrics off a call site costs one cached-flag check.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace rlcsim::obs {

// Registry capacity. Fixed so shard cell addresses are stable for the
// process lifetime (no growth, no reallocation races); registering beyond
// these throws std::runtime_error — raise the constant, don't shard names.
inline constexpr std::size_t kMaxCounters = 256;
inline constexpr std::size_t kMaxHistograms = 64;
inline constexpr std::size_t kHistogramBuckets = 64;

// ------------------------------------------------------------- env knobs

// Re-reads RLCSIM_METRICS on every call (pure; for tests). Unset or empty
// means enabled; "0"/"1" select; anything else throws std::invalid_argument
// naming the variable and the value.
bool parse_metrics_env();

// Cached once per process: the value parse_metrics_env() returned at first
// use. The OBS_* macros check this — one static read, no env traffic.
bool metrics_enabled();

// --------------------------------------------------------- histogram math

// Power-of-two bucketing: bucket b >= 1 covers [2^(b-32), 2^(b-31)), so
// bucket 32 is [1, 2); bucket 0 collects zero/negative/underflow (< 2^-31)
// and NaN; overflow clamps to bucket 63. Coarse by design — the point is a
// deterministic, allocation-free shape with hand-computable percentiles,
// not a research-grade sketch.
std::size_t histogram_bucket_of(double value);
// The EXCLUSIVE upper bound 2^(bucket-31) of a bucket.
double histogram_bucket_upper_bound(std::size_t bucket);
// The INCLUSIVE lower bound 2^(bucket-32) of a bucket; 0 for bucket 0
// (which collects zero/negative/underflow/NaN and has no log width).
double histogram_bucket_lower_bound(std::size_t bucket);

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // exact observed extrema (0 when count == 0)
  double max = 0.0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  // Log-interpolated percentile estimate, p in [0, 100]: locates the bucket
  // holding rank ceil(p/100 * count) (clamped to [1, count]), interpolates
  // geometrically across the bucket's [2^(b-32), 2^(b-31)) span by the
  // rank's position within it, and clamps to the exact observed [min, max].
  // Returning the raw bucket upper bound — the pre-PR-10 behavior — could
  // overstate a percentile by almost 2x at this bucket width, which would
  // poison any tolerance window compared against it (tools/perfkit). Rank
  // within bucket 0 (zero/negative/underflow) reports the exact min; an
  // empty histogram reports 0.
  double percentile(double p) const;
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;
};

// ---------------------------------------------------------------- handles

// Cheap copyable handle; construction registers (or resolves) the name.
// Intended use is one `static const Counter` per call site — the OBS_*
// macros below do exactly that.
class Counter {
 public:
  explicit Counter(const char* name);

  // Gated by metrics_enabled().
  void add(std::uint64_t n = 1) const;

  // Aggregated over every shard (live and retired threads).
  std::uint64_t total() const;

 private:
  std::size_t id_;
};

class Histogram {
 public:
  explicit Histogram(const char* name);
  void record(double value) const;  // gated by metrics_enabled()
  HistogramSnapshot total() const;  // aggregated over every shard

 private:
  std::size_t id_;
};

// ------------------------------------------------------------- aggregation

// Aggregates every registered metric across all shards, names sorted.
MetricsSnapshot snapshot();

// Name-keyed single-metric aggregation (what external consumers — tests,
// tools/perfkit, the future resident service — need without paying for a
// full snapshot or holding a handle). std::nullopt = name never registered;
// a registered-but-untouched metric reports zeros, matching snapshot().
std::optional<std::uint64_t> counter_total(const std::string& name);
std::optional<HistogramSnapshot> histogram_total(const std::string& name);

// The unified `"metrics": {...}` JSON object every BENCH_*.json embeds:
// {"counters": {...}, "histograms": {name: {count,sum,min,max,p50,p99}}}.
// `indent` is the column of the opening brace's line (continuation lines
// indent relative to it).
std::string metrics_json(int indent = 2);

// Zeroes every cell in every shard (counters, histograms). Test isolation
// only — production code never resets (and never reads, see above).
void reset_all_for_test();

// ------------------------------------------------- trace-event shard hooks
// Span events buffer in the same per-thread shards (obs/trace.h uses these;
// they are not part of the instrumentation API).

inline constexpr long kSpanNoArg = std::numeric_limits<long>::min();

struct TraceEvent {
  const char* name;        // string literal (OBS_SPAN contract)
  std::uint64_t start_ns;  // since the process trace epoch
  std::uint64_t dur_ns;
  long arg;                // kSpanNoArg = none
};

void append_trace_event(const TraceEvent& event);
// Drains every shard's buffered events; .first is the shard (thread) index.
std::vector<std::pair<std::size_t, TraceEvent>> drain_trace_events();
// Records a completed span's duration into histogram "span.<name>".
void record_span_seconds(const char* name, double seconds);

// ------------------------------------------------------------------ macros

// One static handle per call site: registration cost is paid once, the hot
// path is a gate check + thread-local shard lookup + relaxed atomic add.
#define OBS_COUNTER_ADD(name, n)                                    \
  do {                                                              \
    static const ::rlcsim::obs::Counter obs_counter_handle_(name);  \
    obs_counter_handle_.add(static_cast<std::uint64_t>(n));         \
  } while (0)
#define OBS_HISTOGRAM_RECORD(name, value)                              \
  do {                                                                 \
    static const ::rlcsim::obs::Histogram obs_histogram_handle_(name); \
    obs_histogram_handle_.record(static_cast<double>(value));          \
  } while (0)

}  // namespace rlcsim::obs
