#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "runtime/env.h"

namespace rlcsim::obs {
namespace {

// Per-histogram shard cells. Owner-thread-only writers, so the CAS loops
// for the double fields succeed on the first try; relaxed ordering is
// enough because aggregation tolerates (and documents) in-flight slack.
struct HistogramCells {
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{std::numeric_limits<double>::infinity()};
  std::atomic<double> max{-std::numeric_limits<double>::infinity()};
};

struct Shard {
  std::size_t index = 0;  // stable thread id for trace export
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<HistogramCells, kMaxHistograms> histograms{};
  // Trace-event buffer (obs/trace.cpp). Guarded by a mutex rather than
  // being lock-free: span recording only happens when a trace is active,
  // and only this thread appends — the lock exists for the drain.
  std::mutex event_mutex;
  std::vector<TraceEvent> events;
};

struct Registry {
  std::mutex mutex;
  std::map<std::string, std::size_t> counter_ids;
  std::vector<std::string> counter_names;  // id -> name
  std::map<std::string, std::size_t> histogram_ids;
  std::vector<std::string> histogram_names;
  // Shards are created on a thread's first metric touch and owned here for
  // the process lifetime — a retired thread's totals stay aggregatable,
  // and cell addresses never move (no growth races on the cells).
  std::vector<std::unique_ptr<Shard>> shards;
};

Registry& registry() {
  // Intentionally leaked (never destroyed): the registry must outlive BOTH
  // the atexit-registered end_trace() flush (which may be registered before
  // this object is first constructed, hence would otherwise run after its
  // destructor) and any instrumented code running during static teardown.
  // Still reachable through this static pointer, so leak checkers are
  // quiet; process exit reclaims it.
  static Registry* reg = new Registry;
  return *reg;
}

// The one sanctioned thread_local in the tree outside runtime/thread_pool:
// the whole point of per-thread shards is that the hot-path write needs a
// pointer to THIS thread's cells without taking a lock. Raw pointer (no
// destructor) into registry-owned storage, so thread exit is a no-op.
thread_local Shard* tls_shard = nullptr;  // rlcsim-lint: allow(thread-local)

Shard& this_shard() {
  if (tls_shard == nullptr) {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.shards.push_back(std::make_unique<Shard>());
    reg.shards.back()->index = reg.shards.size() - 1;
    tls_shard = reg.shards.back().get();
  }
  return *tls_shard;
}

std::size_t register_name(std::map<std::string, std::size_t>& ids,
                          std::vector<std::string>& names, const char* name,
                          std::size_t capacity, const char* kind) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  const auto found = ids.find(name);
  if (found != ids.end()) return found->second;
  if (names.size() >= capacity)
    throw std::runtime_error(std::string("obs: ") + kind +
                             " registry full registering \"" + name +
                             "\" — raise the capacity constant");
  const std::size_t id = names.size();
  names.emplace_back(name);
  ids.emplace(name, id);
  return id;
}

void atomic_add_double(std::atomic<double>& cell, double delta) {
  double current = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(current, current + delta,
                                     std::memory_order_relaxed)) {
  }
}

void atomic_min_double(std::atomic<double>& cell, double value) {
  double current = cell.load(std::memory_order_relaxed);
  while (value < current && !cell.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<double>& cell, double value) {
  double current = cell.load(std::memory_order_relaxed);
  while (value > current && !cell.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

// ---------------------------------------------------------------- env knobs

bool parse_metrics_env() {
  const auto parsed = runtime::parse_env_enum("RLCSIM_METRICS",
                                              {{"0", 0}, {"1", 1}}, "0 or 1");
  return parsed.value_or(1) == 1;
}

bool metrics_enabled() {
  static const bool enabled = parse_metrics_env();
  return enabled;
}

// ------------------------------------------------------------ histogram math

std::size_t histogram_bucket_of(double value) {
  if (!(value > 0.0)) return 0;  // zero, negative, NaN
  int exponent = 0;
  (void)std::frexp(value, &exponent);  // value = m * 2^exponent, m in [0.5, 1)
  const long bucket = static_cast<long>(exponent) + 31;
  if (bucket < 1) return 0;
  if (bucket > static_cast<long>(kHistogramBuckets) - 1)
    return kHistogramBuckets - 1;
  return static_cast<std::size_t>(bucket);
}

double histogram_bucket_upper_bound(std::size_t bucket) {
  return std::ldexp(1.0, static_cast<int>(bucket) - 31);
}

double histogram_bucket_lower_bound(std::size_t bucket) {
  if (bucket == 0) return 0.0;
  return std::ldexp(1.0, static_cast<int>(bucket) - 32);
}

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  double rank = std::ceil(p / 100.0 * static_cast<double>(count));
  if (rank < 1.0) rank = 1.0;
  if (rank > static_cast<double>(count)) rank = static_cast<double>(count);
  std::uint64_t before = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    const std::uint64_t in_bucket = buckets[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(before + in_bucket) >= rank) {
      // Bucket 0 (zero/negative/underflow) has no logarithmic width to
      // interpolate across; the exact observed minimum is the honest answer.
      if (b == 0) return min;
      // Geometric interpolation: the rank sits a fraction f through this
      // bucket's occupants, so report lower * 2^f — the log-uniform
      // position inside [2^(b-32), 2^(b-31)). Clamping to the exact
      // observed extrema makes p100 report max (not the bucket bound, up
      // to 2x above it) and keeps p0 at or above min.
      const double fraction = (rank - static_cast<double>(before)) /
                              static_cast<double>(in_bucket);
      double value = histogram_bucket_lower_bound(b) * std::pow(2.0, fraction);
      if (value < min) value = min;
      if (value > max) value = max;
      return value;
    }
    before += in_bucket;
  }
  return max;
}

// ------------------------------------------------------------------ Counter

Counter::Counter(const char* name)
    : id_(register_name(registry().counter_ids, registry().counter_names, name,
                        kMaxCounters, "counter")) {}

void Counter::add(std::uint64_t n) const {
  if (!metrics_enabled()) return;
  this_shard().counters[id_].fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t Counter::total() const {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::uint64_t sum = 0;
  for (const auto& shard : reg.shards)
    sum += shard->counters[id_].load(std::memory_order_relaxed);
  return sum;
}

// ---------------------------------------------------------------- Histogram

Histogram::Histogram(const char* name)
    : id_(register_name(registry().histogram_ids, registry().histogram_names,
                        name, kMaxHistograms, "histogram")) {}

void Histogram::record(double value) const {
  if (!metrics_enabled()) return;
  HistogramCells& cells = this_shard().histograms[id_];
  cells.buckets[histogram_bucket_of(value)].fetch_add(
      1, std::memory_order_relaxed);
  cells.count.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(cells.sum, value);
  atomic_min_double(cells.min, value);
  atomic_max_double(cells.max, value);
}

namespace {

HistogramSnapshot merge_histogram_locked(const Registry& reg, std::size_t id) {
  HistogramSnapshot out;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& shard : reg.shards) {
    const HistogramCells& cells = shard->histograms[id];
    const std::uint64_t count = cells.count.load(std::memory_order_relaxed);
    if (count == 0) continue;
    out.count += count;
    out.sum += cells.sum.load(std::memory_order_relaxed);
    const double shard_min = cells.min.load(std::memory_order_relaxed);
    const double shard_max = cells.max.load(std::memory_order_relaxed);
    if (shard_min < lo) lo = shard_min;
    if (shard_max > hi) hi = shard_max;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b)
      out.buckets[b] += cells.buckets[b].load(std::memory_order_relaxed);
  }
  if (out.count > 0) {
    out.min = lo;
    out.max = hi;
  }
  return out;
}

}  // namespace

HistogramSnapshot Histogram::total() const {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  return merge_histogram_locked(reg, id_);
}

// -------------------------------------------------------------- aggregation

MetricsSnapshot snapshot() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  MetricsSnapshot out;
  for (const auto& [name, id] : reg.counter_ids) {
    std::uint64_t sum = 0;
    for (const auto& shard : reg.shards)
      sum += shard->counters[id].load(std::memory_order_relaxed);
    out.counters.emplace(name, sum);
  }
  for (const auto& [name, id] : reg.histogram_ids)
    out.histograms.emplace(name, merge_histogram_locked(reg, id));
  return out;
}

std::optional<std::uint64_t> counter_total(const std::string& name) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  const auto found = reg.counter_ids.find(name);
  if (found == reg.counter_ids.end()) return std::nullopt;
  std::uint64_t sum = 0;
  for (const auto& shard : reg.shards)
    sum += shard->counters[found->second].load(std::memory_order_relaxed);
  return sum;
}

std::optional<HistogramSnapshot> histogram_total(const std::string& name) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  const auto found = reg.histogram_ids.find(name);
  if (found == reg.histogram_ids.end()) return std::nullopt;
  return merge_histogram_locked(reg, found->second);
}

std::string metrics_json(int indent) {
  const MetricsSnapshot snap = snapshot();
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out = "{\n";
  out += pad + "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    char line[160];
    std::snprintf(line, sizeof line, "%s    \"%s\": %llu", pad.c_str(),
                  name.c_str(), static_cast<unsigned long long>(value));
    out += line;
  }
  out += first ? "},\n" : "\n" + pad + "  },\n";
  out += pad + "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    char line[320];
    std::snprintf(line, sizeof line,
                  "%s    \"%s\": {\"count\": %llu, \"sum\": %.9g, "
                  "\"min\": %.9g, \"max\": %.9g, \"p50\": %.9g, "
                  "\"p99\": %.9g}",
                  pad.c_str(), name.c_str(),
                  static_cast<unsigned long long>(hist.count), hist.sum,
                  hist.min, hist.max, hist.percentile(50.0),
                  hist.percentile(99.0));
    out += line;
  }
  out += first ? "}\n" : "\n" + pad + "  }\n";
  out += pad + "}";
  return out;
}

void reset_all_for_test() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& shard : reg.shards) {
    for (auto& cell : shard->counters)
      cell.store(0, std::memory_order_relaxed);
    for (auto& hist : shard->histograms) {
      for (auto& bucket : hist.buckets)
        bucket.store(0, std::memory_order_relaxed);
      hist.count.store(0, std::memory_order_relaxed);
      hist.sum.store(0.0, std::memory_order_relaxed);
      hist.min.store(std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
      hist.max.store(-std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
    }
  }
}

// ---------------------------------------------------- trace-event shard hooks

void append_trace_event(const TraceEvent& event) {
  Shard& shard = this_shard();
  const std::lock_guard<std::mutex> lock(shard.event_mutex);
  shard.events.push_back(event);
}

std::vector<std::pair<std::size_t, TraceEvent>> drain_trace_events() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<std::pair<std::size_t, TraceEvent>> out;
  for (const auto& shard : reg.shards) {
    const std::lock_guard<std::mutex> shard_lock(shard->event_mutex);
    for (const TraceEvent& event : shard->events)
      out.emplace_back(shard->index, event);
    shard->events.clear();
  }
  return out;
}

void record_span_seconds(const char* name, double seconds) {
  if (!metrics_enabled()) return;
  Registry& reg = registry();
  std::size_t id = 0;
  {
    // Span names are string literals arriving repeatedly; resolve through
    // the registry map (register on first sight) rather than keeping a
    // static per call site — ScopedSpan is a function, not a macro body.
    const std::string key = std::string("span.") + name;
    id = register_name(reg.histogram_ids, reg.histogram_names, key.c_str(),
                       kMaxHistograms, "histogram");
  }
  HistogramCells& cells = this_shard().histograms[id];
  cells.buckets[histogram_bucket_of(seconds)].fetch_add(
      1, std::memory_order_relaxed);
  cells.count.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(cells.sum, seconds);
  atomic_min_double(cells.min, seconds);
  atomic_max_double(cells.max, seconds);
}

}  // namespace rlcsim::obs
