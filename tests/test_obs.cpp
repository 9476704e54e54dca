// Observability subsystem: registry aggregation, histogram math, Chrome
// trace export, and the thread-pool accounting invariant.
//
// The contract under test is README "Observability": telemetry is
// write-only (nothing here feeds compute), per-thread shards aggregate to
// the same totals a single thread would produce, histogram percentiles are
// hand-computable from the power-of-two bucket shape, and the trace file is
// valid, well-nested Chrome trace-event JSON.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.h"
#include "runtime/thread_pool.h"

namespace {

using namespace rlcsim;

std::uint64_t counter_of(const obs::MetricsSnapshot& snap,
                         const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0u : it->second;
}

// ------------------------------------------------------------ aggregation

TEST(ObsRegistry, CrossThreadAggregationEqualsSingleThreadTotal) {
  if (!obs::metrics_enabled())
    GTEST_SKIP() << "RLCSIM_METRICS=0 in this environment";
  const obs::Counter parallel_counter("test.obs.cross_thread");
  const obs::Counter serial_counter("test.obs.single_thread");
  const std::uint64_t parallel_before = parallel_counter.total();
  const std::uint64_t serial_before = serial_counter.total();

  constexpr std::size_t kItems = 1024;
  constexpr std::uint64_t kPerItem = 3;

  runtime::ThreadPool pool(4);
  pool.parallel_for(kItems, [&](std::size_t, std::size_t) {
    parallel_counter.add(kPerItem);
  });
  for (std::size_t i = 0; i < kItems; ++i) serial_counter.add(kPerItem);

  // However the items landed on shards, the aggregate is the serial total.
  EXPECT_EQ(parallel_counter.total() - parallel_before, kItems * kPerItem);
  EXPECT_EQ(parallel_counter.total() - parallel_before,
            serial_counter.total() - serial_before);
}

TEST(ObsRegistry, SnapshotAndJsonCarryRegisteredCounters) {
  if (!obs::metrics_enabled())
    GTEST_SKIP() << "RLCSIM_METRICS=0 in this environment";
  const obs::Counter counter("test.obs.json_counter");
  counter.add(3);
  const obs::MetricsSnapshot snap = obs::snapshot();
  EXPECT_GE(counter_of(snap, "test.obs.json_counter"), 3u);

  const std::string json = obs::metrics_json();
  EXPECT_NE(json.find("\"test.obs.json_counter\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// ---------------------------------------------------------- histogram math

TEST(ObsHistogram, BucketShapeIsThePinnedPowerOfTwoLadder) {
  // bucket b >= 1 covers [2^(b-32), 2^(b-31)); bucket 32 is [1, 2).
  EXPECT_EQ(obs::histogram_bucket_of(1.0), 32u);
  EXPECT_EQ(obs::histogram_bucket_of(1.5), 32u);
  EXPECT_EQ(obs::histogram_bucket_of(2.0), 33u);
  EXPECT_EQ(obs::histogram_bucket_of(3.0), 33u);
  EXPECT_EQ(obs::histogram_bucket_of(0.5), 31u);
  // Bucket 0 collects zero, negatives, NaN, and underflow.
  EXPECT_EQ(obs::histogram_bucket_of(0.0), 0u);
  EXPECT_EQ(obs::histogram_bucket_of(-7.0), 0u);
  EXPECT_EQ(obs::histogram_bucket_of(std::nan("")), 0u);
  // Overflow clamps to the top bucket.
  EXPECT_EQ(obs::histogram_bucket_of(1e300), 63u);
  EXPECT_DOUBLE_EQ(obs::histogram_bucket_upper_bound(32), 2.0);
  EXPECT_DOUBLE_EQ(obs::histogram_bucket_upper_bound(33), 4.0);
  // Lower bounds: the previous bucket's upper bound, except bucket 0 (the
  // zero/negative/underflow sink) whose conceptual lower bound is 0.
  EXPECT_DOUBLE_EQ(obs::histogram_bucket_lower_bound(32), 1.0);
  EXPECT_DOUBLE_EQ(obs::histogram_bucket_lower_bound(33), 2.0);
  EXPECT_DOUBLE_EQ(obs::histogram_bucket_lower_bound(0), 0.0);
}

TEST(ObsHistogram, PercentilesMatchHandComputedGolden) {
  if (!obs::metrics_enabled())
    GTEST_SKIP() << "RLCSIM_METRICS=0 in this environment";
  const obs::Histogram hist("test.obs.percentile_golden");
  // {1, 1, 1, 1, 3}: four values in bucket 32 ([1, 2)), one in bucket 33
  // ([2, 4)).
  for (int i = 0; i < 4; ++i) hist.record(1.0);
  hist.record(3.0);

  const obs::HistogramSnapshot snap = hist.total();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 7.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 3.0);
  // p50: rank ceil(0.5 * 5) = 3, the 3rd of bucket 32's four occupants ->
  // log-interpolated 1 * 2^(3/4).
  EXPECT_DOUBLE_EQ(snap.percentile(50.0), std::pow(2.0, 0.75));
  // p99: rank 5 fills bucket 33 -> 2 * 2^1 = 4, clamped to the exact
  // max 3.0 (the old upper-bound answer was 4.0 — a 33% overstatement).
  EXPECT_DOUBLE_EQ(snap.percentile(99.0), 3.0);
  // Rank clamps to [1, count]: p0 interpolates the first occupant of
  // bucket 32 (1 * 2^(1/4)), p100 clamps to the exact max.
  EXPECT_DOUBLE_EQ(snap.percentile(0.0), std::pow(2.0, 0.25));
  EXPECT_DOUBLE_EQ(snap.percentile(100.0), 3.0);
}

TEST(ObsHistogram, PercentileInterpolationStaysInsideObservedRange) {
  if (!obs::metrics_enabled())
    GTEST_SKIP() << "RLCSIM_METRICS=0 in this environment";
  // One value, recorded once: every percentile must report exactly it.
  // The pre-interpolation behavior returned the bucket upper bound 2.0 for
  // a lone 1.1 — the ~2x overstatement the perfkit comparator cares about.
  const obs::Histogram hist("test.obs.percentile_single");
  hist.record(1.1);
  const obs::HistogramSnapshot snap = hist.total();
  EXPECT_DOUBLE_EQ(snap.percentile(50.0), 1.1);
  EXPECT_DOUBLE_EQ(snap.percentile(99.0), 1.1);

  // Values in bucket 0 report the exact observed minimum.
  const obs::Histogram zeros("test.obs.percentile_zeros");
  zeros.record(0.0);
  zeros.record(0.0);
  EXPECT_DOUBLE_EQ(zeros.total().percentile(50.0), 0.0);
}

TEST(ObsHistogram, EmptySnapshotReportsZero) {
  const obs::HistogramSnapshot empty;
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.percentile(50.0), 0.0);
}

// ------------------------------------------------ name-keyed aggregation

TEST(ObsRegistry, NameKeyedTotalsMatchHandleTotals) {
  const obs::Counter counter("test.obs.named_counter");
  counter.add(5);
  const auto by_name = obs::counter_total("test.obs.named_counter");
  ASSERT_TRUE(by_name.has_value());
  EXPECT_EQ(*by_name, counter.total());
  EXPECT_FALSE(obs::counter_total("test.obs.never_registered").has_value());

  if (!obs::metrics_enabled())
    GTEST_SKIP() << "RLCSIM_METRICS=0 in this environment";
  const obs::Histogram hist("test.obs.named_histogram");
  hist.record(2.5);
  const auto hist_by_name = obs::histogram_total("test.obs.named_histogram");
  ASSERT_TRUE(hist_by_name.has_value());
  EXPECT_EQ(hist_by_name->count, hist.total().count);
  EXPECT_DOUBLE_EQ(hist_by_name->sum, hist.total().sum);
  EXPECT_FALSE(obs::histogram_total("test.obs.never_registered").has_value());
}

// ------------------------------------------------------------ trace export

struct ParsedEvent {
  std::string name;
  double ts = 0.0;   // microseconds
  double dur = 0.0;  // microseconds
  long long tid = 0;
  std::string line;
};

// Pulls every trace event out of the one-event-per-line JSON body.
std::vector<ParsedEvent> parse_events(const std::string& text) {
  std::vector<ParsedEvent> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    const std::size_t name_key = line.find("\"name\":\"");
    if (name_key == std::string::npos) continue;
    ParsedEvent event;
    event.line = line;
    const std::size_t name_start = name_key + 8;
    event.name = line.substr(name_start, line.find('"', name_start) - name_start);
    event.ts = std::stod(line.substr(line.find("\"ts\":") + 5));
    event.dur = std::stod(line.substr(line.find("\"dur\":") + 6));
    event.tid = std::stoll(line.substr(line.find("\"tid\":") + 6));
    out.push_back(event);
  }
  return out;
}

TEST(ObsTrace, FileIsValidWellNestedChromeTraceJson) {
  obs::end_trace();  // make sure no earlier trace is active
  const std::string path = testing::TempDir() + "rlcsim_obs_trace_test.json";
  obs::begin_trace(path);
  {
    obs::ScopedSpan outer("test.obs.outer");
    { obs::ScopedSpan inner("test.obs.inner", 7); }
    { obs::ScopedSpan inner("test.obs.inner", 8); }
  }
  obs::end_trace();

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file missing: " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  // Structurally valid JSON document in the Chrome trace-event shape.
  EXPECT_EQ(text.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(text.find("\n]}\n"), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '['),
            std::count(text.begin(), text.end(), ']'));

  const std::vector<ParsedEvent> events = parse_events(text);
  ParsedEvent outer;
  std::vector<ParsedEvent> inners;
  for (const ParsedEvent& event : events) {
    EXPECT_NE(event.line.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(event.line.find("\"cat\":\"rlcsim\""), std::string::npos);
    if (event.name == "test.obs.outer") outer = event;
    if (event.name == "test.obs.inner") inners.push_back(event);
  }
  ASSERT_EQ(outer.name, "test.obs.outer");
  ASSERT_EQ(inners.size(), 2u);
  for (const ParsedEvent& inner : inners) {
    // Both inner spans are strictly contained in the outer span.
    EXPECT_EQ(inner.tid, outer.tid);
    EXPECT_GE(inner.ts, outer.ts);
    EXPECT_LE(inner.ts + inner.dur, outer.ts + outer.dur);
  }
  // The integer span arg exports as args.n.
  EXPECT_NE(inners[0].line.find("\"args\":{\"n\":7}"), std::string::npos);
  EXPECT_NE(inners[1].line.find("\"args\":{\"n\":8}"), std::string::npos);
  // And siblings do not overlap (the two inner spans are sequential).
  const ParsedEvent& a = inners[0];
  const ParsedEvent& b = inners[1];
  EXPECT_TRUE(a.ts + a.dur <= b.ts || b.ts + b.dur <= a.ts);

  std::remove(path.c_str());
}

TEST(ObsTrace, BadPathThrowsNamingTheKnobAndPath) {
  obs::end_trace();
  const std::string bad = "/nonexistent_rlcsim_dir/trace.json";
  try {
    obs::begin_trace(bad);
    FAIL() << "expected std::invalid_argument for unwritable trace path";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("RLCSIM_TRACE"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find(bad), std::string::npos);
  }
  // The failed begin must leave tracing inactive.
  EXPECT_FALSE(obs::trace_active());
}

TEST(ObsTrace, DoubleBeginThrowsLogicError) {
  obs::end_trace();
  const std::string path = testing::TempDir() + "rlcsim_obs_trace_twice.json";
  obs::begin_trace(path);
  EXPECT_THROW(obs::begin_trace(path), std::logic_error);
  obs::end_trace();
  std::remove(path.c_str());
}

// ------------------------------------------------- thread-pool accounting

TEST(ObsPool, TasksExecutedSumsToTasksSubmitted) {
  if (!obs::metrics_enabled())
    GTEST_SKIP() << "RLCSIM_METRICS=0 in this environment";
  const obs::MetricsSnapshot before = obs::snapshot();
  {
    runtime::ThreadPool pool(4);
    pool.parallel_for(64, [&](std::size_t, std::size_t) {
      // Nested parallel_for degrades to the inline path; its tasks must be
      // booked symmetrically too.
      pool.parallel_for(4, [](std::size_t, std::size_t) {});
    });
  }
  const obs::MetricsSnapshot after = obs::snapshot();
  const std::uint64_t submitted =
      counter_of(after, "pool.tasks_submitted") -
      counter_of(before, "pool.tasks_submitted");
  const std::uint64_t executed = counter_of(after, "pool.tasks_executed") -
                                 counter_of(before, "pool.tasks_executed");
  EXPECT_EQ(submitted, executed);
  EXPECT_GE(submitted, 64u + 64u * 4u);
}

}  // namespace
