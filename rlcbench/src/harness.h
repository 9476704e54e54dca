// Repeat harness, statistics and report output of the repository benchmark.
//
// Every end-to-end workload is one public library call repeated for a fixed
// wall-time budget. The first call is an untimed warm-up whose result bytes
// become the reference: every timed call's result is memcmp'd against it,
// so a run that is not bit-reproducible fails instead of reporting a time.
// Timings are summarized as median, quartiles and p90 with the sample count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

namespace rlcbench {

double now_seconds();  // steady clock

// Peak resident set of this process (getrusage ru_maxrss), MB.
double peak_rss_mb();

// Host-speed calibration. A shared host has phases, from seconds to many
// minutes long, in which everything this process computes runs up to ~70%
// slower; a pure exp() loop slows alike, so the cause is outside the
// process. host_factor() times one fixed kernel of the benchmark's own
// (dense LU factor and solves with exp(), then sorts: the workloads'
// instruction mix, compiled with this package's flags and calling nothing
// in the library) and returns its
// wall time divided by kCalibrationReferenceSeconds, the kernel's time on a
// quiet 4-vCPU Xeon (Sapphire Rapids) KVM guest. Each timed call is divided
// by the host factor sampled on its own thread just before and just after
// it, so the end-to-end times are wall times at the reference speed and a
// commit and its parent compare at the same host speed whatever phase each
// ran in. (The slowdown is per core: a kernel timed on another thread at
// the same moment tracks it far worse than one timed next to the call.)
inline constexpr double kCalibrationReferenceSeconds = 4e-3;
double host_factor();

// Quantile summary of a sample set (linear interpolation between order
// statistics). p90 is only meaningful when >= 10 samples lie beyond it,
// i.e. count >= 100; callers decide whether to print it.
struct Summary {
  std::size_t count = 0;
  double p25 = 0.0, p50 = 0.0, p75 = 0.0, p90 = 0.0;
};
Summary summarize(std::vector<double> samples);

// Raw result bytes of one call, for the memcmp repeat check.
class ResultBytes {
 public:
  void put(double value) { append(&value, sizeof value); }
  void put(std::int64_t value) { append(&value, sizeof value); }
  void put(const std::vector<double>& values) {
    put(static_cast<std::int64_t>(values.size()));
    if (!values.empty()) append(values.data(), values.size() * sizeof(double));
  }
  bool operator==(const ResultBytes& other) const {
    return bytes_.size() == other.bytes_.size() &&
           (bytes_.empty() ||
            std::memcmp(bytes_.data(), other.bytes_.data(), bytes_.size()) == 0);
  }

 private:
  void append(const void* data, std::size_t size) {
    const std::size_t used = bytes_.size();
    bytes_.resize(used + size);
    std::memcpy(bytes_.data() + used, data, size);
  }
  std::vector<unsigned char> bytes_;
};

// What one top-level call produced.
struct CallOutcome {
  ResultBytes bytes;
  std::size_t items = 0;   // sweep points, graph nodes, optimizer candidates
  std::size_t failed = 0;  // items that threw, were NaN, or never crossed
};

// Timed calls of one workload. call_seconds, items_per_second and
// setup_seconds are at the reference host speed (see host_factor).
struct CallSeries {
  std::vector<double> call_seconds;
  std::vector<double> items_per_second;
  std::vector<double> wall_call_seconds;  // as measured
  std::vector<double> host_factors;       // the one each call was divided by
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool bit_identical = true;  // every timed call matched the warm-up bytes
  double setup_seconds = 0.0;  // median time of one `setup` construction
};

// Runs `call` until `seconds` have elapsed (at least `min_calls` calls),
// comparing each result with `reference`. A call that throws fails all
// `items_if_throws` of its items. When `setup` is given, one block of fresh
// set-up constructions (sized to >= ~5 ms, so the clock resolves it) is
// timed after every call, at least 21 blocks in all. The host factor is
// sampled before the first call and after every call's set-up block; each
// call and block is divided by the mean of the two samples around it.
CallSeries repeat_calls(double seconds, std::size_t min_calls,
                        const ResultBytes& reference,
                        std::size_t items_if_throws,
                        const std::function<CallOutcome()>& call,
                        const std::function<void()>& setup = {});

// Median over `repeats` samples of fn()'s wall time divided by `per_sample`
// (loop-timed operations pass their loop count).
double median_seconds(int repeats, double per_sample,
                      const std::function<void()>& fn);

// One named correctness check of a run.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

// One reported metric: value plus, for repeated-call metrics, the sample
// summary it was taken from.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  Summary summary;  // count == 0: a single measurement
};

// Prints the human-readable report (one line per metric and per check) to
// stdout, then the one-line JSON result {correct, attempted, failed,
// metrics} as the last line. Returns true when every check passed.
bool print_report(const std::string& title, const std::vector<Metric>& shown,
                  const std::vector<Metric>& json_metrics,
                  const std::vector<Check>& checks, std::size_t attempted,
                  std::size_t failed);

}  // namespace rlcbench
