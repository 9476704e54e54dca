#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>

#include "inputs.h"  // Rng

namespace rlcbench {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  // VmHWM is this image's own high-water mark; getrusage's ru_maxrss also
  // keeps the pre-exec peak of the launching process (Linux retains it
  // across execve), so it is only the fallback.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1.0;
    while (std::fgets(line, sizeof line, f) != nullptr)
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    std::fclose(f);
    if (kib > 0.0) return kib / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

// Opaque to the optimizer, so the calibration kernel's result is kept.
volatile double calibration_sink = 0.0;

// Fixed work in the workloads' instruction mix, two halves of about equal
// time: dense LU factorization without pivoting of a diagonally dominant
// 48 x 48 matrix, forward and back substitution of 8 right-hand sides and
// exp() to build them; then sorts of 4096 seeded doubles (branchy,
// load-heavy code). Together they tracked all four workloads' slowdowns
// better than either half alone.
double calibration_kernel() {
  constexpr int n = 48;
  constexpr int kReps = 60;
  constexpr int kSorts = 10;
  static const std::vector<double> unsorted = [] {
    Rng rng(0x63616c6962ull);
    std::vector<double> v(4096);
    for (double& x : v) x = rng.uniform();
    return v;
  }();
  std::vector<double> a(n * n), b(n), sorted;
  double checksum = 0.0;
  for (int s = 0; s < kSorts; ++s) {
    sorted = unsorted;
    std::sort(sorted.begin(), sorted.end());
    checksum += sorted[static_cast<std::size_t>(s)];
  }
  for (int rep = 0; rep < kReps; ++rep) {
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        a[i * n + j] = i == j ? n + 1.0 + 1e-3 * rep : 1.0 / (1.0 + i + 2.0 * j);
    for (int k = 0; k < n; ++k)
      for (int i = k + 1; i < n; ++i) {
        const double l = a[i * n + k] / a[k * n + k];
        a[i * n + k] = l;
        for (int j = k + 1; j < n; ++j) a[i * n + j] -= l * a[k * n + j];
      }
    for (int r = 0; r < 8; ++r) {
      for (int i = 0; i < n; ++i) b[i] = std::exp(-0.01 * (i + r + rep));
      for (int i = 1; i < n; ++i)
        for (int j = 0; j < i; ++j) b[i] -= a[i * n + j] * b[j];
      for (int i = n - 1; i >= 0; --i) {
        for (int j = i + 1; j < n; ++j) b[i] -= a[i * n + j] * b[j];
        b[i] /= a[i * n + i];
      }
      checksum += b[0] + b[n - 1];
    }
  }
  return checksum;
}

double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

}  // namespace

double host_factor() {
  const double t0 = now_seconds();
  calibration_sink = calibration_kernel();
  return (now_seconds() - t0) / kCalibrationReferenceSeconds;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p25 = quantile(samples, 0.25);
  s.p50 = quantile(samples, 0.50);
  s.p75 = quantile(samples, 0.75);
  s.p90 = quantile(samples, 0.90);
  return s;
}

CallSeries repeat_calls(double seconds, std::size_t min_calls,
                        const ResultBytes& reference,
                        std::size_t items_if_throws,
                        const std::function<CallOutcome()>& call,
                        const std::function<void()>& setup) {
  int per_block = 1;
  for (; setup; per_block *= 2) {
    const double t0 = now_seconds();
    for (int k = 0; k < per_block; ++k) setup();
    if (now_seconds() - t0 >= 5e-3 || per_block >= (1 << 20)) break;
  }
  // Seconds per construction, in one block.
  const auto setup_block = [&] {
    const double t0 = now_seconds();
    for (int k = 0; k < per_block; ++k) setup();
    return (now_seconds() - t0) / per_block;
  };

  CallSeries series;
  std::vector<double> setup_samples;
  // The host factor of what ran since the previous sample: the mean of
  // that sample and a new one.
  double factor_before = host_factor();
  const auto factor_since = [&] {
    const double factor_after = host_factor();
    const double factor = 0.5 * (factor_before + factor_after);
    factor_before = factor_after;
    return factor;
  };
  const double start = now_seconds();
  while (series.call_seconds.size() < min_calls ||
         now_seconds() - start < seconds) {
    const double t0 = now_seconds();
    CallOutcome outcome;
    try {
      outcome = call();
    } catch (const std::exception& error) {
      std::fprintf(stderr, "rlcbench: call threw: %s\n", error.what());
      series.attempted += items_if_throws;
      series.failed += items_if_throws;
      series.bit_identical = false;
      break;
    }
    const double dt = now_seconds() - t0;
    const double setup_dt = setup ? setup_block() : 0.0;
    const double factor = factor_since();
    series.wall_call_seconds.push_back(dt);
    series.host_factors.push_back(factor);
    series.call_seconds.push_back(dt / factor);
    series.items_per_second.push_back(static_cast<double>(outcome.items) * factor / dt);
    series.attempted += outcome.items;
    series.failed += outcome.failed;
    if (!(outcome.bytes == reference)) series.bit_identical = false;
    if (setup) setup_samples.push_back(setup_dt / factor);
  }
  while (setup && setup_samples.size() < 21) {
    const double setup_dt = setup_block();
    setup_samples.push_back(setup_dt / factor_since());
  }
  series.setup_seconds = summarize(std::move(setup_samples)).p50;
  return series;
}

double median_seconds(int repeats, double per_sample,
                      const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = now_seconds();
    fn();
    samples.push_back((now_seconds() - t0) / per_sample);
  }
  return summarize(std::move(samples)).p50;
}

bool print_report(const std::string& title, const std::vector<Metric>& shown,
                  const std::vector<Metric>& json_metrics,
                  const std::vector<Check>& checks, std::size_t attempted,
                  std::size_t failed) {
  std::printf("== %s\n", title.c_str());
  for (const Metric& m : shown) {
    if (m.summary.count == 0) {
      std::printf("  %-32s %14.6g %-8s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    } else {
      std::printf("  %-32s %14.6g %-8s n=%zu  q1 %.6g  median %.6g  q3 %.6g  "
                  "p90 %.6g\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.summary.count,
                  m.summary.p25, m.summary.p50, m.summary.p75, m.summary.p90);
    }
  }
  bool ok = true;
  for (const Metric& m : json_metrics)
    if (!std::isfinite(m.value)) {
      ok = false;  // also keeps the JSON line valid: printed as null below
      std::printf("  metric %s is not finite\n", m.name.c_str());
    }
  for (const Check& c : checks) {
    ok = ok && c.ok;
    std::printf("  check %-40s %s  %s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                c.detail.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              ok ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < json_metrics.size(); ++i) {
    const Metric& m = json_metrics[i];
    char value[32] = "null";
    if (std::isfinite(m.value)) std::snprintf(value, sizeof value, "%.17g", m.value);
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return ok;
}

}  // namespace rlcbench
