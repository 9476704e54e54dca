// Scoped spans and Chrome trace-event export.
//
// OBS_SPAN("sweep.point") opens an RAII span: when a trace is active
// (RLCSIM_TRACE=<path> or an explicit begin_trace call) the span buffers a
// Chrome trace-event into this thread's shard, and when metrics are
// enabled its duration also lands in histogram "span.<name>". With neither
// active a span is a pair of cheap atomic-flag checks.
//
// The output is the Chrome trace-event JSON format ("X" complete events,
// microsecond timestamps): load it at https://ui.perfetto.dev or
// chrome://tracing. tid is the obs shard index (stable per thread), pid 1.
//
// Span naming convention: dot-separated subsystem.operation, lowercase —
// "sweep.run", "sweep.point", "transient.run", "graph.evaluate",
// "graph.level", "mor.pade_reduce". A span's optional integer arg
// (e.g. the graph level index) exports as args.n.
//
// Determinism: spans READ the clock but nothing outside src/obs/ ever
// does, and no compute branches on anything recorded here — the lint
// wallclock-scope rule enforces the boundary (see obs/metrics.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "obs/metrics.h"

namespace rlcsim::obs {

// The ONLY sanctioned way for library code outside src/obs/ to measure
// elapsed wall time (for result METADATA like SweepResult::elapsed_seconds
// — never for control flow). Monotonic; trivially copyable.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Re-reads RLCSIM_TRACE on every call (pure; for tests). Unset or empty
// means "no trace"; any other value is the output path.
std::optional<std::string> trace_path_from_env();

// True while a trace is collecting. First call consults RLCSIM_TRACE once
// per process (lazy auto-start; a bad path throws std::invalid_argument
// naming the variable and the path, per the env junk-throws contract).
bool trace_active();

// Starts collecting span events, to be written to `path` by end_trace().
// The path is probed immediately — an unwritable path throws
// std::invalid_argument up front, not after the run. Throws
// std::logic_error if a trace is already active.
void begin_trace(const std::string& path);

// Drains all buffered events, writes the Chrome trace JSON, and
// deactivates tracing. No-op when no trace is active. Also registered
// atexit by begin_trace, so RLCSIM_TRACE runs flush on normal exit.
void end_trace();

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, long arg = kSpanNoArg);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  long arg_;
  std::uint64_t start_ns_ = 0;
  bool timing_ = false;   // either sink wants the duration
  bool tracing_ = false;  // trace was active at open
};

#define OBS_SPAN_CONCAT_IMPL(a, b) a##b
#define OBS_SPAN_CONCAT(a, b) OBS_SPAN_CONCAT_IMPL(a, b)
#define OBS_SPAN(...) \
  const ::rlcsim::obs::ScopedSpan OBS_SPAN_CONCAT(obs_span_, __LINE__)(__VA_ARGS__)

}  // namespace rlcsim::obs
