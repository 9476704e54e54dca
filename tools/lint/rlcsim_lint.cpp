// rlcsim_lint — project-invariant linter for the determinism contract.
//
// Every subsystem since PR 2 ships under one contract: bit-identical
// results at any thread count and any lane width. The scaling benches
// enforce it dynamically (memcmp gates), but only on the workloads they
// run. This linter enforces the *source-level* invariants the contract
// rests on, on every line of src/, bench/ and tests/, at every PR:
//
//   wallclock-scope       std::chrono::*::now(), time(), clock(),
//                         gettimeofday/clock_gettime in src/ outside
//                         src/obs/ — wall-clock reads belong in bench mains
//                         and the observability subsystem (whose telemetry
//                         is write-only by construction); anywhere else in
//                         library code they are either dead weight or a
//                         schedule-dependent input to a result. Library
//                         code that needs a duration uses obs::Stopwatch.
//   nondeterministic-source
//                         rand()/srand()/std::random_device/std::mt19937 in
//                         src/ — any randomness in a result-producing path
//                         must be a seeded, per-point deterministic stream
//                         plumbed through the API, never an ambient PRNG.
//   fp-contract           std::fma()/fmaf()/fmal() and FP_CONTRACT pragmas
//                         anywhere — an FMA fuses in one code path and not
//                         in its memcmp'd twin, voiding bit-identity (the
//                         same reason CMake rejects -ffp-contract=fast).
//   unordered-container   std::unordered_{map,set,...} in src/ — iteration
//                         order is hash-seed/layout dependent; a result
//                         assembled by iterating one is schedule lottery.
//                         Use std::map/std::set or sorted vectors.
//   thread-local          thread_local outside the reviewed allowlist —
//                         per-thread state is how worker identity leaks
//                         into results; every instance must be visibly
//                         justified (observability counters and the pool's
//                         own worker identity are the sanctioned cases).
//   lane-unroll           a batch-kernel lane loop (`for (... lane ... < W;`
//                         in numeric/sparse_batch.cpp, numeric/lu_program.*
//                         (the LU solve program) or sim/transient.cpp,
//                         home of the transient engine's kernels) without
//                         `#pragma GCC unroll 1` directly above it — the
//                         pragma is load-bearing: GCC fully peels W-trip
//                         loops before the vectorizer runs and cannot
//                         re-roll them, so a missing pragma silently
//                         de-vectorizes the kernel the ≥4x throughput gate
//                         is calibrated on.
//   kernel-restrict       a `.data()`-derived raw double* base in those
//                         kernel files without __restrict — phantom
//                         aliasing between the SoA buffers otherwise forces
//                         scalar codegen (same gate as above).
//   metric-read-scope     a metric read in src/ outside src/obs/:
//                         obs::snapshot(, counter_total(, histogram_total(,
//                         metrics_json(, metrics_enabled(, or a `.total()` /
//                         `->total()` call (the project's only total()
//                         accessors are the obs::Counter / obs::Histogram
//                         handles). Telemetry
//                         is write-only: library code that reads a metric
//                         back can let it steer a result. Work counts a
//                         caller needs are counted into caller-owned state
//                         (reuse records, result structs) instead.
//   full-record-scope     `run_transient(` or `.waveforms` in src/ outside
//                         src/sim/transient.{h,cpp} — library callers read
//                         a few numbers per node, so they measure through
//                         sim::measure_transient's probes (first crossings,
//                         extrema); recording every node to the horizon is
//                         for examples, tests and the netlist CLI.
//
// Suppressions: append `// rlcsim-lint: allow(<rule>[, <rule>...])` to the
// offending line or the line directly above it. Suppressions that suppress
// nothing are themselves violations (unused-suppression), so stale
// exceptions cannot linger invisibly. `git grep rlcsim-lint:` lists every
// sanctioned exception in the tree.
//
// Usage:
//   rlcsim_lint <root>                      lint <root>/{src,bench,tests}
//   rlcsim_lint <root> --expect <golden>    compare findings to a golden
//                                           file (fixture self-test)
//   rlcsim_lint --list-rules                print rule ids + summaries
//
// Exit status: 0 clean (or golden matches), 1 findings (or golden
// mismatch), 2 usage/IO error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

bool is_ident(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

// True when `token` occurs in `line` NOT preceded by an identifier
// character or '.' — so `time(` matches `std::time(` and bare `time(` but
// not `rise_time(` or `waveforms.time()` (member accessors are fine).
bool contains_word(const std::string& line, const std::string& token) {
  std::size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    if (pos == 0) return true;
    const char prev = line[pos - 1];
    if (!is_ident(prev) && prev != '.') return true;
    pos += 1;
  }
  return false;
}

bool contains(const std::string& line, const std::string& token) {
  return line.find(token) != std::string::npos;
}

// `time(` needs one more refinement than contains_word: the C wall-clock
// call always takes an argument (`time(nullptr)`, `time(&t)`), while the
// project's Trace/Waveforms accessors are declared `time()` with none — so
// a match whose '(' is immediately closed is not a wall-clock read.
bool contains_time_call(const std::string& line) {
  std::size_t pos = 0;
  const std::string token = "time(";
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const bool word_start =
        pos == 0 || (!is_ident(line[pos - 1]) && line[pos - 1] != '.');
    const std::size_t after = pos + token.size();
    const bool has_argument = after < line.size() && line[after] != ')';
    if (word_start && has_argument) return true;
    pos += 1;
  }
  return false;
}

// Strips a trailing // comment (naive: the first "//" not inside a string
// literal) so prose in comments cannot trip the code rules. The RAW line is
// still used for suppression comments and the unroll-pragma check.
std::string strip_line_comment(const std::string& line) {
  bool in_string = false;
  char quote = 0;
  for (std::size_t i = 0; i + 1 < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == quote) {
        in_string = false;
      }
      continue;
    }
    if (c == '"' || c == '\'') {
      in_string = true;
      quote = c;
      continue;
    }
    if (c == '/' && line[i + 1] == '/') return line.substr(0, i);
  }
  return line;
}

enum class Scope {
  kSrcOnly,
  kSrcOutsideObs,
  kSrcOutsideTransient,
  kEverywhere,
  kBatchKernels
};

struct Rule {
  const char* id;
  Scope scope;
  const char* summary;
  // Returns a non-empty message when `code` (comment-stripped) violates the
  // rule. `raw_prev` is the raw previous line (for the pragma check).
  std::string (*check)(const std::string& code, const std::string& raw_prev);
};

std::string check_wall_clock(const std::string& code, const std::string&) {
  if (contains(code, "::now(") || contains_time_call(code) ||
      contains_word(code, "clock(") || contains(code, "gettimeofday") ||
      contains(code, "clock_gettime"))
    return "wall-clock read in library code; timing belongs in bench mains "
           "or src/obs/ (use obs::Stopwatch for durations)";
  return {};
}

std::string check_random(const std::string& code, const std::string&) {
  if (contains_word(code, "rand(") || contains_word(code, "srand(") ||
      contains(code, "random_device") || contains(code, "mt19937") ||
      contains(code, "default_random_engine"))
    return "ambient randomness in library code; deterministic results "
           "require seeded per-point streams plumbed through the API";
  return {};
}

std::string check_fp_contract(const std::string& code, const std::string&) {
  if (contains_word(code, "fma(") || contains_word(code, "fmaf(") ||
      contains_word(code, "fmal(") || contains(code, "FP_CONTRACT"))
    return "explicit FMA / FP_CONTRACT pragma; asymmetric fusion between "
           "memcmp'd code paths breaks bit-identity";
  return {};
}

std::string check_unordered(const std::string& code, const std::string&) {
  if (contains(code, "unordered_"))
    return "unordered container in a result-producing path; iteration "
           "order is not deterministic — use std::map/std::set or a "
           "sorted vector";
  return {};
}

std::string check_thread_local(const std::string& code, const std::string&) {
  if (contains_word(code, "thread_local"))
    return "thread_local outside the reviewed allowlist; per-thread state "
           "must not influence results and every instance needs a visible "
           "justification";
  return {};
}

std::string check_lane_unroll(const std::string& code,
                              const std::string& raw_prev) {
  if (contains(code, "for (") && contains(code, "lane") &&
      contains(code, "< W;") && !contains(raw_prev, "#pragma GCC unroll 1"))
    return "batch-kernel lane loop without `#pragma GCC unroll 1` directly "
           "above it; GCC peels W-trip loops before vectorization and "
           "cannot re-roll them";
  return {};
}

std::string check_kernel_restrict(const std::string& code,
                                  const std::string&) {
  const bool pointer_decl =
      contains(code, "double*") || contains(code, "double *");
  if (pointer_decl && contains(code, "=") && contains(code, ".data()") &&
      !contains(code, "__restrict"))
    return "kernel base pointer from .data() without __restrict; phantom "
           "aliasing between SoA buffers forces scalar codegen";
  return {};
}

std::string check_metric_read(const std::string& code, const std::string&) {
  if (contains(code, "obs::snapshot(") ||
      contains_word(code, "counter_total(") ||
      contains_word(code, "histogram_total(") ||
      contains_word(code, "metrics_json(") ||
      contains_word(code, "metrics_enabled(") ||
      contains(code, ".total()") || contains(code, "->total()"))
    return "metric read in library code; telemetry is write-only outside "
           "src/obs/ — count work into caller-owned state instead";
  return {};
}

std::string check_full_record(const std::string& code, const std::string&) {
  if (contains_word(code, "run_transient(") || contains(code, ".waveforms"))
    return "full-waveform record in library code; measure through "
           "sim::measure_transient's crossing and extremum probes instead";
  return {};
}

constexpr Rule kRules[] = {
    {"wallclock-scope", Scope::kSrcOutsideObs,
     "no wall-clock reads in src/ outside src/obs/ (bench mains and the "
     "observability subsystem only)",
     check_wall_clock},
    {"nondeterministic-source", Scope::kSrcOnly,
     "no ambient PRNGs (rand/random_device/mt19937) in src/", check_random},
    {"fp-contract", Scope::kEverywhere,
     "no explicit std::fma or FP_CONTRACT pragmas anywhere", check_fp_contract},
    {"unordered-container", Scope::kSrcOnly,
     "no unordered containers in src/ result paths", check_unordered},
    {"thread-local", Scope::kEverywhere,
     "thread_local requires an inline allow() justification",
     check_thread_local},
    {"lane-unroll", Scope::kBatchKernels,
     "batch-kernel lane loops need `#pragma GCC unroll 1`", check_lane_unroll},
    {"kernel-restrict", Scope::kBatchKernels,
     "batch-kernel .data() base pointers need __restrict",
     check_kernel_restrict},
    {"metric-read-scope", Scope::kSrcOutsideObs,
     "no metric reads (snapshot/counter_total/histogram_total/metrics_json/"
     "metrics_enabled/handle total()) in src/ outside "
     "src/obs/",
     check_metric_read},
    {"full-record-scope", Scope::kSrcOutsideTransient,
     "no run_transient( or .waveforms in src/ outside src/sim/transient.{h,cpp} "
     "(library callers measure through probes)",
     check_full_record},
};

// The files whose lane kernels carry the load-bearing annotations.
bool is_batch_kernel_file(const std::string& rel_path) {
  return rel_path == "src/numeric/sparse_batch.cpp" ||
         rel_path == "src/numeric/lu_program.h" ||
         rel_path == "src/numeric/lu_program.cpp" ||
         rel_path == "src/sim/transient.cpp";
}

struct Finding {
  std::string rel_path;
  std::size_t line;
  std::string rule;
  std::string message;
};

// Parses `// rlcsim-lint: allow(a, b)` out of a raw line; returns the rule
// ids. Empty result = no suppression comment on this line.
std::vector<std::string> parse_allows(const std::string& raw) {
  std::vector<std::string> out;
  const std::string marker = "rlcsim-lint: allow(";
  const std::size_t start = raw.find(marker);
  if (start == std::string::npos) return out;
  const std::size_t open = start + marker.size();
  const std::size_t close = raw.find(')', open);
  if (close == std::string::npos) return out;
  std::string inside = raw.substr(open, close - open);
  std::size_t pos = 0;
  while (pos <= inside.size()) {
    std::size_t comma = inside.find(',', pos);
    if (comma == std::string::npos) comma = inside.size();
    std::string id = inside.substr(pos, comma - pos);
    // trim
    while (!id.empty() && (id.front() == ' ' || id.front() == '\t'))
      id.erase(id.begin());
    while (!id.empty() && (id.back() == ' ' || id.back() == '\t'))
      id.pop_back();
    if (!id.empty()) out.push_back(id);
    pos = comma + 1;
  }
  return out;
}

struct Suppression {
  std::size_t line;  // 1-based line the comment sits on
  std::string rule;
  bool used = false;
};

void scan_file(const fs::path& path, const std::string& rel_path,
               const std::string& top_dir, std::vector<Finding>& findings) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "rlcsim_lint: cannot read " << path << "\n";
    std::exit(2);
  }
  std::vector<std::string> raw_lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    raw_lines.push_back(line);
  }

  std::vector<Suppression> suppressions;
  for (std::size_t i = 0; i < raw_lines.size(); ++i)
    for (const std::string& rule : parse_allows(raw_lines[i]))
      suppressions.push_back({i + 1, rule, false});

  const bool batch_kernel = is_batch_kernel_file(rel_path);
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    const std::string code = strip_line_comment(raw_lines[i]);
    const std::string& raw_prev = i > 0 ? raw_lines[i - 1] : std::string();
    for (const Rule& rule : kRules) {
      if (rule.scope == Scope::kSrcOnly && top_dir != "src") continue;
      // The obs subsystem is the one sanctioned home for wall-clock and
      // metric reads in src/: its telemetry is write-only, so neither can
      // feed a result there. Everything else in src/obs/ is still linted.
      if (rule.scope == Scope::kSrcOutsideObs &&
          (top_dir != "src" || rel_path.rfind("src/obs/", 0) == 0))
        continue;
      // The engine's own files define and document the full record.
      if (rule.scope == Scope::kSrcOutsideTransient &&
          (top_dir != "src" || rel_path == "src/sim/transient.cpp" ||
           rel_path == "src/sim/transient.h"))
        continue;
      if (rule.scope == Scope::kBatchKernels && !batch_kernel) continue;
      const std::string message = rule.check(code, raw_prev);
      if (message.empty()) continue;
      // Suppressed by an allow() on this line or the line directly above?
      bool suppressed = false;
      for (Suppression& s : suppressions) {
        if (s.rule == rule.id && (s.line == i + 1 || s.line == i)) {
          s.used = true;
          suppressed = true;
        }
      }
      if (!suppressed)
        findings.push_back({rel_path, i + 1, rule.id, message});
    }
  }

  for (const Suppression& s : suppressions)
    if (!s.used)
      findings.push_back(
          {rel_path, s.line, "unused-suppression",
           "allow(" + s.rule + ") suppresses nothing; stale exceptions must "
           "be removed, not accumulated"});
}

bool has_source_ext(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".h" || ext == ".hpp" || ext == ".cc";
}

int list_rules() {
  for (const Rule& rule : kRules)
    std::printf("%-24s %s\n", rule.id, rule.summary);
  std::printf("%-24s %s\n", "unused-suppression",
              "allow() comments that suppress nothing are violations");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root_arg;
  std::string expect_arg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") return list_rules();
    if (arg == "--expect") {
      if (i + 1 >= argc) {
        std::cerr << "rlcsim_lint: --expect needs a golden file\n";
        return 2;
      }
      expect_arg = argv[++i];
    } else if (root_arg.empty()) {
      root_arg = arg;
    } else {
      std::cerr << "rlcsim_lint: unexpected argument " << arg << "\n";
      return 2;
    }
  }
  if (root_arg.empty()) {
    std::cerr << "usage: rlcsim_lint <root> [--expect golden.txt] | "
                 "--list-rules\n";
    return 2;
  }

  const fs::path root(root_arg);
  std::vector<Finding> findings;
  for (const char* top_dir : {"src", "bench", "tests"}) {
    const fs::path dir = root / top_dir;
    if (!fs::exists(dir)) continue;
    std::vector<fs::path> files;
    for (const auto& entry : fs::recursive_directory_iterator(dir))
      if (entry.is_regular_file() && has_source_ext(entry.path()))
        files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    for (const fs::path& file : files) {
      const std::string rel_path =
          fs::relative(file, root).generic_string();
      scan_file(file, rel_path, top_dir, findings);
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.rel_path != b.rel_path) return a.rel_path < b.rel_path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });

  if (!expect_arg.empty()) {
    // Golden self-test: compare `path:line: rule` lines (messages excluded
    // so wording can evolve without re-pinning) against the golden file.
    // '#' lines and blanks in the golden are comments.
    std::vector<std::string> expected;
    std::ifstream golden(expect_arg);
    if (!golden) {
      std::cerr << "rlcsim_lint: cannot read golden file " << expect_arg
                << "\n";
      return 2;
    }
    for (std::string line; std::getline(golden, line);) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty() || line[0] == '#') continue;
      expected.push_back(line);
    }
    std::vector<std::string> actual;
    for (const Finding& f : findings)
      actual.push_back(f.rel_path + ":" + std::to_string(f.line) + ": " +
                       f.rule);
    if (actual == expected) {
      std::printf("rlcsim_lint: golden self-test passed (%zu findings)\n",
                  actual.size());
      return 0;
    }
    std::cerr << "rlcsim_lint: golden mismatch\n--- expected\n";
    for (const auto& line : expected) std::cerr << line << "\n";
    std::cerr << "--- actual\n";
    for (const auto& line : actual) std::cerr << line << "\n";
    return 1;
  }

  for (const Finding& f : findings)
    std::cerr << f.rel_path << ":" << f.line << ": " << f.rule << ": "
              << f.message << "\n";
  if (!findings.empty()) {
    std::cerr << "rlcsim_lint: " << findings.size()
              << " violation(s) of the determinism contract (suppress a "
                 "justified exception with `// rlcsim-lint: allow(<rule>)`)\n";
    return 1;
  }
  std::printf("rlcsim_lint: clean\n");
  return 0;
}
