// Shared plumbing of the end-to-end benchmark driver: options, the span
// tracer, the output digest, host facts and the result that
// each workload hands back to main().
//
// The driver measures every layer from outside: it times calls into the
// layers' public functions and reads the library's metrics registry. It
// never reaches into library internals.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line options. Every workload knob arrives as a flag;
/// perfbench/workloads.json holds the committed values and run.py
/// passes them, so this binary has no defaults of its own to drift.
class Options {
 public:
  /// Parses `--key=value` pairs; returns false (with `error`) on a
  /// malformed argument.
  bool Parse(int argc, char** argv, std::string* error);

  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  /// Typed getters. A missing or malformed value records an error in
  /// errors() and yields 0 / "".
  std::string Str(const std::string& key) const;
  double Num(const std::string& key) const;
  int64_t Int(const std::string& key) const;
  uint64_t U64(const std::string& key) const;
  std::vector<double> NumList(const std::string& key) const;
  std::vector<std::string> StrList(const std::string& key) const;
  /// Empty when every getter so far succeeded.
  const std::string& errors() const { return errors_; }

 private:
  void Fail(const std::string& message) const;
  std::map<std::string, std::string> values_;
  mutable std::string errors_;
};

/// In-memory span recorder: one span per benchmark-side call into a
/// layer's public function. Spans carry (name, start, end, parent, run
/// id) and are written as JSON when the run ends. A disabled tracer
/// records nothing and every call is a no-op, so untraced runs pay only
/// a branch.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Opens a span and returns its id (0 when disabled). Thread-safe.
  int64_t Begin(std::string name, int64_t parent, int64_t run);
  /// Closes span `id` and returns its duration in seconds (0 when
  /// disabled). Thread-safe.
  double End(int64_t id);
  size_t size() const;
  /// Writes every span as a JSON array; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t parent = 0;
    int64_t run = 0;
    double start = 0.0;
    double end = -1.0;
  };
  double Now() const;

  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; span id = index + 1
};

/// Span bound to a scope. Stop() closes it early and returns the
/// duration; the destructor closes it if still open.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int64_t parent, int64_t run)
      : tracer_(tracer),
        id_(tracer->Begin(std::move(name), parent, run)) {}
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }
  double Stop() {
    if (id_ == 0) return 0.0;
    const double seconds = tracer_->End(id_);
    id_ = 0;
    return seconds;
  }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// FNV-1a 64 over a canonical byte dump of a workload's results.
class Digest {
 public:
  void Add(std::string_view bytes);
  /// Exact IEEE-754 bytes, via the sweep log's EncodeDouble.
  void AddDouble(double value);
  void AddInt(int64_t value);
  std::string Hex() const;

 private:
  uint64_t state_ = 1469598103934665603ull;
};

/// oebench::Quantile(values, 0.5), or 0 for an empty input.
double Median(const std::vector<double>& values);

/// Registry snapshot readers; a metric the run never touched reads 0.
double HistogramSum(const oebench::MetricsSnapshot& snap,
                    const std::string& name);
double HistogramMax(const oebench::MetricsSnapshot& snap,
                    const std::string& name);
double CounterValue(const std::map<std::string, int64_t>& section,
                    const std::string& name);

/// Operation accounting behind ok_frac and the result line.
struct Accounting {
  int64_t attempted = 0;
  int64_t succeeded = 0;
  int64_t failed = 0;
  int64_t dropped = 0;
  int64_t shed = 0;
};

/// What one workload run produced.
struct WorkloadResult {
  /// Metrics by their BENCHMARK.json names. The end-to-end set is
  /// always measured; the per-layer set only in a traced run.
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  Accounting total;
  /// One accounting row per phase (ladder rate, repetition).
  std::vector<std::pair<std::string, Accounting>> phases;
  std::string digest;
  /// Failed correctness checks; empty means the outputs were verified.
  std::vector<std::string> errors;
  /// Informational notes printed with the report.
  std::vector<std::string> notes;
};

/// Peak resident set size of this process so far, in MiB.
double PeakRssMib();
/// Online CPUs, CPU model name, compiler version and build flags.
int OnlineCpus();
std::string CpuModel();
std::string CompilerVersion();
std::string BuildFlags();

/// JSON string literal with escaping.
std::string JsonString(std::string_view text);
/// A finite double with all its digits (%.17g); null when non-finite.
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
