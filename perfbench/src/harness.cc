#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/string_util.h"
#include "linalg/vector_ops.h"
#include "sweep/result_log.h"

#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

namespace perfbench {

bool Options::Parse(int argc, char** argv, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos || eq == 2) {
      *error = "expected --key=value, got '" + arg + "'";
      return false;
    }
    values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  return true;
}

void Options::Fail(const std::string& message) const {
  errors_ += message + "\n";
}

std::string Options::Str(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    Fail("missing --" + key);
    return "";
  }
  return it->second;
}

double Options::Num(const std::string& key) const {
  const std::string text = Str(key);
  double value = 0.0;
  if (!text.empty() && !oebench::ParseDouble(text, &value)) {
    Fail("--" + key + " needs a number, got '" + text + "'");
  }
  return value;
}

int64_t Options::Int(const std::string& key) const {
  const std::string text = Str(key);
  int64_t value = 0;
  if (!text.empty() && !oebench::ParseInt64(text, &value)) {
    Fail("--" + key + " needs an integer, got '" + text + "'");
  }
  return value;
}

uint64_t Options::U64(const std::string& key) const {
  const std::string text = Str(key);
  uint64_t value = 0;
  if (!text.empty() && !oebench::ParseUint64(text, &value)) {
    Fail("--" + key + " needs an unsigned integer, got '" + text + "'");
  }
  return value;
}

std::vector<std::string> Options::StrList(const std::string& key) const {
  std::vector<std::string> out;
  for (const std::string& part : oebench::Split(Str(key), ',')) {
    if (!part.empty()) out.push_back(part);
  }
  return out;
}

std::vector<double> Options::NumList(const std::string& key) const {
  std::vector<double> out;
  for (const std::string& part : StrList(key)) {
    double value = 0.0;
    if (!oebench::ParseDouble(part, &value)) {
      Fail("--" + key + " needs numbers, got '" + part + "'");
    }
    out.push_back(value);
  }
  return out;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

double Tracer::Now() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

int64_t Tracer::Begin(std::string name, int64_t parent, int64_t run) {
  if (!enabled_) return 0;
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.run = run;
  span.start = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size());
}

double Tracer::End(int64_t id) {
  if (!enabled_ || id <= 0) return 0.0;
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(id - 1)];
  span.end = now;
  return now - span.start;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i > 0 ? ",\n " : "\n ") << "{\"id\":" << (i + 1)
        << ",\"parent\":" << s.parent << ",\"run\":" << s.run
        << ",\"name\":" << JsonString(s.name)
        << ",\"start\":" << JsonNumber(s.start)
        << ",\"end\":" << JsonNumber(s.end) << "}";
  }
  out << "\n]\n";
  out.flush();
  return static_cast<bool>(out);
}

void Digest::Add(std::string_view bytes) {
  for (unsigned char c : bytes) {
    state_ ^= c;
    state_ *= 1099511628211ull;
  }
  // Field separator, so ("ab","c") and ("a","bc") differ.
  state_ ^= 0xffu;
  state_ *= 1099511628211ull;
}

void Digest::AddDouble(double value) {
  Add(oebench::sweep::EncodeDouble(value));
}

void Digest::AddInt(int64_t value) {
  Add(oebench::StrFormat("%lld", static_cast<long long>(value)));
}

std::string Digest::Hex() const {
  return oebench::StrFormat("%016llx",
                            static_cast<unsigned long long>(state_));
}

double Median(const std::vector<double>& values) {
  return values.empty() ? 0.0 : oebench::Quantile(values, 0.5);
}

double HistogramSum(const oebench::MetricsSnapshot& snap,
                    const std::string& name) {
  auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0.0 : it->second.sum;
}

double HistogramMax(const oebench::MetricsSnapshot& snap,
                    const std::string& name) {
  auto it = snap.histograms.find(name);
  return it == snap.histograms.end() || it->second.count == 0
             ? 0.0
             : it->second.max;
}

double CounterValue(const std::map<std::string, int64_t>& section,
                    const std::string& name) {
  auto it = section.find(name);
  return it == section.end() ? 0.0 : static_cast<double>(it->second);
}

double PeakRssMib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int OnlineCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return std::string(oebench::StripWhitespace(
            std::string_view(line).substr(colon + 1)));
      }
    }
  }
  return "unknown";
}

std::string CompilerVersion() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string BuildFlags() { return PERFBENCH_BUILD_FLAGS; }

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (unsigned char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          out += oebench::StrFormat("\\u%04x", c);
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += "\"";
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  return oebench::StrFormat("%.17g", value);
}

}  // namespace perfbench
