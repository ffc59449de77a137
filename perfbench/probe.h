// Measurement plumbing shared by the benchmark's workloads: a monotonic
// clock, order statistics, the process' peak resident set, a global
// allocation counter, an in-memory span log, and the flat report the
// benchmark binary prints for run.py.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Peak resident set (VmHWM) of this process in MB; 0 if unreadable.
double peak_rss_mb();

/// Global operator new calls made by the calling thread while counting is
/// on.  Flip the switch only while no other thread allocates.
void set_alloc_counting(bool on);
std::uint64_t alloc_count();

/// One timed interval at a call into a layer.  `parent` is the index of the
/// enclosing span in the same log (kNoParent for a root).
struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  const char* name = "";
  std::uint32_t parent = kNoParent;
  Clock::time_point start{};
  Clock::time_point end{};
};

/// Spans kept in memory for the length of a run and written out at its end.
/// Not thread-safe: each thread fills its own log, and leaf logs are
/// appended to the main one after their thread is joined.
class SpanLog {
 public:
  void reserve(std::size_t n) { spans_.reserve(n); }
  void clear() { spans_.clear(); }

  /// Opens a span whose times are filled in later with close().
  std::uint32_t open(const char* name, std::uint32_t parent) {
    spans_.push_back(Span{name, parent, {}, {}});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void close(std::uint32_t id, Clock::time_point start,
             Clock::time_point end) {
    spans_[id].start = start;
    spans_[id].end = end;
  }
  void record(const char* name, std::uint32_t parent, Clock::time_point start,
              Clock::time_point end) {
    spans_.push_back(Span{name, parent, start, end});
  }
  /// Appends leaf spans whose parents already index into this log.
  void append(const SpanLog& leaves) {
    spans_.insert(spans_.end(), leaves.spans_.begin(), leaves.spans_.end());
  }

  /// Self time per span name, in seconds: each span's duration minus the
  /// part of it its direct children cover.
  std::vector<std::pair<std::string, double>> self_seconds() const;
  /// Total duration per span name, in seconds.
  double total_seconds(std::string_view name) const;

  /// Writes one tab-separated line per span (id, parent, name, start and
  /// end in ns since the first span's start).  Returns false on I/O error.
  bool write_tsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// The benchmark binary's output: named metrics and named pass/fail checks,
/// printed as one JSON object.
class Report {
 public:
  void metric(const std::string& name, double value);
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void text(const std::string& name, const std::string& value);
  void set_counts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }
  std::string json() const;

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Check> checks_;
  std::vector<std::pair<std::string, std::string>> texts_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
