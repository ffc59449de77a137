#include "probe.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <new>
#include <sstream>

namespace {

// order: relaxed — the switch is flipped before counting threads start and
// after they join; the thread creation and join order everything else.
std::atomic<bool> g_counting{false};
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) ++t_allocs;
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// The counting hook: every non-aligned global operator new form, with the
// matching deletes, so no pointer crosses between this allocator and
// another (a sanitizer's, say).
void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}
std::uint64_t alloc_count() { return t_allocs; }

std::vector<std::pair<std::string, double>> SpanLog::self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent != Span::kNoParent)
      child[s.parent] += seconds_between(s.start, s.end);
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].name] +=
        seconds_between(spans_[i].start, spans_[i].end) - child[i];
  return {self.begin(), self.end()};
}

double SpanLog::total_seconds(std::string_view name) const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (name == s.name) total += seconds_between(s.start, s.end);
  return total;
}

bool SpanLog::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
  };
  out << "id\tparent\tname\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t'
        << (s.parent == Span::kNoParent ? std::string("-")
                                        : std::to_string(s.parent))
        << '\t' << s.name << '\t' << ns(s.start) << '\t' << ns(s.end) << '\n';
  }
  return static_cast<bool>(out.flush());
}

void Report::metric(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back(Check{name, ok, detail});
}

void Report::text(const std::string& name, const std::string& value) {
  texts_.emplace_back(name, value);
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    out << (i ? ", " : "") << quoted(metrics_[i].first) << ": "
        << number(metrics_[i].second);
  out << "}, \"checks\": {";
  for (std::size_t i = 0; i < checks_.size(); ++i)
    out << (i ? ", " : "") << quoted(checks_[i].name) << ": {\"ok\": "
        << (checks_[i].ok ? "true" : "false")
        << ", \"detail\": " << quoted(checks_[i].detail) << "}";
  out << "}, \"text\": {";
  for (std::size_t i = 0; i < texts_.size(); ++i)
    out << (i ? ", " : "") << quoted(texts_[i].first) << ": "
        << quoted(texts_[i].second);
  out << "}}";
  return out.str();
}

}  // namespace perfbench
