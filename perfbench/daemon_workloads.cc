// Daemon workloads: an in-process service::Daemon (2 pool workers, 1 io
// shard, a Unix listener) fed by the benchmark's own open-loop sender over
// one connection, so every record crosses socket -> parse -> router ->
// dispatch -> runtime -> completion.
//
// The sender writes each burst at its due time and keeps how late each
// write ran.  Flow numbers come from the daemon's per-tenant books
// (Daemon::snapshot()) and the pool's recorder; the traced run adds one
// sampler thread calling snapshot() at a fixed interval and records spans
// at construction, each write, each sample and drain().

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/service/daemon.h"
#include "src/service/stream_feed.h"
#include "src/sim/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace metrics = pjsched::metrics;
namespace service = pjsched::service;
namespace sim = pjsched::sim;

constexpr const char* kDaemonWorkloads[] = {"daemon_burst"};

constexpr unsigned kWorkers = 2;
constexpr std::size_t kDispatchWindow = 4 * kWorkers;  // the daemon's default
// Back-to-back bursts of trivial records.
constexpr double kBurstPeriod = 0.100;
constexpr int kBurstRecords = 500;
constexpr int kBurstTenants = 8;
constexpr const char* kBurstBody = " 1\n";

constexpr auto kSampleInterval = std::chrono::milliseconds(2);
constexpr auto kDrainTimeout = std::chrono::seconds(30);
constexpr int kSetupReps = 10;  ///< set-up samples before and after

/// One write the sender makes: its due time from the session start and the
/// records it carries.
struct Send {
  double due_s = 0.0;
  std::string payload;
  std::uint64_t records = 0;
};

std::vector<Send> make_schedule(std::uint64_t seed, double window_s) {
  sim::Rng rng(seed);
  std::vector<Send> out;
  for (int k = 0; k * kBurstPeriod < window_s; ++k) {
    Send s{k * kBurstPeriod, "", kBurstRecords};
    for (int i = 0; i < kBurstRecords; ++i) {
      const auto tenant = rng.uniform_int(kBurstTenants);
      s.payload += "job t" + std::to_string(tenant) + kBurstBody;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string socket_path() {
  return ".bench_out/pb-" + std::to_string(::getpid()) + ".sock";
}

service::DaemonConfig make_config() {
  service::DaemonConfig config;
  config.pool.workers = kWorkers;
  config.dispatch_window = kDispatchWindow;
  config.io_threads = 1;
  config.unix_socket_path = socket_path();
  return config;
}

int connect_or_throw(const std::string& path) {
  std::string error;
  const int fd = service::connect_unix(path, &error);
  if (fd < 0) throw std::runtime_error("connect " + path + ": " + error);
  return fd;
}

/// What one daemon session measured.
struct Session {
  std::uint64_t sent = 0;
  double lag_p99_ms = 0.0;
  double elapsed_s = 0.0;  ///< first due write to the end of drain()
  bool ingested = false;   ///< every sent record counted before drain()
  bool drained = false;
  double drain_s = 0.0;
  service::DaemonSnapshot snap;
  metrics::Summary runtime_flow;  ///< pool submit -> complete, seconds
  std::uint64_t samples = 0;
  std::uint64_t window_full = 0;
  double construct_s = 0.0;
};

Session run_session(const RunArgs& args, double window_s, bool traced,
                    SpanLog& log) {
  const service::DaemonConfig config = make_config();
  const std::vector<Send> schedule = make_schedule(args.seed, window_s);
  Session out;

  const std::uint32_t root = log.open("daemon.session", Span::kNoParent);
  const Clock::time_point c0 = Clock::now();
  service::Daemon daemon(config);
  const int fd = connect_or_throw(config.unix_socket_path);
  const Clock::time_point c1 = Clock::now();
  out.construct_s = seconds_between(c0, c1);
  log.record("service.construct", root, c0, c1);

  std::atomic<bool> sampling{traced};
  SpanLog sampler_log;
  std::thread sampler([&] {
    while (sampling.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(kSampleInterval);
      const Clock::time_point t0 = Clock::now();
      const service::DaemonSnapshot s = daemon.snapshot();
      sampler_log.record("service.snapshot", root, t0, Clock::now());
      ++out.samples;
      if (s.inflight >= kDispatchWindow && s.router.depth > 0)
        ++out.window_full;
    }
  });

  SpanLog sender_log;
  std::vector<double> lags;
  bool writes_ok = true;
  const Clock::time_point start = Clock::now();
  std::thread sender([&] {
    for (const Send& s : schedule) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s.due_s));
      std::this_thread::sleep_until(due);
      const Clock::time_point t0 = Clock::now();
      writes_ok = service::write_all(fd, s.payload) && writes_ok;
      const Clock::time_point t1 = Clock::now();
      if (traced) sender_log.record("loadgen.write", root, t0, t1);
      lags.push_back(seconds_between(due, t0) * 1e3);
      out.sent += s.records;
    }
  });
  sender.join();

  // Every record must be counted by ingest before drain() starts refusing
  // new ones.
  const Clock::time_point give_up = Clock::now() + kDrainTimeout;
  while (daemon.snapshot().feed.records < out.sent && Clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  out.ingested = writes_ok && daemon.snapshot().feed.records == out.sent;

  const Clock::time_point d0 = Clock::now();
  out.drained = daemon.drain(kDrainTimeout);
  const Clock::time_point d1 = Clock::now();
  sampling.store(false, std::memory_order_release);
  sampler.join();
  log.record("service.drain", root, d0, d1);
  out.drain_s = seconds_between(d0, d1);
  out.elapsed_s = seconds_between(start, d1);
  log.close(root, c0, d1);
  log.append(sender_log);
  log.append(sampler_log);

  out.snap = daemon.snapshot();
  out.runtime_flow = daemon.pool().recorder().summary();
  out.lag_p99_ms = quantile(lags, 0.99);
  service::close_fd(fd);
  return out;
}

/// Mean and worst-tenant p99 flow, in ms, over completed records.
struct Flow {
  double mean_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  std::uint64_t completed = 0;
};

Flow books_flow(const service::DaemonSnapshot& snap) {
  Flow f;
  double sum = 0.0;
  std::uint64_t samples = 0;
  for (const auto& [tenant, t] : snap.tenants) {
    sum += t.sum_flow_seconds;
    samples += t.flow_samples;
    f.completed += t.completed;
    f.p99_ms = std::max(f.p99_ms, t.p99_flow_seconds * 1e3);
    f.max_ms = std::max(f.max_ms, t.max_flow_seconds * 1e3);
  }
  f.mean_ms = samples > 0 ? sum / static_cast<double>(samples) * 1e3 : 0.0;
  return f;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void check_session(const Session& s, Report& report, const std::string& tag) {
  report.check(tag + "drained", s.drained);
  bool books = !s.snap.tenants.empty();
  std::uint64_t submitted = 0;
  for (const auto& [tenant, t] : s.snap.tenants) {
    books = books && t.submitted == t.terminal();
    submitted += t.submitted;
  }
  report.check(tag + "books_balance", books);
  const auto& r = s.snap.router;
  const bool conserved = r.accepted == r.popped + r.shed_fair_share +
                                           r.shed_queued + r.depth &&
                         submitted == r.popped + r.total_shed() + r.depth;
  report.check(tag + "router_conservation", conserved,
               "submitted=" + std::to_string(submitted) +
                   " popped=" + std::to_string(r.popped) +
                   " shed=" + std::to_string(r.total_shed()) +
                   " depth=" + std::to_string(r.depth));
  report.check(tag + "ingest_matches_sent",
               s.ingested && s.snap.feed.records == s.sent,
               "ingest=" + std::to_string(s.snap.feed.records) +
                   " sent=" + std::to_string(s.sent));
  report.check(tag + "no_malformed", s.snap.feed.malformed == 0);
}

}  // namespace

bool is_daemon_workload(const std::string& name) {
  for (const char* w : kDaemonWorkloads)
    if (name == w) return true;
  return false;
}

void run_daemon(const RunArgs& args, Report& report) {
  // Set-up: constructing a Daemon and connecting to it, sampled on separate
  // daemons before and after the session; the session's own construction
  // is one more sample.
  std::vector<double> setup;
  const auto sample_setup = [&] {
    for (int i = 0; i < kSetupReps; ++i) {
      const service::DaemonConfig config = make_config();
      const Clock::time_point t0 = Clock::now();
      service::Daemon daemon(config);
      const int fd = connect_or_throw(config.unix_socket_path);
      setup.push_back(seconds_between(t0, Clock::now()));
      service::close_fd(fd);
    }
  };
  sample_setup();

  // The send window leaves room for set-up, ingest and drain in the run.
  const double window_s = std::max(0.5, args.seconds * 0.8 * args.scale);
  SpanLog log;
  const Session plain =
      run_session(args, args.trace ? window_s / 2 : window_s, false, log);
  setup.push_back(plain.construct_s);
  sample_setup();
  check_session(plain, report, "");
  const Flow flow = books_flow(plain.snap);

  report.set_counts(plain.sent, plain.sent - flow.completed);
  // The sender is an open loop, so this rate is its offered load as long as
  // the daemon keeps up: it cannot show a faster daemon, only a lossy one.
  report.metric("jobs_per_s",
                ratio(static_cast<double>(flow.completed), plain.elapsed_s));
  report.metric("peak_rss_mb", peak_rss_mb());
  report.metric("setup_s", median(setup));
  report.metric("flow_mean_ms", flow.mean_ms);
  report.metric("flow_p99_ms", flow.p99_ms);
  report.metric("completed_share",
                ratio(static_cast<double>(flow.completed),
                      static_cast<double>(plain.sent)));
  // Validity, visible in every run: a late sender inflates flow without
  // any fault of the daemon.
  report.text("lag_p99_ms", std::to_string(plain.lag_p99_ms));
  if (plain.lag_p99_ms > 0.1 * flow.mean_ms)
    report.text("warning", "sender lag p99 is over 10% of mean flow");
  if (!args.trace) return;

  log.clear();
  const Session traced = run_session(args, window_s / 2, true, log);
  check_session(traced, report, "traced.");
  if (!args.spans_out.empty() && !log.write_tsv(args.spans_out))
    report.check("spans_written", false, args.spans_out);
  const Flow tflow = books_flow(traced.snap);
  const auto& feed = traced.snap.feed;
  const auto& router = traced.snap.router;
  const auto& pool = traced.snap.pool;

  report.metric("loadgen.sent", static_cast<double>(traced.sent));
  report.metric("loadgen.lag_p99_ms", traced.lag_p99_ms);
  report.metric("service.records_per_batch",
                ratio(static_cast<double>(feed.records),
                      static_cast<double>(feed.batches)));
  report.metric("service.router_peak_depth",
                static_cast<double>(router.peak_depth));
  report.metric("service.router_wait_mean_ms",
                tflow.mean_ms - traced.runtime_flow.mean * 1e3);
  report.metric("service.window_full_share",
                ratio(static_cast<double>(traced.window_full),
                      static_cast<double>(traced.samples)));
  report.metric("service.shed_share",
                ratio(static_cast<double>(router.total_shed()),
                      static_cast<double>(traced.sent)));
  report.metric("service.drain_s", traced.drain_s);
  report.metric("service.flow_max_ms", tflow.max_ms);
  report.metric("runtime.flow_p50_ms", traced.runtime_flow.p50 * 1e3);
  report.metric("runtime.flow_p99_ms", traced.runtime_flow.p99 * 1e3);
  report.metric("runtime.tasks_executed",
                static_cast<double>(pool.tasks_executed));
  report.metric("runtime.steal_success_ratio",
                ratio(static_cast<double>(pool.successful_steals),
                      static_cast<double>(pool.steal_attempts)));
  report.metric("trace.wall_s", traced.elapsed_s);
  report.metric("trace.jobs_per_s_overhead",
                1.0 - ratio(ratio(static_cast<double>(tflow.completed),
                                  traced.elapsed_s),
                            ratio(static_cast<double>(flow.completed),
                                  plain.elapsed_s)));
  report.metric("trace.flow_mean_overhead",
                ratio(tflow.mean_ms, flow.mean_ms) - 1.0);
}

}  // namespace perfbench
