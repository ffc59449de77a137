// Ingest-path benchmarks: jobs/sec from raw feed bytes into the tenant
// router, at three depths of the stack.
//
//   BM_IngestParseAdmit   in-process hot loop — IngestBuffer::parse over a
//                         precomposed byte stream, admit_batch, paired pops.
//                         The armed alloc probe divides operator-new calls
//                         by jobs: the <= 1 alloc/job ingest-path gate in
//                         executable form (tools/check_ingest_smoke.py
//                         enforces it from the JSON in release CI).
//   BM_IngestPerLine      the same stream through the per-line path
//                         (parse_record + per-job push) — the before side
//                         of the batching comparison.
//   BM_IngestSocket/I/C   end to end: a Daemon with I io shards fed over C
//                         loopback TCP connections, manual-timed from first
//                         byte written to the last record counted by the
//                         daemon; the `complete_s` counter times on to the
//                         last record's terminal outcome in the tenant
//                         books.  The io-threads x connections grid feeds
//                         the `ingest` section of BENCH_sim.json
//                         (tools/make_bench_baseline.py --ingest), whose
//                         single-loop -> sharded scaling claim carries the
//                         1-CPU caveat on serialized hosts.
//
//   bench_ingest --benchmark_filter=Ingest
#define PJSCHED_ENABLE_ALLOC_PROBE
#include <benchmark/benchmark.h>

#include "bench/rss_probe.h"

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/service/daemon.h"
#include "src/service/record.h"
#include "src/service/stream_feed.h"
#include "src/service/tenant_router.h"

namespace {

using namespace pjsched::service;  // NOLINT

constexpr std::size_t kShards = 8;
constexpr std::size_t kCapacity = 1 << 16;
constexpr std::size_t kBatchEntries = 256;
constexpr std::size_t kFeedRecords = 4096;
constexpr std::size_t kFeedTenants = 16;

/// A realistic feed chunk: kFeedRecords short job lines over a handful of
/// tenants (names short enough for SSO, like real tenant ids).
const std::string& feed_bytes() {
  static const std::string* feed = [] {
    auto* s = new std::string;
    for (std::size_t i = 0; i < kFeedRecords; ++i) {
      *s += "job t" + std::to_string(i % kFeedTenants) + " " +
            std::to_string(1 + i % 4) + "\n";
    }
    return s;
  }();
  return *feed;
}

RouterConfig router_config() {
  RouterConfig config;
  config.shards = kShards;
  config.capacity = kCapacity;
  return config;
}

/// One pass of the zero-copy pipeline over the feed: chunked deposits into
/// the IngestBuffer, batched parse, batched admission, paired pops (depth
/// returns to zero, so every iteration measures the same path).  Returns
/// the number of records admitted or shed.
std::size_t parse_admit_pass(const std::string& feed, IngestBuffer& buffer,
                             TenantRouter& router,
                             std::vector<ParsedRecord>& parsed,
                             std::vector<JobRecord>& batch,
                             std::vector<TenantRouter::BatchOutcome>& outcomes,
                             std::vector<ShedRecord>& evictions,
                             TenantRouter::BatchScratch& scratch) {
  std::size_t jobs = 0;
  std::size_t off = 0;
  while (off < feed.size()) {
    const std::size_t chunk =
        std::min(buffer.tail_capacity(), feed.size() - off);
    std::memcpy(buffer.tail(), feed.data() + off, chunk);
    buffer.commit(chunk);
    off += chunk;
    for (;;) {
      const BatchParse bp = buffer.parse({parsed.data(), parsed.size()});
      if (bp.produced == 0 && bp.consumed == 0) break;
      batch.clear();
      for (std::size_t i = 0; i < bp.produced; ++i) {
        if (parsed[i].status == ParseStatus::kRecord)
          batch.push_back(std::move(parsed[i].record));
      }
      jobs += batch.size();
      router.admit_batch({batch.data(), batch.size()}, &outcomes, &evictions,
                         &scratch);
    }
  }
  QueuedRecord popped;
  while (router.try_pop(&popped)) {
  }
  return jobs;
}

/// Zero-copy batched parse + batched admission, with the alloc probe
/// reporting steady-state allocations per job.
void BM_IngestParseAdmit(benchmark::State& state) {
  const std::string& feed = feed_bytes();
  TenantRouter router(router_config());
  IngestBuffer buffer(kMaxLineBytes);
  std::vector<ParsedRecord> parsed(kBatchEntries);
  std::vector<JobRecord> batch;
  std::vector<TenantRouter::BatchOutcome> outcomes;
  std::vector<ShedRecord> evictions;
  TenantRouter::BatchScratch scratch;

  // Warm every reusable buffer (vector capacities, per-slot tenant
  // strings) so the probe sees the steady state, not setup.
  parse_admit_pass(feed, buffer, router, parsed, batch, outcomes, evictions,
                   scratch);
  const std::uint64_t allocs_before = pjsched::benchprobe::allocation_count();

  std::size_t jobs = 0;
  for (auto _ : state) {
    jobs += parse_admit_pass(feed, buffer, router, parsed, batch, outcomes,
                             evictions, scratch);
  }

  const std::uint64_t allocs =
      pjsched::benchprobe::allocation_count() - allocs_before;
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.counters["allocs_per_job"] =
      jobs > 0 ? static_cast<double>(allocs) / static_cast<double>(jobs) : 0.0;
}
BENCHMARK(BM_IngestParseAdmit);

/// The pre-batching shape: one std::string line at a time through
/// parse_record, one router-shard lock per job.
void BM_IngestPerLine(benchmark::State& state) {
  const std::string& feed = feed_bytes();
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i < feed.size(); ++i) {
    if (feed[i] == '\n') {
      lines.emplace_back(feed, start, i - start);
      start = i + 1;
    }
  }
  TenantRouter router(router_config());
  std::vector<ShedRecord> evictions;

  std::size_t jobs = 0;
  for (auto _ : state) {
    for (const std::string& line : lines) {
      JobRecord record;
      std::string error;
      if (parse_record(line, &record, &error) == ParseStatus::kRecord) {
        ShedReason reason{};
        router.push(std::move(record), &evictions, &reason);
        ++jobs;
      }
    }
    QueuedRecord popped;
    while (router.try_pop(&popped)) {
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_IngestPerLine);

/// End to end over real loopback sockets: io-threads (arg 0) x connections
/// (arg 1).  Each manual-timed iteration writes a fixed record count split
/// across the persistent connections and waits until the daemon has
/// counted them all.  The untimed tail waits until every record has a
/// terminal outcome, which `complete_s` reports (mean per iteration, from
/// the first byte written), and leaves the router empty so iterations
/// measure admission, not eviction.
void BM_IngestSocket(benchmark::State& state) {
  const auto io_threads = static_cast<std::size_t>(state.range(0));
  const auto connections = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kPerIteration = 4096;

  DaemonConfig config;
  config.pool.workers = 2;
  config.pool.watchdog_interval = std::chrono::milliseconds(0);
  config.router.shards = kShards;
  config.router.capacity = kCapacity;
  config.tcp_port = 0;
  config.io_threads = io_threads;
  config.max_connections = connections + 4;
  config.ns_per_unit = 1.0;  // execution is not what this bench measures
  Daemon daemon(config);

  std::vector<int> fds(connections, -1);
  for (std::size_t i = 0; i < connections; ++i) {
    std::string error;
    fds[i] = connect_tcp("127.0.0.1",
                         static_cast<std::uint16_t>(daemon.tcp_port()),
                         &error);
    if (fds[i] < 0) {
      state.SkipWithError(("connect: " + error).c_str());
      return;
    }
  }

  // Per-connection payloads, composed once: kPerIteration records split
  // evenly (the first `extra` connections take one more).
  std::vector<std::string> payloads(connections);
  for (std::size_t i = 0; i < connections; ++i) {
    const std::size_t count =
        kPerIteration / connections + (i < kPerIteration % connections ? 1 : 0);
    for (std::size_t k = 0; k < count; ++k) {
      payloads[i] += "job t" + std::to_string((i + k) % kFeedTenants) + " " +
                     std::to_string(1 + k % 4) + "\n";
    }
  }

  const auto terminal = [&daemon] {
    std::uint64_t n = 0;
    for (const auto& [name, t] : daemon.snapshot().tenants) n += t.terminal();
    return n;
  };
  std::uint64_t expected = 0;
  double complete_s = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    {
      std::vector<std::thread> writers;
      writers.reserve(connections);
      for (std::size_t i = 0; i < connections; ++i) {
        writers.emplace_back(
            [&, i] { write_all(fds[i], payloads[i]); });
      }
      for (auto& w : writers) w.join();
    }
    expected += kPerIteration;
    while (daemon.snapshot().feed.records < expected)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    state.SetIterationTime(elapsed.count());
    while (terminal() < expected)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    complete_s += std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  }

  for (const int fd : fds) close_fd(fd);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kPerIteration));
  state.counters["io_threads"] = static_cast<double>(io_threads);
  state.counters["connections"] = static_cast<double>(connections);
  state.counters["complete_s"] =
      complete_s / static_cast<double>(state.iterations());
}
BENCHMARK(BM_IngestSocket)
    ->UseManualTime()
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({2, 4})
    ->Args({4, 4})
    ->Args({4, 8});

}  // namespace

#include "bench/gbench_main.h"
