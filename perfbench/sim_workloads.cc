// Simulator workloads: core::run_scheduler_streamed_with_bounds over two
// workload::GeneratedJobSources (the `pjsched_cli run --streamed` path),
// Section 6's m = 16, s = 1, Poisson 1000 qps operating point.
//
// A run simulates the workload once at full size, for the simulated flow
// and the reference check, then times short repetitions of the same seed
// until its seconds are used up.
//
// The traced run wraps each source in TracedSource, which records one span
// per job pulled (a take() on the generator) and counts the allocations
// made inside it.  The streamed call runs the bounds pass to exhaustion
// first and the engine second, so the call splits into a core.bounds span
// (call start to the bounds source running dry) and a sim.engine span (the
// rest); each job's take span is a child of the phase that pulled it, and
// the phases' self times are the bounds math and the engine alone.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/run.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"
#include "src/workload/streaming_source.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = pjsched::core;
namespace workload = pjsched::workload;

struct SimWorkload {
  const char* name;
  const char* scheduler;
  bool bing;  ///< Figure 3(a) Bing sizes; otherwise Figure 3(c) log-normal
  std::size_t jobs;  ///< jobs in the run that gives the flow metrics
};

constexpr SimWorkload kSimWorkloads[] = {
    {"sim_fifo_bing", "fifo", true, 200000},
    {"sim_steal16_lognormal", "steal-16-first", false, 100000},
};

constexpr unsigned kProcessors = 16;
constexpr double kQps = 1000.0;
/// Jobs per timed repetition.  Short repetitions catch the host's quiet
/// stretches (see README.md, "Host noise"); the simulated flow comes from
/// one run of SimWorkload::jobs, whose statistics are steadier.
constexpr std::size_t kTimedJobs = 10000;
constexpr int kSetupReps = 3;  ///< set-up samples per repetition
/// Set-ups timed together in one sample, so that a sample (~0.3 ms) is far
/// above the clock's resolution and cost.
constexpr int kSetupBatch = 1000;

const SimWorkload& find_workload(const std::string& name) {
  for (const SimWorkload& w : kSimWorkloads)
    if (name == w.name) return w;
  throw std::invalid_argument("unknown sim workload: " + name);
}

std::unique_ptr<workload::WorkDistribution> make_distribution(
    const SimWorkload& w) {
  if (w.bing)
    return std::make_unique<workload::DiscreteWorkDistribution>(
        workload::bing_distribution());
  return std::make_unique<workload::LognormalWorkDistribution>(
      workload::default_lognormal_distribution());
}

workload::GeneratorConfig make_config(const RunArgs& args, std::size_t jobs) {
  workload::GeneratorConfig cfg;
  const double scaled = static_cast<double>(jobs) * args.scale;
  cfg.num_jobs = std::max<std::size_t>(1000, static_cast<std::size_t>(scaled));
  cfg.qps = kQps;
  cfg.seed = args.seed;
  return cfg;
}

core::SchedulerSpec make_spec(const SimWorkload& w, const RunArgs& args) {
  core::SchedulerSpec spec = core::parse_scheduler(w.scheduler);
  spec.seed = args.seed;
  return spec;
}

core::MachineConfig make_machine() {
  core::MachineConfig machine;
  machine.processors = kProcessors;
  machine.speed = 1.0;
  return machine;
}

std::string hex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Every simulated statistic the streamed and materialized paths must agree
/// on bit for bit (mean flow differs in summation order and is left out).
std::string fingerprint(std::size_t jobs, double max_flow,
                        double max_weighted_flow, core::JobId argmax,
                        double makespan, const core::EngineStats& s) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "jobs=%zu max_flow=%s max_weighted_flow=%s argmax=%zu makespan=%s "
      "steal_attempts=%" PRIu64 " successful_steals=%" PRIu64
      " admissions=%" PRIu64 " work_steps=%" PRIu64 " idle_steps=%" PRIu64
      " macro_jumps=%" PRIu64 " decision_points=%" PRIu64
      " fast_decisions=%" PRIu64 " arena_slots=%" PRIu64
      " peak_live_jobs=%" PRIu64 " idle_processor_time=%s",
      jobs, hex(max_flow).c_str(), hex(max_weighted_flow).c_str(),
      static_cast<std::size_t>(argmax), hex(makespan).c_str(),
      s.steal_attempts, s.successful_steals, s.admissions, s.work_steps,
      s.idle_steps, s.macro_jumps, s.decision_points, s.fast_decisions,
      s.arena_slots, s.peak_live_jobs, hex(s.idle_processor_time).c_str());
  return buf;
}

/// Wraps a source, recording a span per job pulled from it and counting
/// the allocations made while generating that job.
class TracedSource final : public core::JobSource {
 public:
  TracedSource(core::JobSource& inner, SpanLog& log, std::uint32_t parent)
      : inner_(inner), log_(log), parent_(parent) {}

  std::size_t size() const override { return inner_.size(); }

  std::uint64_t taken() const { return taken_; }
  std::uint64_t allocs() const { return allocs_; }
  Clock::time_point exhausted_at() const { return exhausted_at_; }

 protected:
  bool produce(core::StreamedJob& out) override {
    const std::uint64_t a0 = alloc_count();
    const Clock::time_point t0 = Clock::now();
    if (inner_.done()) {
      exhausted_at_ = t0;
      return false;
    }
    out = inner_.take();
    const Clock::time_point t1 = Clock::now();
    allocs_ += alloc_count() - a0;
    log_.record("workload.take", parent_, t0, t1);
    ++taken_;
    return true;
  }

 private:
  core::JobSource& inner_;
  SpanLog& log_;
  std::uint32_t parent_;
  std::uint64_t taken_ = 0;
  std::uint64_t allocs_ = 0;
  Clock::time_point exhausted_at_{};
};

/// One repetition's outcome.
struct Rep {
  double wall_s = 0.0;
  core::StreamRatioResult result;
  // Traced repetitions only.
  double generate_s = 0.0;
  double bounds_s = 0.0;
  double engine_s = 0.0;
  double allocs_per_job = 0.0;
  bool taken_match = true;
};

Rep run_untraced(const SimWorkload& w, const RunArgs& args,
                 const workload::GeneratorConfig& cfg) {
  const auto dist = make_distribution(w);
  workload::GeneratedJobSource bound_source(*dist, cfg);
  workload::GeneratedJobSource run_source(*dist, cfg);
  Rep rep;
  const Clock::time_point t0 = Clock::now();
  rep.result = core::run_scheduler_streamed_with_bounds(
      run_source, bound_source, make_spec(w, args), make_machine());
  rep.wall_s = seconds_between(t0, Clock::now());
  return rep;
}

Rep run_traced(const SimWorkload& w, const RunArgs& args,
               const workload::GeneratorConfig& cfg, SpanLog& log) {
  const auto dist = make_distribution(w);
  workload::GeneratedJobSource bound_raw(*dist, cfg);
  workload::GeneratedJobSource run_raw(*dist, cfg);
  log.clear();
  log.reserve(2 * cfg.num_jobs + 3);
  const std::uint32_t call = log.open("core.run_streamed_with_bounds",
                                      Span::kNoParent);
  const std::uint32_t bounds = log.open("core.bounds", call);
  const std::uint32_t engine = log.open("sim.engine", call);
  TracedSource bound_source(bound_raw, log, bounds);
  TracedSource run_source(run_raw, log, engine);

  Rep rep;
  const Clock::time_point t0 = Clock::now();
  rep.result = core::run_scheduler_streamed_with_bounds(
      run_source, bound_source, make_spec(w, args), make_machine());
  const Clock::time_point t1 = Clock::now();

  log.close(call, t0, t1);
  log.close(bounds, t0, bound_source.exhausted_at());
  log.close(engine, bound_source.exhausted_at(), t1);
  rep.wall_s = seconds_between(t0, t1);
  rep.generate_s = log.total_seconds("workload.take");
  for (const auto& [name, self] : log.self_seconds()) {
    if (name == "core.bounds") rep.bounds_s = self;
    if (name == "sim.engine") rep.engine_s = self;
  }
  const std::uint64_t taken = bound_source.taken() + run_source.taken();
  rep.allocs_per_job =
      taken > 0 ? static_cast<double>(bound_source.allocs() +
                                      run_source.allocs()) /
                      static_cast<double>(taken)
                : 0.0;
  rep.taken_match = bound_source.taken() == cfg.num_jobs &&
                    run_source.taken() == cfg.num_jobs;
  return rep;
}

std::string fingerprint(const core::StreamRunResult& r) {
  return fingerprint(r.jobs, r.max_flow, r.max_weighted_flow, r.argmax_flow,
                     r.makespan, r.stats);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

const Rep& fastest(const std::vector<Rep>& reps) {
  return *std::min_element(
      reps.begin(), reps.end(),
      [](const Rep& a, const Rep& b) { return a.wall_s < b.wall_s; });
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  for (const SimWorkload& w : kSimWorkloads)
    if (name == w.name) return true;
  return false;
}

void run_sim(const RunArgs& args, Report& report) {
  const SimWorkload& w = find_workload(args.workload);
  const workload::GeneratorConfig full = make_config(args, w.jobs);
  const workload::GeneratorConfig timed = make_config(args, kTimedJobs);
  const Clock::time_point start = Clock::now();

  // The full-size run: simulated flow, peak RSS and the reference check.
  const Rep whole = run_untraced(w, args, full);

  // Set-up: what a streamed run builds before it simulates anything.  A
  // few batched samples before every repetition, so their median spans the
  // run.
  std::vector<double> setup;
  const auto sample_setup = [&] {
    for (int i = 0; i < kSetupReps; ++i) {
      const Clock::time_point t0 = Clock::now();
      for (int k = 0; k < kSetupBatch; ++k) {
        const auto dist = make_distribution(w);
        workload::GeneratedJobSource bound_source(*dist, timed);
        workload::GeneratedJobSource run_source(*dist, timed);
      }
      setup.push_back(seconds_between(t0, Clock::now()) / kSetupBatch);
    }
  };

  // Untraced repetitions fill the whole run, or its first half when traced.
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Rep> plain;
  do {
    sample_setup();
    plain.push_back(run_untraced(w, args, timed));
  } while (plain.size() < 3 ||
           seconds_between(start, Clock::now()) < untraced_budget);
  const double rss_mb = peak_rss_mb();

  std::vector<Rep> traced;
  if (args.trace) {
    SpanLog log;
    set_alloc_counting(true);
    do {
      traced.push_back(run_traced(w, args, timed, log));
    } while (traced.size() < 3 ||
             seconds_between(start, Clock::now()) < args.seconds);
    set_alloc_counting(false);
    if (!args.spans_out.empty() && !log.write_tsv(args.spans_out))
      report.check("spans_written", false, args.spans_out);
  }

  // Checks: every timed repetition simulated the same jobs to the same
  // result, the job counts agree, and the lower bound is below the max flow.
  const std::string print = fingerprint(plain.front().result.run);
  const auto counted = [](const Rep& r, std::size_t jobs) {
    return r.taken_match && r.result.run.jobs == jobs &&
           r.result.bounds.jobs == jobs;
  };
  const auto bounded = [](const Rep& r) {
    return r.result.bounds.combined <= r.result.run.max_flow;
  };
  bool identical = true;
  bool counts = counted(whole, full.num_jobs);
  bool bound_ok = bounded(whole);
  std::size_t reps = 0;
  for (const std::vector<Rep>* group : {&plain, &traced}) {
    for (const Rep& r : *group) {
      identical = identical && fingerprint(r.result.run) == print;
      counts = counts && counted(r, timed.num_jobs);
      bound_ok = bound_ok && bounded(r);
    }
    reps += group->size();
  }
  const core::StreamRatioResult& first = whole.result;
  report.check("reps_identical", identical);
  report.check("jobs_match", counts,
               "run=" + std::to_string(first.run.jobs) +
                   " bounds=" + std::to_string(first.bounds.jobs) +
                   " generated=" + std::to_string(full.num_jobs));
  report.check("bound_le_max_flow", bound_ok,
               "combined=" + hex(first.bounds.combined) +
                   " max_flow=" + hex(first.run.max_flow));
  report.text("fingerprint", fingerprint(first.run));
  report.text("reps", std::to_string(reps));
  report.set_counts(full.num_jobs + timed.num_jobs * reps, 0);

  // Rates come from the fastest repetition: the host's shared memory system
  // slows this code for stretches of seconds at a time, and the fastest
  // repetition of a run is far steadier across runs than the median one.
  const double units = full.units_per_ms;
  const double jobs = static_cast<double>(timed.num_jobs);
  const double jobs_per_s = jobs / fastest(plain).wall_s;
  report.metric("jobs_per_s", jobs_per_s);
  report.metric("peak_rss_mb", rss_mb);
  report.metric("setup_s", median(setup));
  report.metric("flow_mean_ms", first.run.mean_flow / units);
  report.metric("flow_p99_ms", first.run.flow.p99 / units);
  // 1 by construction (jobs_match above): a simulator completes every job.
  report.metric("completed_share",
                ratio(static_cast<double>(first.run.jobs),
                      static_cast<double>(full.num_jobs)));
  if (!args.trace) return;

  // The split and the counts of the fastest traced repetition, so that its
  // parts add up to trace.wall_s; the memory counts of the full-size run,
  // which sets peak_rss_mb.
  const Rep& best = fastest(traced);
  const double engine_s = best.engine_s;
  const double wall_s = best.wall_s;
  const double generate_s = best.generate_s;
  const core::EngineStats& s = best.result.run.stats;
  const double steps = static_cast<double>(s.work_steps + s.idle_steps);
  const double traced_jobs_per_s = jobs / wall_s;

  report.metric("workload.generate_s", generate_s);
  report.metric("workload.generate_share", ratio(generate_s, wall_s));
  report.metric("workload.allocs_per_job", best.allocs_per_job);
  report.metric("core.bounds_s", best.bounds_s);
  report.metric("sim.engine_s", engine_s);
  report.metric("sim.decisions", static_cast<double>(s.decision_points));
  report.metric("sim.fast_decision_share",
                ratio(static_cast<double>(s.fast_decisions),
                      static_cast<double>(s.decision_points)));
  report.metric("sim.ns_per_decision",
                ratio(engine_s * 1e9, static_cast<double>(s.decision_points)));
  report.metric("sim.steps", steps);
  report.metric("sim.macro_jumps", static_cast<double>(s.macro_jumps));
  report.metric("sim.ns_per_step", ratio(engine_s * 1e9, steps));
  report.metric("sim.peak_live_jobs",
                static_cast<double>(first.run.stats.peak_live_jobs));
  report.metric("sim.arena_slots",
                static_cast<double>(first.run.stats.arena_slots));
  report.metric("sched.steal_attempts", static_cast<double>(s.steal_attempts));
  report.metric("sched.steal_success_ratio",
                ratio(static_cast<double>(s.successful_steals),
                      static_cast<double>(s.steal_attempts)));
  report.metric("sched.admissions", static_cast<double>(s.admissions));
  report.metric("trace.wall_s", wall_s);
  report.metric("trace.jobs_per_s_overhead",
                1.0 - ratio(traced_jobs_per_s, jobs_per_s));
  // Tracing cannot change a simulated flow time: the run is deterministic.
  report.metric("trace.flow_mean_overhead", 0.0);
}

void run_sim_reference(const RunArgs& args, Report& report) {
  const SimWorkload& w = find_workload(args.workload);
  const auto dist = make_distribution(w);
  const workload::GeneratorConfig cfg = make_config(args, w.jobs);
  const core::Instance instance = workload::generate_instance(*dist, cfg);
  const core::ScheduleResult r = core::run_scheduler(
      instance, make_spec(w, args), make_machine());
  report.text("fingerprint",
              fingerprint(r.completion.size(), r.max_flow, r.max_weighted_flow,
                          r.argmax_flow, r.makespan, r.stats));
  report.set_counts(cfg.num_jobs, 0);
}

}  // namespace perfbench
