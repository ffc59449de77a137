#include "src/cli/cli.h"

#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "src/core/bounds.h"
#include "src/core/multi_trial.h"
#include "src/core/run.h"
#include "src/metrics/gantt.h"
#include "src/metrics/table.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"
#include "src/workload/instance_io.h"
#include "src/workload/streaming_source.h"

namespace pjsched::cli {

namespace {

struct Options {
  std::string command;
  std::string workload = "bing";
  std::string scheduler = "steal-16-first";
  std::size_t jobs = 2000;
  double qps = 1000.0;
  std::uint64_t seed = 42;
  std::size_t grains = 32;
  double units_per_ms = 100.0;
  unsigned m = 16;
  double speed = 1.0;
  std::string load_file;
  std::optional<std::size_t> gantt_width;
  std::string chrome_trace_file;
  std::optional<std::size_t> utilization_buckets;
  bool csv = false;
  std::vector<double> weight_classes = {1.0};
  std::size_t trials = 1;
  /// Spill-mode trace file (sim::FileTraceSink); works at 10^6 jobs where
  /// an in-core trace would not.
  std::string trace_out_file;
  /// Machine-degradation events (--degrade).  Events whose speed was not
  /// given carry the sentinel speed < 0 and inherit --speed at use time.
  std::vector<core::MachineEvent> degradation;
};

/// True when a flag asks for a view rendered from an in-core trace.
bool wants_trace_view(const Options& opt) {
  return opt.gantt_width.has_value() || !opt.chrome_trace_file.empty() ||
         opt.utilization_buckets.has_value();
}

/// Resolves the machine config for a run: base (m, speed) plus any
/// --degrade events, with unspecified event speeds inheriting --speed.
core::MachineConfig make_machine(const Options& opt) {
  core::MachineConfig machine{opt.m, opt.speed, opt.degradation};
  for (core::MachineEvent& e : machine.degradation)
    if (e.speed < 0.0) e.speed = opt.speed;
  return machine;
}

[[noreturn]] void usage_error(const std::string& message) {
  throw std::invalid_argument(message);
}

bool consume(const std::string& arg, const char* key, std::string* value) {
  const std::string prefix = std::string("--") + key + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

Options parse(const std::vector<std::string>& args) {
  if (args.empty()) usage_error("missing command (run | generate | bounds)");
  Options opt;
  opt.command = args[0];
  if (opt.command != "run" && opt.command != "generate" &&
      opt.command != "bounds")
    usage_error("unknown command '" + opt.command + "'");

  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    std::string v;
    try {
      if (consume(arg, "workload", &v)) {
        opt.workload = v;
      } else if (consume(arg, "scheduler", &v)) {
        opt.scheduler = v;
      } else if (consume(arg, "jobs", &v)) {
        opt.jobs = std::stoull(v);
      } else if (consume(arg, "qps", &v)) {
        opt.qps = std::stod(v);
      } else if (consume(arg, "seed", &v)) {
        opt.seed = std::stoull(v);
      } else if (consume(arg, "grains", &v)) {
        opt.grains = std::stoull(v);
      } else if (consume(arg, "units-per-ms", &v)) {
        opt.units_per_ms = std::stod(v);
      } else if (consume(arg, "m", &v)) {
        opt.m = static_cast<unsigned>(std::stoul(v));
      } else if (consume(arg, "speed", &v)) {
        opt.speed = std::stod(v);
      } else if (consume(arg, "load", &v)) {
        opt.load_file = v;
      } else if (arg == "--gantt") {
        opt.gantt_width = 100;
      } else if (consume(arg, "gantt", &v)) {
        opt.gantt_width = std::stoull(v);
      } else if (consume(arg, "chrome-trace", &v)) {
        opt.chrome_trace_file = v;
      } else if (consume(arg, "utilization", &v)) {
        opt.utilization_buckets = std::stoull(v);
      } else if (arg == "--csv") {
        opt.csv = true;
      } else if (consume(arg, "trace-out", &v)) {
        opt.trace_out_file = v;
      } else if (consume(arg, "weights", &v)) {
        opt.weight_classes.clear();
        std::istringstream iss(v);
        std::string tok;
        while (std::getline(iss, tok, ','))
          opt.weight_classes.push_back(std::stod(tok));
        if (opt.weight_classes.empty())
          usage_error("--weights needs at least one value");
      } else if (consume(arg, "trials", &v)) {
        opt.trials = std::stoull(v);
        if (opt.trials == 0) usage_error("--trials must be >= 1");
      } else if (consume(arg, "degrade", &v)) {
        // Comma-separated machine events "t:m[:s]": at simulated time t the
        // machine drops (or recovers) to m processors, optionally changing
        // speed to s.  Work-stealing (step-engine) schedulers reject speed
        // changes — their step length is fixed at 1/s.
        std::istringstream events(v);
        std::string tok;
        while (std::getline(events, tok, ',')) {
          std::istringstream fields(tok);
          std::string t_str, m_str, s_str;
          if (!std::getline(fields, t_str, ':') ||
              !std::getline(fields, m_str, ':'))
            usage_error("--degrade events are t:m[:s], got '" + tok + "'");
          core::MachineEvent e;
          e.time = std::stod(t_str);
          e.processors = static_cast<unsigned>(std::stoul(m_str));
          e.speed = std::getline(fields, s_str, ':') ? std::stod(s_str)
                                                     : -1.0;  // inherit
          opt.degradation.push_back(e);
        }
        if (opt.degradation.empty())
          usage_error("--degrade needs at least one t:m[:s] event");
      } else {
        usage_error("unknown flag '" + arg + "'");
      }
    } catch (const std::invalid_argument&) {
      throw;
    } catch (const std::exception&) {
      usage_error("bad value in '" + arg + "'");
    }
  }
  return opt;
}

std::unique_ptr<workload::WorkDistribution> make_distribution(
    const std::string& name) {
  if (name == "bing")
    return std::make_unique<workload::DiscreteWorkDistribution>(
        workload::bing_distribution());
  if (name == "finance")
    return std::make_unique<workload::DiscreteWorkDistribution>(
        workload::finance_distribution());
  if (name == "lognormal")
    return std::make_unique<workload::LognormalWorkDistribution>(
        workload::default_lognormal_distribution());
  usage_error("unknown workload '" + name + "'");
}

/// The one generator config every command builds from the workload flags.
workload::GeneratorConfig make_generator(const Options& opt) {
  workload::GeneratorConfig gen;
  gen.num_jobs = opt.jobs;
  gen.qps = opt.qps;
  gen.seed = opt.seed;
  gen.grains = opt.grains;
  gen.units_per_ms = opt.units_per_ms;
  gen.weight_classes = opt.weight_classes;
  return gen;
}

/// A command's job stream: the --load'ed instance, or the generated
/// workload.  Every source() replays the identical stream, so two of them
/// form the twin pair run_scheduler_streamed_with_bounds takes.  Only a
/// --load'ed instance is held in memory; a generated stream is O(1) here.
class Workload {
 public:
  explicit Workload(const Options& opt) {
    if (opt.load_file.empty()) {
      dist_ = make_distribution(opt.workload);
      gen_ = make_generator(opt);
    } else {
      std::ifstream in(opt.load_file);
      if (!in)
        usage_error("cannot open instance file '" + opt.load_file + "'");
      instance_ = workload::read_instance(in);
    }
  }

  std::unique_ptr<core::JobSource> source() const {
    if (dist_ == nullptr)
      return std::make_unique<core::InstanceSource>(instance_);
    return std::make_unique<workload::GeneratedJobSource>(*dist_, gen_);
  }

 private:
  std::unique_ptr<workload::WorkDistribution> dist_;  // null under --load
  workload::GeneratorConfig gen_;
  core::Instance instance_;
};

// Multi-trial run: aggregate statistics across seeds.  Each trial runs its
// own workload, so there is no single trace to render or spill.
int cmd_run_trials(const Options& opt, std::ostream& out) {
  if (!opt.load_file.empty())
    usage_error("--trials cannot be combined with --load (trials resample "
                "the workload)");
  if (wants_trace_view(opt) || !opt.trace_out_file.empty())
    usage_error("--trials cannot be combined with --gantt, --chrome-trace, "
                "--utilization or --trace-out (each trial has its own trace)");
  const auto dist = make_distribution(opt.workload);
  core::TrialConfig cfg;
  cfg.trials = opt.trials;
  cfg.generator = make_generator(opt);
  cfg.machine = make_machine(opt);
  cfg.scheduler = core::parse_scheduler(opt.scheduler);
  cfg.scheduler.seed = opt.seed;
  const auto res = core::run_trials(*dist, cfg);

  metrics::Table table({"metric", "mean", "stddev", "min", "max"});
  const auto add = [&](const char* name, const metrics::Summary& s,
                       double scale) {
    table.add_row({name, metrics::Table::cell(s.mean / scale),
                   metrics::Table::cell(s.stddev / scale),
                   metrics::Table::cell(s.min / scale),
                   metrics::Table::cell(s.max / scale)});
  };
  add("max_flow_ms", res.max_flow, opt.units_per_ms);
  add("mean_flow_ms", res.mean_flow, opt.units_per_ms);
  add("max_weighted_flow_ms", res.max_weighted_flow, opt.units_per_ms);
  add("ratio_to_opt", res.ratio_to_opt, 1.0);
  if (opt.csv) {
    table.print_csv(out);
    return 0;
  }
  out << "scheduler " << opt.scheduler << ", " << opt.trials
      << " trials, jobs " << opt.jobs << ", m=" << opt.m << ", speed "
      << opt.speed << " (flow rows in ms)\n";
  table.print(out);
  return 0;
}

int cmd_generate(const Options& opt, std::ostream& out) {
  workload::write_instance(out, core::materialize(*Workload(opt).source()));
  return 0;
}

// One O(1)-state pass over the job stream, so --jobs can be 10^6+.
int cmd_bounds(const Options& opt, std::ostream& out) {
  const Workload workload(opt);
  const core::LowerBoundSet b =
      core::stream_lower_bounds(*workload.source(), opt.m);
  metrics::Table table({"bound", "value_units", "value_ms"});
  const auto add = [&](const char* name, double v) {
    table.add_row({name, metrics::Table::cell(v),
                   metrics::Table::cell(v / opt.units_per_ms)});
  };
  add("span (max P_i)", b.span);
  add("work (max W_i/m)", b.work);
  add("opt-sim (Sec 6)", b.opt_sim);
  add("combined", b.combined);
  add("weighted span", b.weighted_span);
  add("weighted combined", b.weighted_combined);
  table.print(out);
  return 0;
}

void print_summary(const Options& opt, const core::MachineConfig& machine,
                   const core::StreamRatioResult& res, std::ostream& out) {
  const core::StreamRunResult& run = res.run;
  const double u = opt.units_per_ms;
  if (opt.csv) {
    metrics::Table table({"scheduler", "jobs", "m", "speed", "max_flow_ms",
                          "mean_flow_ms", "max_weighted_flow_ms",
                          "makespan_ms", "steals", "admissions",
                          "combined_bound_ms", "ratio"});
    table.add_row({run.scheduler_name,
                   metrics::Table::cell(std::uint64_t{run.jobs}),
                   metrics::Table::cell(std::uint64_t{opt.m}),
                   metrics::Table::cell(opt.speed),
                   metrics::Table::cell(run.max_flow / u),
                   metrics::Table::cell(run.mean_flow / u),
                   metrics::Table::cell(run.max_weighted_flow / u),
                   metrics::Table::cell(run.makespan / u),
                   metrics::Table::cell(run.stats.steal_attempts),
                   metrics::Table::cell(run.stats.admissions),
                   metrics::Table::cell(res.bounds.combined / u),
                   metrics::Table::cell(res.ratio)});
    table.print_csv(out);
    return;
  }
  out << "scheduler:        " << run.scheduler_name << "\n"
      << "jobs:             " << run.jobs << "\n"
      << "machine:          m=" << opt.m << ", speed " << opt.speed;
  for (const core::MachineEvent& e : machine.degradation)
    out << ", @" << e.time << "->m=" << e.processors << "/s=" << e.speed;
  out << "\n"
      << "max flow:         " << run.max_flow / u << " ms (job "
      << run.argmax_flow << ")\n"
      << "mean flow:        " << run.mean_flow / u << " ms\n"
      << "p99 flow:         " << run.flow.p99 / u << " ms ("
      << (run.flow_quantiles_exact ? "exact" : "reservoir estimate") << ")\n"
      << "max weighted:     " << run.max_weighted_flow / u
      << " weighted-ms\n"
      << "makespan:         " << run.makespan / u << " ms\n"
      << "opt lower bound:  " << res.bounds.opt_sim / u << " ms\n"
      << "combined bound:   " << res.bounds.combined / u << " ms\n"
      << "ratio to bound:   " << res.ratio << "\n";
  if (res.weighted_ratio > 0.0 && res.weighted_ratio != res.ratio)
    out << "weighted ratio:   " << res.weighted_ratio << "\n";
  if (run.stats.steal_attempts > 0 || run.stats.admissions > 0)
    out << "steals:           " << run.stats.successful_steals << "/"
        << run.stats.steal_attempts << " successful, "
        << run.stats.admissions << " admissions\n";
}

void print_views(const Options& opt, const sim::Trace& trace,
                 std::ostream& out) {
  if (opt.gantt_width.has_value()) {
    metrics::GanttOptions gopt;
    gopt.width = *opt.gantt_width;
    out << "\n" << metrics::ascii_gantt(trace, opt.m, gopt);
  }
  if (opt.utilization_buckets.has_value()) {
    const auto busy =
        metrics::utilization_timeline(trace, *opt.utilization_buckets);
    out << "\nutilization profile (busy processors per bucket):\n";
    for (std::size_t b = 0; b < busy.size(); ++b) {
      out << "  [" << b << "] " << busy[b] << " ";
      out << std::string(static_cast<std::size_t>(busy[b] * 2.0), '#') << "\n";
    }
  }
  if (!opt.chrome_trace_file.empty()) {
    std::ofstream f(opt.chrome_trace_file);
    if (!f)
      usage_error("cannot write chrome trace '" + opt.chrome_trace_file + "'");
    metrics::write_chrome_trace(f, trace);
    out << "\nchrome trace written to " << opt.chrome_trace_file
        << " (open in chrome://tracing)\n";
  }
}

// Streams the workload twice: one O(1)-state pass for the lower bounds and
// one O(live jobs) pass for the scheduler.  Memory stays O(live jobs)
// unless an in-core view asks for the trace, which is O(intervals).
int cmd_run(const Options& opt, std::ostream& out) {
  if (opt.trials > 1) return cmd_run_trials(opt, out);
  auto spec = core::parse_scheduler(opt.scheduler);
  spec.seed = opt.seed;
  const core::MachineConfig machine = make_machine(opt);

  const bool want_views = wants_trace_view(opt);
  std::unique_ptr<sim::FileTraceSink> sink;
  std::unique_ptr<sim::Trace> trace;
  if (!opt.trace_out_file.empty()) {
    if (want_views)
      usage_error(
          "--trace-out spills the trace to disk and cannot feed the in-core "
          "views (--gantt/--chrome-trace/--utilization)");
    sink = std::make_unique<sim::FileTraceSink>(opt.trace_out_file);
    trace = std::make_unique<sim::Trace>(sink.get());
  } else if (want_views) {
    trace = std::make_unique<sim::Trace>();
  }

  const Workload workload(opt);
  const auto run_source = workload.source();
  const auto bound_source = workload.source();
  const core::StreamRatioResult res = core::run_scheduler_streamed_with_bounds(
      *run_source, *bound_source, spec, machine, nullptr, trace.get());

  print_summary(opt, machine, res, out);
  if (want_views) print_views(opt, *trace, out);
  if (sink != nullptr)
    out << "trace written to " << opt.trace_out_file << " ("
        << sink->intervals_written() << " intervals, "
        << sink->steals_written() << " steals, "
        << sink->admissions_written() << " admissions)\n";
  return 0;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  try {
    const Options opt = parse(args);
    if (opt.command == "generate") return cmd_generate(opt, out);
    if (opt.command == "bounds") return cmd_bounds(opt, out);
    return cmd_run(opt, out);
  } catch (const std::invalid_argument& e) {
    err << "pjsched_cli: " << e.what() << "\n"
        << "usage: pjsched_cli <run|generate|bounds> [--workload=bing|"
           "finance|lognormal] [--scheduler=NAME] [--jobs=N] [--qps=Q]\n"
           "       [--m=M] [--speed=S] [--seed=S] [--grains=G]\n"
           "       [--units-per-ms=U] [--load=FILE] [--gantt[=W]]\n"
           "       [--chrome-trace=FILE] [--utilization=B] [--csv]\n"
           "       [--weights=w1,w2,...] [--trials=R]\n"
           "       [--trace-out=FILE]  (spill trace to FILE; run and bounds "
           "stream in\n"
           "        O(live jobs) memory, in-core views are O(intervals))\n"
           "       [--degrade=t:m[:s],...]  (machine loses/recovers "
           "processors at time t;\n"
           "        work-stealing schedulers reject speed changes)\n";
    return 2;
  }
}

}  // namespace pjsched::cli
