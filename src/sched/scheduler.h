// Common scheduler interface.  A Scheduler has one run path, simulate():
// it pulls an online job stream from a core::JobSource and reports every
// completion to a core::CompletionSink.  Implementations wrap one of the
// two simulation engines (src/sim) with a policy, or — for OptLowerBound —
// an analytic single-machine relaxation.  Schedulers are reusable:
// simulate() may be called on many sources.
//
// run() and run_streamed() are the two result adapters over that one path,
// both named by name(): run() streams a materialized Instance and returns
// the per-job core::ScheduleResult; run_streamed() keeps O(live jobs) state
// and returns exact extremes plus reservoir-backed summary statistics
// (core::StreamRunResult), bit-identical to run() on the materialized
// equivalent.
#pragma once

#include <string>

#include "src/core/job_source.h"
#include "src/core/types.h"
#include "src/sim/trace.h"

namespace pjsched::sched {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Human-readable name ("fifo", "fifo-exact", "steal-16-first", ...);
  /// every result this scheduler produces carries it.
  virtual std::string name() const = 0;

  /// Simulates `source` to exhaustion on the given machine, reporting each
  /// job's completion to `sink`; returns the engine counters.  If `trace`
  /// is non-null, records the execution for auditing (pass a spill-mode
  /// Trace, sim::TraceSink, to keep the recording bounded-memory).  Throws
  /// std::invalid_argument on invalid jobs or machines.
  virtual core::EngineStats simulate(core::JobSource& source,
                                     const core::MachineConfig& machine,
                                     core::CompletionSink& sink,
                                     sim::Trace* trace) = 0;

  /// Simulates the instance to completion (core::collect_schedule).
  core::ScheduleResult run(const core::Instance& instance,
                           const core::MachineConfig& machine,
                           sim::Trace* trace = nullptr) {
    return core::collect_schedule(instance, name(),
                                  source_run(machine, trace));
  }

  /// Simulates a streamed source with O(live jobs) resident state;
  /// completions land in `stats` (a local default when null).
  core::StreamRunResult run_streamed(
      core::JobSource& source, const core::MachineConfig& machine,
      metrics::StreamingFlowStats* stats = nullptr,
      sim::Trace* trace = nullptr) {
    return core::collect_stream(source, name(), source_run(machine, trace),
                                stats);
  }

 private:
  core::SourceRun source_run(const core::MachineConfig& machine,
                             sim::Trace* trace) {
    return [this, &machine, trace](core::JobSource& source,
                                   core::CompletionSink& sink) {
      return simulate(source, machine, sink, trace);
    };
  }
};

}  // namespace pjsched::sched
