// Non-paper baseline schedulers, used by benches to contrast FIFO/BWF/work
// stealing against policies known to be bad (or unrealistically clairvoyant)
// for maximum flow time:
//
//  * LIFO           — newest job first.  Starves old jobs; max flow blows up
//                     under load, illustrating why FIFO ordering matters.
//  * SJF            — clairvoyant shortest-remaining-total-work first.
//                     Great for mean flow, bad for max flow under skew.
//  * RoundRobin     — rotates the job priority order at every decision
//                     point (a crude processor-sharing approximation).
//  * Equi           — dynamic equipartition: every active job is offered
//                     ceil(m / #active) processors, leftovers redistributed
//                     (work-conserving).  The canonical fair scheduler of
//                     the speedup-curves literature the paper contrasts
//                     against (Section 8 / Edmonds-Pruhs): strong for
//                     average flow, weak for maximum flow.
#pragma once

#include "src/sched/scheduler.h"

namespace pjsched::sched {

// LIFO and EQUI take an `exact_engine` flag selecting the event engine's
// reference path (EventEngineOptions::exact) instead of the default
// incremental fast path; results are bit-identical either way.  SJF and
// RoundRobin are dynamic policies: they always run on the reference loop,
// so they have no such flag.

class LifoScheduler final : public Scheduler {
 public:
  explicit LifoScheduler(bool exact_engine = false)
      : exact_engine_(exact_engine) {}
  std::string name() const override {
    return exact_engine_ ? "lifo-exact" : "lifo";
  }
  core::EngineStats simulate(core::JobSource& source,
                             const core::MachineConfig& machine,
                             core::CompletionSink& sink,
                             sim::Trace* trace) override;

 private:
  bool exact_engine_;
};

class SjfScheduler final : public Scheduler {
 public:
  std::string name() const override { return "sjf"; }
  core::EngineStats simulate(core::JobSource& source,
                             const core::MachineConfig& machine,
                             core::CompletionSink& sink,
                             sim::Trace* trace) override;
};

class RoundRobinScheduler final : public Scheduler {
 public:
  std::string name() const override { return "round-robin"; }
  core::EngineStats simulate(core::JobSource& source,
                             const core::MachineConfig& machine,
                             core::CompletionSink& sink,
                             sim::Trace* trace) override;
};

class EquiScheduler final : public Scheduler {
 public:
  explicit EquiScheduler(bool exact_engine = false)
      : exact_engine_(exact_engine) {}
  std::string name() const override {
    return exact_engine_ ? "equi-exact" : "equi";
  }
  core::EngineStats simulate(core::JobSource& source,
                             const core::MachineConfig& machine,
                             core::CompletionSink& sink,
                             sim::Trace* trace) override;

 private:
  bool exact_engine_;
};

}  // namespace pjsched::sched
