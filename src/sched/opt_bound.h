// The paper's simulated-OPT lower bound (Section 6).
//
// Computing the true optimal max-flow schedule for online DAG jobs is
// intractable, so the paper compares against a *lower bound*: assume every
// job is fully parallelizable with zero overhead, i.e. behaves as a
// sequential job of length W_i/m, and schedule these on a single machine by
// FIFO — which is optimal for max flow time on one machine.  Every feasible
// schedule of the real instance has max flow >= this bound, so a scheduler
// that is close to it is close to OPT.
//
// OptLowerBound::simulate computes the bound in one pass over the source,
// with O(1) state:
//     c_i = max(r_i, c_prev) + W_i / m        (jobs in arrival order)
// It deliberately ignores the machine's speed: OPT is always the 1-speed
// adversary in the paper's resource-augmentation analyses.
#pragma once

#include "src/sched/scheduler.h"

namespace pjsched::sched {

class OptLowerBound final : public Scheduler {
 public:
  std::string name() const override { return "opt-lower-bound"; }

  /// Analytic; `trace` is ignored (there is no machine-model execution to
  /// audit — the bound is not a feasible schedule of the DAG instance) and
  /// the returned EngineStats are all zero.
  core::EngineStats simulate(core::JobSource& source,
                             const core::MachineConfig& machine,
                             core::CompletionSink& sink,
                             sim::Trace* trace) override;
};

}  // namespace pjsched::sched
