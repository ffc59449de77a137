#include "src/sched/opt_bound.h"

#include <stdexcept>

#include "src/sim/sim_math.h"

namespace pjsched::sched {

core::EngineStats OptLowerBound::simulate(core::JobSource& source,
                                          const core::MachineConfig& machine,
                                          core::CompletionSink& sink,
                                          sim::Trace* /*trace*/) {
  if (machine.processors == 0)
    throw std::invalid_argument("OptLowerBound: zero processors");
  const double m = static_cast<double>(machine.processors);

  // FIFO on a single machine where job i has processing time W_i / m — the
  // same shared formulas the streamed bounds use (sim/sim_math.h), so
  // opt_sim_lower_bound reproduces this run's max flow bitwise.
  core::Time frontier = 0.0;
  core::Time last_arrival = 0.0;
  while (!source.done()) {
    const core::StreamedJob job = source.take();
    core::check_streamed_job(job, last_arrival);
    last_arrival = job.arrival;
    const double p = sim::relaxed_job_length(
        static_cast<double>(job.dag().total_work()), m, 1.0);
    frontier = sim::fifo_frontier_advance(frontier, job.arrival, p);
    sink.record(job.id, job.arrival, job.weight, frontier);
  }
  return {};
}

}  // namespace pjsched::sched
