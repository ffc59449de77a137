#include "src/core/job_source.h"

#include <stdexcept>

#include "src/metrics/streaming_stats.h"

namespace pjsched::core {

void check_streamed_job(const StreamedJob& job, Time last_arrival) {
  const dag::Dag& g = job.dag();
  if (!g.sealed())
    throw std::invalid_argument("JobSource: job DAG must be sealed");
  if (g.node_count() == 0)
    throw std::invalid_argument("JobSource: job DAG is empty");
  if (job.arrival < 0.0)
    throw std::invalid_argument("JobSource: negative arrival time");
  if (!(job.weight > 0.0))
    throw std::invalid_argument("JobSource: weight must be > 0");
  if (job.arrival < last_arrival)
    throw std::invalid_argument(
        "JobSource: jobs must arrive in non-decreasing order");
}

InstanceSource::InstanceSource(const Instance& instance)
    : instance_(&instance), order_(instance.arrival_order()) {}

bool InstanceSource::produce(StreamedJob& out) {
  if (next_ >= order_.size()) return false;
  const JobId j = order_[next_++];
  out.id = j;
  out.arrival = instance_->jobs[j].arrival;
  out.weight = instance_->jobs[j].weight;
  out.borrowed = &instance_->jobs[j].graph;
  out.graph = dag::Dag{};
  return true;
}

Instance materialize(JobSource& source) {
  Instance inst;
  inst.jobs.resize(source.size());
  std::size_t yielded = 0;
  while (!source.done()) {
    StreamedJob job = source.take();
    if (job.id >= inst.jobs.size())
      throw std::logic_error("materialize: streamed id out of range");
    JobSpec& spec = inst.jobs[job.id];
    spec.arrival = job.arrival;
    spec.weight = job.weight;
    spec.graph = job.borrowed != nullptr ? *job.borrowed : std::move(job.graph);
    ++yielded;
  }
  if (yielded != inst.jobs.size())
    throw std::logic_error("materialize: source yielded fewer jobs than size()");
  return inst;
}

namespace {
// The materialized sink: completion[id] = c.
class CompletionVector final : public CompletionSink {
 public:
  explicit CompletionVector(std::vector<Time>& out) : out_(out) {}
  void record(JobId id, Time, double, Time completion) override {
    out_[id] = completion;
  }

 private:
  std::vector<Time>& out_;
};
}  // namespace

ScheduleResult collect_schedule(const Instance& instance, std::string name,
                                const SourceRun& run) {
  instance.validate();
  InstanceSource source(instance);
  ScheduleResult result;
  result.scheduler_name = std::move(name);
  result.completion.assign(instance.size(), kNoTime);
  CompletionVector sink(result.completion);
  result.stats = run(source, sink);
  result.finalize(instance.jobs);
  return result;
}

StreamRunResult collect_stream(JobSource& source, std::string name,
                               const SourceRun& run,
                               metrics::StreamingFlowStats* stats) {
  metrics::StreamingFlowStats local;
  metrics::StreamingFlowStats& sink = stats != nullptr ? *stats : local;
  StreamRunResult out;
  out.scheduler_name = std::move(name);
  out.stats = run(source, sink);
  out.jobs = sink.count();
  out.max_flow = sink.max_flow();
  out.max_weighted_flow = sink.max_weighted_flow();
  out.mean_flow = sink.mean_flow();
  out.makespan = sink.makespan();
  out.argmax_flow = sink.argmax_flow();
  out.flow = sink.summary();
  out.flow_quantiles_exact = sink.quantiles_exact();
  return out;
}

}  // namespace pjsched::core
