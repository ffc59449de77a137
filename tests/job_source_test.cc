// Tests for streaming instance sources (src/core/job_source.h,
// src/workload/streaming_source.h) and the recycling job arena
// (src/sim/job_arena.h).
#include "src/core/job_source.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/core/types.h"
#include "src/dag/builders.h"
#include "src/sim/job_arena.h"
#include "src/workload/generator.h"
#include "src/workload/streaming_source.h"

namespace pjsched {
namespace {

bool same_dag(const dag::Dag& a, const dag::Dag& b) {
  if (a.node_count() != b.node_count()) return false;
  if (a.total_work() != b.total_work()) return false;
  if (a.critical_path() != b.critical_path()) return false;
  if (a.edge_count() != b.edge_count()) return false;
  if (!std::ranges::equal(a.sources(), b.sources())) return false;
  for (dag::NodeId v = 0; v < a.node_count(); ++v) {
    if (a.work_of(v) != b.work_of(v)) return false;
    if (!std::ranges::equal(a.successors(v), b.successors(v))) return false;
    if (!std::ranges::equal(a.predecessors(v), b.predecessors(v))) return false;
  }
  return true;
}

core::Instance out_of_order_instance() {
  core::Instance inst;
  const double arrivals[] = {30.0, 0.0, 20.0, 10.0};
  for (double at : arrivals) {
    core::JobSpec job;
    job.arrival = at;
    job.weight = 1.0 + at;
    job.graph = dag::single_node(5);
    inst.jobs.push_back(std::move(job));
  }
  return inst;
}

TEST(InstanceSourceTest, YieldsInArrivalOrderWithInstanceIds) {
  const core::Instance inst = out_of_order_instance();
  core::InstanceSource source(inst);
  EXPECT_EQ(source.size(), 4u);

  std::vector<core::JobId> ids;
  double prev = -1.0;
  while (!source.done()) {
    EXPECT_EQ(source.next_arrival(), source.next_arrival());  // peek is stable
    const core::StreamedJob job = source.take();
    EXPECT_GE(job.arrival, prev);
    prev = job.arrival;
    // Borrowed DAGs point into the instance — no copy.
    ASSERT_NE(job.borrowed, nullptr);
    EXPECT_EQ(job.borrowed, &inst.jobs[job.id].graph);
    EXPECT_EQ(job.arrival, inst.jobs[job.id].arrival);
    EXPECT_EQ(job.weight, inst.jobs[job.id].weight);
    ids.push_back(job.id);
  }
  EXPECT_EQ(ids, (std::vector<core::JobId>{1, 3, 2, 0}));
}

TEST(MaterializeTest, RoundTripsAnInstance) {
  const core::Instance inst = out_of_order_instance();
  core::InstanceSource source(inst);
  const core::Instance copy = core::materialize(source);
  ASSERT_EQ(copy.size(), inst.size());
  for (std::size_t i = 0; i < inst.size(); ++i) {
    EXPECT_EQ(copy.jobs[i].arrival, inst.jobs[i].arrival);
    EXPECT_EQ(copy.jobs[i].weight, inst.jobs[i].weight);
    EXPECT_TRUE(same_dag(copy.jobs[i].graph, inst.jobs[i].graph));
  }
}

// The tentpole bit-identity property at the source level: the streamed
// generator must draw exactly the jobs generate_instance materializes —
// same arrivals, weights, and DAG shapes, in the same order.
TEST(GeneratedJobSourceTest, BitIdenticalToGenerateInstance) {
  const auto dist = workload::bing_distribution();
  workload::GeneratorConfig cfg;
  cfg.num_jobs = 500;
  cfg.qps = 800.0;
  cfg.units_per_ms = 100.0;
  cfg.seed = 5;
  cfg.weight_classes = {1.0, 2.0, 8.0};

  const core::Instance inst = workload::generate_instance(dist, cfg);
  workload::GeneratedJobSource source(dist, cfg);
  ASSERT_EQ(source.size(), cfg.num_jobs);
  for (std::size_t i = 0; i < cfg.num_jobs; ++i) {
    ASSERT_FALSE(source.done());
    const core::StreamedJob job = source.take();
    EXPECT_EQ(job.id, i);
    EXPECT_EQ(job.arrival, inst.jobs[i].arrival) << "job " << i;
    EXPECT_EQ(job.weight, inst.jobs[i].weight) << "job " << i;
    EXPECT_EQ(job.borrowed, nullptr);
    EXPECT_TRUE(same_dag(job.graph, inst.jobs[i].graph)) << "job " << i;
  }
  EXPECT_TRUE(source.done());
}

TEST(ArrivalListJobSourceTest, BitIdenticalToGenerateInstanceWithArrivals) {
  const auto dist = workload::finance_distribution();
  workload::GeneratorConfig cfg;
  cfg.units_per_ms = 10.0;
  cfg.seed = 17;
  cfg.weight_classes = {1.0, 4.0};
  const std::vector<double> arrivals_ms = {0.0, 0.5, 0.5, 3.25, 10.0};

  const core::Instance inst =
      workload::generate_instance_with_arrivals(dist, cfg, arrivals_ms);
  workload::ArrivalListJobSource source(dist, cfg, arrivals_ms);
  ASSERT_EQ(source.size(), arrivals_ms.size());
  for (std::size_t i = 0; i < arrivals_ms.size(); ++i) {
    const core::StreamedJob job = source.take();
    EXPECT_EQ(job.id, i);
    EXPECT_EQ(job.arrival, inst.jobs[i].arrival);
    EXPECT_EQ(job.weight, inst.jobs[i].weight);
    EXPECT_TRUE(same_dag(job.graph, inst.jobs[i].graph));
  }
  EXPECT_TRUE(source.done());
}

TEST(GeneratedJobSourceTest, RejectsBadConfig) {
  const auto dist = workload::bing_distribution();
  workload::GeneratorConfig cfg;
  cfg.num_jobs = 0;
  EXPECT_THROW(workload::GeneratedJobSource(dist, cfg), std::invalid_argument);
  cfg.num_jobs = 1;
  cfg.units_per_ms = 0.0;
  EXPECT_THROW(workload::GeneratedJobSource(dist, cfg), std::invalid_argument);
  cfg.units_per_ms = 10.0;
  cfg.weight_classes.clear();
  EXPECT_THROW(workload::GeneratedJobSource(dist, cfg), std::invalid_argument);
  EXPECT_THROW(workload::ArrivalListJobSource(dist, cfg, {1.0}),
               std::invalid_argument);
  cfg.weight_classes = {1.0};
  EXPECT_THROW(workload::ArrivalListJobSource(dist, cfg, {}),
               std::invalid_argument);
}

// --- JobArena -------------------------------------------------------------

core::StreamedJob make_job(core::JobId id, double arrival,
                           double weight = 1.0) {
  core::StreamedJob job;
  job.id = id;
  job.arrival = arrival;
  job.weight = weight;
  job.graph = dag::single_node(3);
  return job;
}

TEST(JobArenaTest, RecyclesSlotsLifo) {
  sim::JobArena arena;
  const auto s0 = arena.acquire(make_job(0, 0.0));
  const auto s1 = arena.acquire(make_job(1, 1.0));
  EXPECT_EQ(arena.size(), 2u);
  EXPECT_EQ(arena.live(), 2u);
  EXPECT_EQ(arena.slot_of(0), s0);
  EXPECT_EQ(arena.slot_of(1), s1);

  arena.retire(s0);
  EXPECT_EQ(arena.live(), 1u);
  EXPECT_THROW(arena.slot_of(0), std::logic_error);
  // The freed slot is reused before any new slot is created.
  const auto s2 = arena.acquire(make_job(2, 2.0));
  EXPECT_EQ(s2, s0);
  EXPECT_EQ(arena.size(), 2u);
  EXPECT_EQ(arena[s2].id, 2u);
  EXPECT_EQ(arena.peak_live(), 2u);
}

TEST(JobArenaTest, BoundedSlotsUnderSteadyChurn) {
  sim::JobArena arena;
  // 10k jobs, never more than 3 live: the arena must not grow past 3 slots.
  std::vector<std::uint32_t> live;
  for (core::JobId id = 0; id < 10000; ++id) {
    live.push_back(arena.acquire(make_job(id, static_cast<double>(id))));
    if (live.size() == 3) {
      arena.retire(live.front());
      live.erase(live.begin());
    }
  }
  EXPECT_EQ(arena.size(), 3u);
  EXPECT_EQ(arena.peak_live(), 3u);
}

TEST(JobArenaTest, ValidatesJobs) {
  sim::JobArena arena;
  // Unsealed DAG.
  core::StreamedJob bad;
  bad.id = 0;
  bad.arrival = 0.0;
  dag::Dag g;
  g.add_node(1);
  bad.graph = std::move(g);  // never sealed
  EXPECT_THROW(arena.acquire(std::move(bad)), std::invalid_argument);

  EXPECT_THROW(arena.acquire(make_job(1, -1.0)), std::invalid_argument);
  EXPECT_THROW(arena.acquire(make_job(2, 0.0, 0.0)), std::invalid_argument);

  arena.acquire(make_job(3, 5.0));
  // Out-of-order arrival after a successful acquisition.
  EXPECT_THROW(arena.acquire(make_job(4, 4.0)), std::invalid_argument);
  // Duplicate live id.
  EXPECT_THROW(arena.acquire(make_job(3, 6.0)), std::invalid_argument);
}

}  // namespace
}  // namespace pjsched
