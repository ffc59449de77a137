// Tests for the DAG builders (src/dag/builders.h), including parameterized
// property sweeps over random layered DAGs.
#include "src/dag/builders.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/dag/analysis.h"
#include "src/dag/serialize.h"

namespace pjsched::dag {
namespace {

TEST(SerialChainTest, WorkAndSpan) {
  const Dag d = serial_chain(5, 3);
  EXPECT_EQ(d.node_count(), 5u);
  EXPECT_EQ(d.edge_count(), 4u);
  EXPECT_EQ(d.total_work(), 15u);
  EXPECT_EQ(d.critical_path(), 15u);
  EXPECT_DOUBLE_EQ(d.parallelism(), 1.0);
}

TEST(SerialChainTest, LengthOne) {
  const Dag d = serial_chain(1, 9);
  EXPECT_EQ(d.node_count(), 1u);
  EXPECT_EQ(d.critical_path(), 9u);
}

TEST(SerialChainTest, ZeroLengthRejected) {
  EXPECT_THROW(serial_chain(0, 1), std::invalid_argument);
}

TEST(SingleNodeTest, Basic) {
  const Dag d = single_node(42);
  EXPECT_EQ(d.node_count(), 1u);
  EXPECT_EQ(d.total_work(), 42u);
}

TEST(ParallelForTest, Shape) {
  const Dag d = parallel_for_dag(8, 10, 2, 3);
  EXPECT_EQ(d.node_count(), 10u);   // root + 8 bodies + join
  EXPECT_EQ(d.edge_count(), 16u);
  EXPECT_EQ(d.total_work(), 2u + 8 * 10 + 3u);
  EXPECT_EQ(d.critical_path(), 2u + 10u + 3u);
  // Exactly one source (the root).
  EXPECT_EQ(d.sources().size(), 1u);
  EXPECT_EQ(d.out_degree(d.sources()[0]), 8u);
}

TEST(ParallelForTest, PerGrainWorkCallback) {
  const Dag d = parallel_for_dag_fn(
      4, [](std::size_t i) { return static_cast<Work>(i + 1); }, 1, 1);
  EXPECT_EQ(d.total_work(), 1u + (1 + 2 + 3 + 4) + 1u);
  EXPECT_EQ(d.critical_path(), 1u + 4u + 1u);  // longest grain is 4
}

TEST(ParallelForTest, ZeroGrainsRejected) {
  EXPECT_THROW(parallel_for_dag(0, 1), std::invalid_argument);
}

// The same parallel-for through the general add_node / add_edge / seal()
// path: the oracle the closed-form builder must reproduce array for array.
Dag general_parallel_for(const std::vector<Work>& grain_work, Work root_work,
                         Work join_work) {
  Dag d;
  const NodeId root = d.add_node(root_work);
  for (Work w : grain_work) d.add_node(w);
  const NodeId join = d.add_node(join_work);
  for (NodeId b = 1; b <= grain_work.size(); ++b) {
    d.add_edge(root, b);
    d.add_edge(b, join);
  }
  d.seal();
  return d;
}

void expect_same_dag(const Dag& got, const Dag& want) {
  ASSERT_TRUE(got.sealed());
  ASSERT_EQ(got.node_count(), want.node_count());
  EXPECT_EQ(got.edge_count(), want.edge_count());
  EXPECT_EQ(got.total_work(), want.total_work());
  EXPECT_EQ(got.critical_path(), want.critical_path());
  EXPECT_TRUE(std::ranges::equal(got.sources(), want.sources()));
  for (NodeId v = 0; v < got.node_count(); ++v) {
    SCOPED_TRACE(v);
    EXPECT_EQ(got.work_of(v), want.work_of(v));
    EXPECT_TRUE(std::ranges::equal(got.successors(v), want.successors(v)));
    EXPECT_TRUE(std::ranges::equal(got.predecessors(v), want.predecessors(v)));
  }
}

// Skewed grains whose widest is neither first nor last.
Work skewed_grain_work(std::size_t i) { return 1 + (i * 7919) % 13; }

TEST(ParallelForTest, DirectBuildMatchesGeneralPath) {
  for (std::size_t g : {1u, 2u, 31u, 32u, 33u, 64u}) {
    SCOPED_TRACE(g);
    std::vector<Work> grain_work;
    std::size_t calls = 0;
    const Dag direct = parallel_for_dag_fn(
        g,
        [&](std::size_t i) {
          EXPECT_EQ(i, calls++);  // once per grain, in index order
          grain_work.push_back(skewed_grain_work(i));
          return grain_work.back();
        },
        /*root_work=*/3, /*join_work=*/5);
    EXPECT_EQ(calls, g);
    expect_same_dag(direct, general_parallel_for(grain_work, 3, 5));
    EXPECT_EQ(direct.edge_count(), 2 * g);
    EXPECT_EQ(direct.critical_path(),
              3u + *std::max_element(grain_work.begin(), grain_work.end()) +
                  5u);
  }
}

TEST(ParallelForTest, DirectBuildSerializeRoundTrip) {
  const Dag d = parallel_for_dag_fn(33, skewed_grain_work, 2, 4);
  const Dag back = from_text(to_text(d));
  expect_same_dag(back, d);
  EXPECT_EQ(to_text(back), to_text(d));
}

TEST(ParallelForTest, DirectBuildRejectsZeroWork) {
  const auto zero_at = [](std::size_t bad) {
    return [bad](std::size_t i) { return static_cast<Work>(i == bad ? 0 : 1); };
  };
  EXPECT_THROW(parallel_for_dag_fn(4, zero_at(2)), std::invalid_argument);
  EXPECT_THROW(parallel_for_dag_fn(4, zero_at(9), 0, 1), std::invalid_argument);
  EXPECT_THROW(parallel_for_dag_fn(4, zero_at(9), 1, 0), std::invalid_argument);
  EXPECT_THROW(parallel_for_dag_fn(std::size_t{kInvalidNode}, zero_at(9)),
               std::length_error);
}

TEST(ParallelForTest, DirectBuildZeroGrainsIsTwoSources) {
  const Dag d = parallel_for_dag_fn(0, skewed_grain_work, 2, 3);
  EXPECT_EQ(d.node_count(), 2u);
  EXPECT_EQ(d.edge_count(), 0u);
  EXPECT_EQ(d.sources().size(), 2u);
  EXPECT_EQ(d.critical_path(), 3u);
  expect_same_dag(d, general_parallel_for({}, 2, 3));
}

TEST(DivideAndConquerTest, DepthZeroIsLeaf) {
  const Dag d = divide_and_conquer(0, 5);
  EXPECT_EQ(d.node_count(), 1u);
  EXPECT_EQ(d.total_work(), 5u);
}

TEST(DivideAndConquerTest, CountsAndSpan) {
  // depth 3: 2^3 = 8 leaves; 2^3 - 1 = 7 fork nodes and 7 join nodes.
  const Dag d = divide_and_conquer(3, 4);
  EXPECT_EQ(d.node_count(), 8u + 7u + 7u);
  EXPECT_EQ(d.total_work(), 8u * 4 + 14u);
  // Span: 3 forks + leaf + 3 joins = 3 + 4 + 3.
  EXPECT_EQ(d.critical_path(), 10u);
  EXPECT_EQ(d.sources().size(), 1u);
}

TEST(StarTest, SectionFiveJobShape) {
  // One unit root preceding c independent unit tasks: W = c+1, P = 2.
  const Dag d = star(4);
  EXPECT_EQ(d.node_count(), 5u);
  EXPECT_EQ(d.total_work(), 5u);
  EXPECT_EQ(d.critical_path(), 2u);
  EXPECT_EQ(d.sources().size(), 1u);
  EXPECT_EQ(d.out_degree(0), 4u);
  for (NodeId v = 1; v <= 4; ++v) {
    EXPECT_EQ(d.in_degree(v), 1u);
    EXPECT_EQ(d.out_degree(v), 0u);
  }
}

TEST(StarTest, ZeroChildrenRejected) {
  EXPECT_THROW(star(0), std::invalid_argument);
}

TEST(RandomLayeredTest, InvalidOptionsRejected) {
  sim::Rng rng(1);
  RandomLayeredOptions opt;
  opt.layers = 0;
  EXPECT_THROW(random_layered(rng, opt), std::invalid_argument);
  opt = {};
  opt.min_width = 5;
  opt.max_width = 2;
  EXPECT_THROW(random_layered(rng, opt), std::invalid_argument);
  opt = {};
  opt.edge_probability = 1.5;
  EXPECT_THROW(random_layered(rng, opt), std::invalid_argument);
  opt = {};
  opt.min_work = 9;
  opt.max_work = 3;
  EXPECT_THROW(random_layered(rng, opt), std::invalid_argument);
}

TEST(RandomLayeredTest, DeterministicGivenSeed) {
  RandomLayeredOptions opt;
  opt.layers = 5;
  opt.max_width = 6;
  sim::Rng r1(99), r2(99);
  const Dag a = random_layered(r1, opt);
  const Dag b = random_layered(r2, opt);
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  EXPECT_EQ(a.total_work(), b.total_work());
  EXPECT_EQ(a.critical_path(), b.critical_path());
}

// Property sweep: structural invariants across many random DAGs.
class RandomLayeredProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomLayeredProperty, StructuralInvariants) {
  sim::Rng rng(GetParam());
  RandomLayeredOptions opt;
  opt.layers = 1 + static_cast<std::size_t>(rng.uniform_int(6));
  opt.min_width = 1;
  opt.max_width = 5;
  opt.min_work = 1;
  opt.max_work = 10;
  opt.edge_probability = rng.uniform_double();
  const Dag d = random_layered(rng, opt);

  EXPECT_TRUE(d.sealed());
  EXPECT_GE(d.node_count(), opt.layers);           // >= 1 node per layer
  EXPECT_LE(d.node_count(), opt.layers * opt.max_width);

  // Cached values agree with independent recomputation.
  EXPECT_EQ(d.total_work(), compute_total_work(d));
  EXPECT_EQ(d.critical_path(), compute_critical_path(d));

  // Depth really is `layers`: the critical path has at least `layers`
  // nodes' worth of minimum work.
  EXPECT_GE(d.critical_path(), opt.layers * opt.min_work);

  // Work bounds per node respected.
  for (NodeId v = 0; v < d.node_count(); ++v) {
    EXPECT_GE(d.work_of(v), opt.min_work);
    EXPECT_LE(d.work_of(v), opt.max_work);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLayeredProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace pjsched::dag
