#include "src/dag/dag.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace pjsched::dag {

NodeId Dag::add_node(Work processing_time) {
  if (sealed_) throw std::logic_error("Dag::add_node: DAG already sealed");
  if (processing_time == 0)
    throw std::invalid_argument("Dag::add_node: zero-work nodes are not allowed");
  if (work_.size() >= kInvalidNode)
    throw std::length_error("Dag::add_node: too many nodes");
  work_.push_back(processing_time);
  return static_cast<NodeId>(work_.size() - 1);
}

void Dag::add_edge(NodeId from, NodeId to) {
  if (sealed_) throw std::logic_error("Dag::add_edge: DAG already sealed");
  if (from >= work_.size() || to >= work_.size())
    throw std::invalid_argument("Dag::add_edge: endpoint out of range");
  if (from == to) throw std::invalid_argument("Dag::add_edge: self loop");
  pending_edges_.emplace_back(from, to);
}

void Dag::seal() {
  if (sealed_) throw std::logic_error("Dag::seal: already sealed");
  if (work_.empty()) throw std::invalid_argument("Dag::seal: empty DAG");

  const std::size_t n = work_.size();
  std::sort(pending_edges_.begin(), pending_edges_.end());
  if (std::adjacent_find(pending_edges_.begin(), pending_edges_.end()) !=
      pending_edges_.end())
    throw std::invalid_argument("Dag::seal: duplicate edge");
  edge_count_ = pending_edges_.size();

  succ_off_.assign(n + 1, 0);
  pred_off_.assign(n + 1, 0);
  for (const auto& [u, v] : pending_edges_) {
    ++succ_off_[u + 1];
    ++pred_off_[v + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    succ_off_[i + 1] += succ_off_[i];
    pred_off_[i + 1] += pred_off_[i];
  }
  succ_flat_.resize(edge_count_);
  pred_flat_.resize(edge_count_);
  {
    std::vector<std::uint32_t> sfill(succ_off_.begin(), succ_off_.end() - 1);
    std::vector<std::uint32_t> pfill(pred_off_.begin(), pred_off_.end() - 1);
    for (const auto& [u, v] : pending_edges_) {
      succ_flat_[sfill[u]++] = v;
      pred_flat_[pfill[v]++] = u;
    }
  }
  pending_edges_.clear();
  pending_edges_.shrink_to_fit();

  // Kahn topological pass: detects cycles, collects sources, and computes the
  // critical path (longest path by node weights) in one sweep.
  std::vector<std::uint32_t> indeg(n);
  for (std::size_t v = 0; v < n; ++v)
    indeg[v] = pred_off_[v + 1] - pred_off_[v];
  std::vector<NodeId> queue;
  std::vector<Work> dist(n, 0);  // longest path ending at v, inclusive of v
  total_work_ = 0;
  for (std::size_t v = 0; v < n; ++v) {
    total_work_ += work_[v];
    if (indeg[v] == 0) {
      queue.push_back(static_cast<NodeId>(v));
      sources_.push_back(static_cast<NodeId>(v));
      dist[v] = work_[v];
    }
  }
  std::size_t processed = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    ++processed;
    critical_path_ = std::max(critical_path_, dist[u]);
    for (std::uint32_t e = succ_off_[u]; e < succ_off_[u + 1]; ++e) {
      const NodeId v = succ_flat_[e];
      dist[v] = std::max(dist[v], dist[u] + work_[v]);
      if (--indeg[v] == 0) queue.push_back(v);
    }
  }
  if (processed != n) throw std::invalid_argument("Dag::seal: graph has a cycle");
  sealed_ = true;
}

namespace detail {

Dag seal_parallel_for(std::vector<Work> work) {
  const std::size_t n = work.size();
  const auto g = static_cast<NodeId>(n - 2);  // grains are nodes 1..g
  Dag d;
  Work widest_grain = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (work[v] == 0)
      throw std::invalid_argument("parallel_for_dag: zero-work nodes are not allowed");
    d.total_work_ += work[v];
    if (v >= 1 && v <= g) widest_grain = std::max(widest_grain, work[v]);
  }

  // The CSR seal() builds from the sorted edge list (0,1)..(0,g),
  // (1,g+1)..(g,g+1): the root's successors are the grains, each grain's
  // successor is the join, and the join's predecessors are the grains in
  // order.
  d.edge_count_ = 2 * std::size_t{g};
  d.succ_off_.resize(n + 1);
  d.pred_off_.resize(n + 1);
  d.succ_flat_.resize(d.edge_count_);
  d.pred_flat_.resize(d.edge_count_);
  d.succ_off_[1] = g;  // root: g successors, no predecessors
  for (NodeId v = 1; v <= g; ++v) {
    d.succ_flat_[v - 1] = v;          // root -> grain v
    d.succ_flat_[g + v - 1] = g + 1;  // grain v -> join
    d.pred_flat_[v - 1] = 0;          // grain v <- root
    d.pred_flat_[g + v - 1] = v;      // join <- grain v
    d.succ_off_[v + 1] = g + v;
    d.pred_off_[v + 1] = v;
  }
  d.succ_off_[g + 2] = 2 * g;  // join: g predecessors, no successors
  d.pred_off_[g + 2] = 2 * g;

  const Work root = work[0];
  const Work join = work[g + 1];
  if (g == 0) {
    d.sources_ = {0, 1};
    d.critical_path_ = std::max(root, join);
  } else {
    d.sources_ = {0};
    d.critical_path_ = root + widest_grain + join;
  }
  d.work_ = std::move(work);
  d.sealed_ = true;
  return d;
}

}  // namespace detail

std::span<const NodeId> Dag::successors(NodeId v) const {
  return {succ_flat_.data() + succ_off_[v], succ_off_[v + 1] - succ_off_[v]};
}

std::span<const NodeId> Dag::predecessors(NodeId v) const {
  return {pred_flat_.data() + pred_off_[v], pred_off_[v + 1] - pred_off_[v]};
}

ReadyTracker::ReadyTracker(const Dag& dag) { reset(dag); }

void ReadyTracker::reset(const Dag& dag) {
  if (!dag.sealed())
    throw std::invalid_argument("ReadyTracker: DAG must be sealed");
  dag_ = &dag;
  completed_ = 0;
  const std::size_t n = dag.node_count();
  pending_preds_.resize(n);
  state_.assign(n, 0);
  ready_.clear();
  for (std::size_t v = 0; v < n; ++v)
    pending_preds_[v] =
        static_cast<std::uint32_t>(dag.predecessors(static_cast<NodeId>(v)).size());
  for (NodeId s : dag.sources()) {
    ready_.push_back(s);
    state_[s] = 1;
  }
}

void ReadyTracker::claim(NodeId v) {
  if (v >= state_.size() || state_[v] != 1)
    throw std::logic_error("ReadyTracker::claim: node is not ready");
  auto it = std::find(ready_.begin(), ready_.end(), v);
  ready_.erase(it);
  state_[v] = 2;
}

std::size_t ReadyTracker::complete(NodeId v, std::vector<NodeId>* out_enabled) {
  if (v >= state_.size() || state_[v] != 2)
    throw std::logic_error("ReadyTracker::complete: node was not claimed");
  state_[v] = 3;
  ++completed_;
  std::size_t enabled = 0;
  for (NodeId w : dag_->successors(v)) {
    if (--pending_preds_[w] == 0) {
      state_[w] = 1;
      ready_.push_back(w);
      if (out_enabled != nullptr) out_enabled->push_back(w);
      ++enabled;
    }
  }
  return enabled;
}

}  // namespace pjsched::dag
