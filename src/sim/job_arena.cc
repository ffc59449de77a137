#include "src/sim/job_arena.h"

#include <stdexcept>
#include <utility>

namespace pjsched::sim {

std::uint32_t JobArena::acquire(core::StreamedJob&& job) {
  core::check_streamed_job(job, last_arrival_);
  last_arrival_ = job.arrival;

  std::uint32_t s;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
  } else {
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[s];
  slot.id = job.id;
  slot.arrival = job.arrival;
  slot.weight = job.weight;
  // Pack the DAG into the slot's grow-only arrays; the source Dag (owned or
  // borrowed) is not referenced afterwards, so a streamed job's heap-backed
  // graph is freed as soon as `job` leaves scope.
  slot.graph.assign(job.dag());

  if (!slot_of_.emplace(slot.id, s).second) {
    slot.graph.release();
    free_.push_back(s);
    throw std::invalid_argument("JobArena: duplicate live job id");
  }
  ++live_;
  if (live_ > peak_live_) peak_live_ = live_;
  return s;
}

void JobArena::retire(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (!s.graph.bound())
    throw std::logic_error("JobArena::retire: slot is not live");
  slot_of_.erase(s.id);
  // The packed arrays deliberately keep their capacity for the slot's next
  // occupant; resident state stays O(peak live jobs x largest hosted DAG).
  s.graph.release();
  free_.push_back(slot);
  --live_;
}

std::uint32_t JobArena::slot_of(core::JobId id) const {
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end())
    throw std::logic_error("JobArena::slot_of: job is not live");
  return it->second;
}

}  // namespace pjsched::sim
