// Per-tenant sharded admission with weighted fair shedding — the layer
// between the daemon's streaming ingest and the ThreadPool's bounded
// AdmissionQueue.
//
// Tenants are hashed across independent shards (each with its own lock and
// its slice of the aggregate capacity), so ingest from many connections
// never contends on a global mutex.  Within a shard:
//
//   * records queue FIFO per tenant;
//   * the dispatcher pops weighted-fair (the active tenant with the
//     smallest virtual service time, i.e. serviced work / weight — a
//     flooding tenant cannot starve a well-behaved one even before any
//     shedding starts);
//   * when the shard is full, admission sheds from the most-loaded tenant
//     — largest queued records / weight — provided it is more loaded than
//     the arriving record's tenant would become by queuing (otherwise the
//     arrival itself is the fair victim), dropping that tenant's
//     EARLIEST-queued record (head drop: the oldest record is the one
//     whose flow bound is already lost).
//
// The shard owns a DegradationLadder sample loop via TenantRouter::tick():
// utilization (aggregate depth / capacity) plus the pool watchdog's stall
// flag drive the rung, and the rung changes what push() and tick() do (see
// degradation.h for the ladder itself).
//
// Every record handed to push() reaches exactly one outcome: admitted (and
// later popped by the dispatcher) or shed/rejected with a reason — either
// returned synchronously or, for queued records trimmed later, surfaced
// through tick()'s eviction list.  The conservation law
//   accepted == popped + shed_from_queue + depth
// holds in every stats() snapshot, per shard and in aggregate; the chaos
// campaign asserts it after every trial.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/runtime/annotations.h"
#include "src/runtime/interference.h"
#include "src/runtime/job.h"
#include "src/runtime/mutex.h"
#include "src/service/degradation.h"
#include "src/service/record.h"

namespace pjsched::service {

using Clock = runtime::Clock;

struct RouterConfig {
  std::size_t shards = 8;
  /// Aggregate queued-record bound, split evenly across shards.
  std::size_t capacity = 4096;
  /// Weight for tenants never passed to set_weight().
  double default_weight = 1.0;
  LadderConfig ladder;
};

/// Why a record left the router without being dispatched.
enum class ShedReason : std::uint8_t {
  kFairShare,      ///< full shard: weighted fair eviction
  kShedNew,        ///< shed-new rung: over-share arrival dropped at ingest
  kShedQueued,     ///< shed-queued rung: queued backlog trimmed to share
  kRejectTenant,   ///< reject-tenant rung: offending tenant refused
  kRejectDrain,    ///< drain rung: nothing new accepted
};

inline const char* to_string(ShedReason r) {
  switch (r) {
    case ShedReason::kFairShare: return "fair-share";
    case ShedReason::kShedNew: return "shed-new";
    case ShedReason::kShedQueued: return "shed-queued";
    case ShedReason::kRejectTenant: return "reject-tenant";
    case ShedReason::kRejectDrain: return "reject-drain";
  }
  return "?";
}

/// A record inside the router: the parsed submission plus its ingest
/// timestamp (flow time is measured from ingest, not pool submission — the
/// router queue is part of the job's flow) and a global arrival sequence
/// number (the earliest-queued tie-break).
struct QueuedRecord {
  JobRecord record;
  Clock::time_point ingest{};
  std::uint64_t seq = 0;
};

/// A record the router gave up on, with the reason.
struct ShedRecord {
  QueuedRecord item;
  ShedReason reason{};
};

/// Outcome of TenantRouter::push for the *pushed* record (a different
/// record evicted on its behalf comes back via the eviction list).
enum class PushOutcome : std::uint8_t { kAdmitted, kShed };

class TenantRouter {
 public:
  explicit TenantRouter(const RouterConfig& config);
  TenantRouter(const TenantRouter&) = delete;
  TenantRouter& operator=(const TenantRouter&) = delete;

  /// Sets a tenant's fair-share weight (default_weight until called).
  /// Cheap and rare: takes the tenant's shard lock.
  void set_weight(const std::string& tenant, double weight);

  /// Ingests one record.  kAdmitted: the record is queued (a *different*
  /// record may have been evicted to make room — appended to *evictions
  /// with its reason).  kShed: the pushed record itself was dropped;
  /// *reason says why.  `evictions` and `reason` must be non-null.
  PushOutcome push(JobRecord record, std::vector<ShedRecord>* evictions,
                   ShedReason* reason);

  /// Per-record outcome of admit_batch (the batch analog of push()'s
  /// return + *reason).
  struct BatchOutcome {
    PushOutcome outcome = PushOutcome::kAdmitted;
    ShedReason reason{};  ///< valid when outcome == kShed
  };

  /// Caller-owned scratch reused across admit_batch calls so the
  /// steady-state ingest path allocates nothing after warmup.
  struct BatchScratch {
    std::vector<std::uint32_t> shard_index;  ///< per record
    std::vector<std::uint32_t> order;        ///< record indices, shard-grouped
    std::vector<std::uint32_t> bucket;       ///< prefix offsets (shards + 1)
    std::vector<std::uint32_t> cursor;       ///< counting-sort write heads
    std::string offender;                    ///< reject-tenant snapshot
  };

  /// Batched ingest (the sharded-io fast path): admits every record of
  /// `records`, grouping by shard so each shard lock is taken ONCE per
  /// batch instead of once per record.  Records are grouped stably and
  /// processed per shard in batch order with sequence tickets assigned in
  /// batch order, so the outcome of every record — including which queued
  /// record a full shard evicts, via the shared admit_locked core — is
  /// bit-identical to calling push() on each record in order (records of
  /// different shards never interact; pinned by test).  One ingest
  /// timestamp covers the whole batch.
  ///
  /// A record is moved from on admission; one shed at the door is left
  /// intact so the caller can account it by tenant.  *outcomes is resized
  /// to the batch; evicted records are appended to *evictions as in push().
  void admit_batch(std::span<JobRecord> records,
                   std::vector<BatchOutcome>* outcomes,
                   std::vector<ShedRecord>* evictions, BatchScratch* scratch);

  /// Dispatcher side: pops the weighted-fair next record.  Shards are
  /// scanned round-robin from a rotating cursor so no shard is structurally
  /// favored.  Returns false when every shard is empty.
  bool try_pop(QueuedRecord* out);

  /// Maintenance tick: feeds (utilization, stalled) to the ladder, applies
  /// rung side effects — trimming over-share backlogs at shed-queued and
  /// above, electing/clearing the reject-tenant offender — and appends any
  /// trimmed records to *evictions.  Returns the rung after the tick.
  Rung tick(bool stalled, std::vector<ShedRecord>* evictions);

  /// Terminal: every future push is rejected (kRejectDrain); queued
  /// records stay poppable so the dispatcher can drain.
  void begin_drain();

  Rung rung() const;
  /// The tenant currently refused at reject-tenant, or "" outside it.
  std::string offender() const;

  std::size_t depth() const;

  /// Aggregate accounting.  Each shard contributes one coherent snapshot
  /// (its counters and depth come from a single lock hold, so its books
  /// balance exactly); records never migrate between shards, so the sums
  /// below balance too: accepted == popped + shed_from_queue + depth,
  /// where shed_from_queue = shed_fair_share + shed_queued.
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t popped = 0;
    std::uint64_t shed_fair_share = 0;     ///< queued records evicted by a
                                           ///< full-shard fair decision
    std::uint64_t shed_arrival_full = 0;   ///< arrivals dropped at a full
                                           ///< shard (nobody else over share)
    std::uint64_t shed_new = 0;            ///< arrivals dropped at shed-new+
    std::uint64_t shed_queued = 0;         ///< queued records trimmed by tick
    std::uint64_t rejected_tenant = 0;     ///< refused: offending tenant
    std::uint64_t rejected_drain = 0;      ///< refused: draining
    std::size_t depth = 0;
    std::size_t peak_depth = 0;            ///< max over per-shard peaks

    /// Records shed/rejected by any path.  Conservation: every record ever
    /// pushed == popped + total_shed() + depth, because accepted ==
    /// popped + shed_fair_share + shed_queued + depth (only accepted
    /// records sit in queues) and the remaining counters were never queued.
    std::uint64_t total_shed() const {
      return shed_fair_share + shed_arrival_full + shed_new + shed_queued +
             rejected_tenant + rejected_drain;
    }
  };
  Stats stats() const;

 private:
  struct Tenant {
    double weight;
    std::deque<QueuedRecord> queue;
    /// Weighted-fair virtual service time: serviced work / weight.
    double virtual_time = 0.0;
  };

  struct alignas(runtime::kDestructiveInterference) RouterShard {
    mutable runtime::Mutex mu;
    std::unordered_map<std::string, Tenant> tenants PJSCHED_GUARDED_BY(mu);
    std::size_t depth PJSCHED_GUARDED_BY(mu) = 0;
    std::size_t peak_depth PJSCHED_GUARDED_BY(mu) = 0;
    /// Virtual clock: the service time of the last pop; a tenant becoming
    /// active is caught up to it so idling never banks credit.
    double vclock PJSCHED_GUARDED_BY(mu) = 0.0;
    // Per-shard slices of the Stats counters (depth/peak above).
    std::uint64_t accepted PJSCHED_GUARDED_BY(mu) = 0;
    std::uint64_t popped PJSCHED_GUARDED_BY(mu) = 0;
    std::uint64_t shed_fair_share PJSCHED_GUARDED_BY(mu) = 0;
    std::uint64_t shed_arrival_full PJSCHED_GUARDED_BY(mu) = 0;
    std::uint64_t shed_new PJSCHED_GUARDED_BY(mu) = 0;
    std::uint64_t shed_queued PJSCHED_GUARDED_BY(mu) = 0;
    std::uint64_t rejected_tenant PJSCHED_GUARDED_BY(mu) = 0;
    std::uint64_t rejected_drain PJSCHED_GUARDED_BY(mu) = 0;
  };

  std::size_t shard_of(const std::string& tenant) const;
  Tenant& tenant_slot(RouterShard& shard, const std::string& name)
      PJSCHED_REQUIRES(shard.mu);
  /// The admission core shared bit-for-bit by push() and admit_batch():
  /// rung gates, weighted-fair full-shard eviction, activation catch-up,
  /// enqueue + accounting.  Moves from `queued` only on kAdmitted; on
  /// kShed the record is left intact for the caller.  `offender` is the
  /// reject-tenant snapshot taken under ladder_mu_ BEFORE this shard lock
  /// (lock order: ladder_mu_ -> shard.mu), or nullptr outside that rung.
  PushOutcome admit_locked(RouterShard& shard, QueuedRecord& queued, Rung rung,
                           const std::string* offender,
                           std::vector<ShedRecord>* evictions,
                           ShedReason* reason) PJSCHED_REQUIRES(shard.mu);
  /// Weighted fair share (in records) of `tenant` within its shard.
  double fair_share_locked(const RouterShard& shard,
                           const Tenant& tenant) const
      PJSCHED_REQUIRES(shard.mu);
  /// The most-loaded tenant of a shard (largest queued/weight; ties to
  /// the earliest-queued head), among those above their fair share when
  /// `over_share_only`; nullptr when none qualifies.  `out_name` receives
  /// its key.  The full-shard eviction rule compares against the
  /// unrestricted one.
  Tenant* heaviest_locked(RouterShard& shard, bool over_share_only,
                          const std::string** out_name)
      PJSCHED_REQUIRES(shard.mu);
  /// Trims every over-share tenant of `shard` back to its fair share.
  void trim_shard_locked(RouterShard& shard,
                         std::vector<ShedRecord>* evictions)
      PJSCHED_REQUIRES(shard.mu);

  const RouterConfig config_;
  const std::size_t shard_capacity_;
  std::vector<std::unique_ptr<RouterShard>> shards_;

  /// Ladder + offender election, sampled by tick() only; push() reads the
  /// rung through a relaxed atomic mirror so ingest never takes this lock.
  mutable runtime::Mutex ladder_mu_;
  DegradationLadder ladder_ PJSCHED_GUARDED_BY(ladder_mu_);
  std::string offender_ PJSCHED_GUARDED_BY(ladder_mu_);
  /// Mirror of ladder_.rung() for lock-free reads on the ingest path.
  std::atomic<std::uint8_t> rung_mirror_{0};

  /// Global arrival sequence (earliest-queued tie-break across shards).
  std::atomic<std::uint64_t> next_seq_{0};
  /// Round-robin pop cursor over shards.
  std::atomic<std::uint64_t> pop_cursor_{0};
};

}  // namespace pjsched::service
