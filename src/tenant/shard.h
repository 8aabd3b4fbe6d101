// TenantShard: one shard of the multi-tenant serving plane — the
// per-shard half of ShardedService (tenant/sharded_service.h).
//
// A shard is VisibilityService's machinery generalized from one log to
// many tenants: it owns a worker ThreadPool, an EDF queue, a CostModel,
// per-solver CircuitBreakers, a DegradationLadder and a Watchdog (the
// whole PR-6 overload stack, now *per shard* so one hot tenant
// neighborhood cannot trip another shard's breakers), plus the pieces
// that make it multi-tenant:
//
//  * requests pin their tenant's TenantSnapshot at Submit (RCU acquire
//    through the shared TenantRegistry) and solve against that snapshot
//    even if PublishEpoch swaps the slot while they wait in the queue —
//    consistent-at-admission semantics, and the reason a response
//    carries the epoch it was computed under;
//  * a ResultCache keyed (tenant, tuple, m, epoch) answers repeated
//    traffic without touching a solver, single-flighting concurrent
//    misses on the same key; an exact-tier request is answered only by
//    a proved-optimal entry (tenant/result_cache.h).
//
// Per-tenant ledger: alongside the shard-level counters every outcome
// also bumps `tenant.<id>.submitted/accepted/completed/errors/expired/
// shutdown` so the chaos harness can audit, for every tenant,
//   accepted == completed + errors + expired + shutdown.
//
// Thread-safety mirrors VisibilityService: Submit/Drain/Metrics from any
// thread; the destructor drains.

#ifndef SOC_TENANT_SHARD_H_
#define SOC_TENANT_SHARD_H_

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/mfi_solver.h"
#include "core/solver.h"
#include "obs/event_log.h"
#include "obs/slo.h"
#include "obs/trace_recorder.h"
#include "serve/circuit_breaker.h"
#include "serve/cost_model.h"
#include "serve/degradation_ladder.h"
#include "serve/edf_queue.h"
#include "serve/metrics.h"
#include "serve/visibility_service.h"
#include "serve/watchdog.h"
#include "tenant/registry.h"
#include "tenant/result_cache.h"
#include "tenant/snapshot.h"

namespace soc::tenant {

struct TenantShardOptions {
  int num_workers = 2;
  std::size_t max_queue = 256;  // 0 = unbounded.
  // Entries per shard result cache.
  std::size_t result_cache_capacity = 4096;
  double default_deadline_ms = 0;
  bool reject_expired = false;
  bool predictive_shedding = true;
  // Static cost-model prior features. A shard hosts many logs, so these
  // are aggregate expectations, not measurements of one instance; the
  // per-solver EWMA dominates once warm (serve/cost_model.h).
  serve::CostFeatures cost_features{/*num_queries=*/200,
                                    /*num_attributes=*/16,
                                    /*collapse_ratio=*/1.0};
  serve::CostModelOptions cost_model;
  serve::CircuitBreakerOptions breaker;
  serve::DegradationLadderOptions ladder;
  serve::WatchdogOptions watchdog;
  // Non-owning; must outlive the shard. nullptr disables tracing.
  obs::TraceRecorder* trace_recorder = nullptr;
  // Non-owning; must outlive the shard. Every outcome is recorded as a
  // wide event stamped with this shard's index and the pinned epoch.
  // Typically shared across all shards of one ShardedService.
  obs::EventLog* event_log = nullptr;
  // Non-owning; must outlive the shard. Receives every non-invalid
  // outcome keyed by tenant; shared across shards so burn rates are
  // service-wide per tenant.
  obs::SloEngine* slo_engine = nullptr;
  // Chaos/test injection, identical contract to VisibilityService's.
  serve::WorkerHook worker_hook;
};

class TenantShard {
 public:
  // `registry` is shared across shards and must outlive this one.
  TenantShard(int shard_index, const TenantRegistry* registry,
              TenantShardOptions options);
  ~TenantShard();

  TenantShard(const TenantShard&) = delete;
  TenantShard& operator=(const TenantShard&) = delete;

  // Non-blocking. request.tenant_id must name a registered tenant whose
  // ring shard is this one (ShardedService routes; direct callers are
  // trusted). Admission mirrors VisibilityService: validation ->
  // queue bound -> predictive shed -> EDF queue.
  std::future<serve::SolveResponse> Submit(serve::SolveRequest request)
      SOC_EXCLUDES(inflight_mutex_, queue_mutex_);

  // Blocks until every accepted request has resolved.
  void Drain() SOC_EXCLUDES(inflight_mutex_);

  int shard_index() const { return shard_index_; }
  int num_workers() const { return pool_.num_threads(); }
  ResultCache& result_cache() { return result_cache_; }
  const ResultCache& result_cache() const { return result_cache_; }

  // Shard-local counters/histograms plus the usual gauge set (queue
  // depth, busy workers, inflight, ladder level, breaker states,
  // result-cache residency). ShardedService merges these across shards.
  serve::MetricsSnapshot Metrics() const
      SOC_EXCLUDES(inflight_mutex_, queue_mutex_);

 private:
  struct QueuedRequest;

  void RunOne() SOC_EXCLUDES(queue_mutex_);
  serve::SolveResponse Execute(QueuedRequest& queued);
  void Finish(std::shared_ptr<QueuedRequest> queued,
              serve::SolveResponse response) SOC_EXCLUDES(inflight_mutex_);
  std::size_t QueueSize() const SOC_EXCLUDES(queue_mutex_);
  // Bumps both `name` and `tenant.<id>.<name>`.
  void CountTenant(const std::string& tenant_id, const char* name);
  // Records the wide event (stamped with this shard's index) and SLO
  // outcome for one resolved request; called on every path that
  // resolves a promise.
  void RecordOutcome(const serve::SolveRequest& request,
                     const serve::SolveResponse& response,
                     double deadline_ms, double predicted_ms);

  const int shard_index_;
  const TenantRegistry* const registry_;
  const TenantShardOptions options_;
  std::unordered_map<std::string, std::unique_ptr<SocSolver>> solvers_;
  MfiSocSolver mfi_walk_solver_;
  MfiSocSolver mfi_dfs_solver_;
  serve::ServeMetrics metrics_;
  ResultCache result_cache_;
  serve::CostModel cost_model_;
  serve::BreakerPanel breakers_;
  serve::DegradationLadder ladder_;

  mutable Mutex queue_mutex_{lock_rank::kShardQueue};
  serve::EdfQueue<std::shared_ptr<QueuedRequest>> edf_queue_
      SOC_GUARDED_BY(queue_mutex_);

  mutable Mutex inflight_mutex_{lock_rank::kShardInflight};
  CondVar inflight_cv_;
  std::int64_t inflight_ SOC_GUARDED_BY(inflight_mutex_) = 0;

  serve::Watchdog watchdog_;  // Before pool_: workers hold tickets.
  ThreadPool pool_;  // Last member: workers must die before state above.
};

}  // namespace soc::tenant

#endif  // SOC_TENANT_SHARD_H_
