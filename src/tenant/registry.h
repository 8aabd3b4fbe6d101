// TenantRegistry: the control plane of the multi-tenant serving layer.
// Maps tenant id -> (shard via consistent hashing, current TenantSnapshot
// via an RCU slot).
//
// Reader path (every request): Acquire() takes the registry lock in
// shared mode just long enough to copy a shared_ptr — never blocked by a
// concurrent publish building preprocessing state, because snapshot
// construction happens entirely outside the lock.
//
// Writer path (admin): CreateTenant / PublishEpoch build the new
// immutable snapshot unlocked, then swap the slot under the exclusive
// lock. In-flight requests keep solving against whatever snapshot they
// pinned; the old epoch drains when its last reference drops, and never
// under the lock: the publisher releases its reference after unlocking.
//
// Sharding is fixed at construction (the ring is immutable); tenants map
// onto shards by ConsistentHashRing::ShardOf(tenant_id), so a future
// resharding moves only ~1/N of tenants.

#ifndef SOC_TENANT_REGISTRY_H_
#define SOC_TENANT_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "boolean/query_log.h"
#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "tenant/consistent_hash.h"
#include "tenant/snapshot.h"

namespace soc::tenant {

struct TenantRegistryOptions {
  int vnodes_per_shard = 64;
  // Per-engine LRU capacity of each snapshot's MFI threshold cache.
  std::size_t mfi_cache_capacity = 32;
};

class TenantRegistry {
 public:
  explicit TenantRegistry(int num_shards, TenantRegistryOptions options = {});

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  // Registers `id` at epoch 1. Fails (kFailedPrecondition) if the tenant
  // already exists — use PublishEpoch to replace a catalog.
  Status CreateTenant(const std::string& id, QueryLog log)
      SOC_EXCLUDES(mutex_);

  // Replaces the tenant's catalog: builds epoch N+1 unlocked, swaps the
  // slot, returns the new epoch. kNotFound for unknown tenants.
  //
  // Concurrent publishes for the same tenant are serialized by the swap:
  // each bumps from the epoch it observed at entry, and the slot only
  // ever moves to a strictly larger epoch.
  StatusOr<std::int64_t> PublishEpoch(const std::string& id, QueryLog log)
      SOC_EXCLUDES(mutex_);

  // Pins the tenant's current snapshot; nullptr if the tenant is unknown.
  SnapshotPtr Acquire(const std::string& id) const SOC_EXCLUDES(mutex_);

  // The shard owning `id` (defined for unknown tenants too — routing
  // happens before existence is checked).
  int ShardOf(const std::string& id) const { return ring_.ShardOf(id); }

  int num_shards() const { return ring_.num_shards(); }
  std::vector<std::string> TenantIds() const SOC_EXCLUDES(mutex_);
  std::int64_t tenant_count() const SOC_EXCLUDES(mutex_);
  // Total PublishEpoch swaps across all tenants (admin-path counter).
  std::int64_t epochs_published() const SOC_EXCLUDES(mutex_);

 private:
  const TenantRegistryOptions options_;
  const ConsistentHashRing ring_;

  mutable SharedMutex mutex_{lock_rank::kTenantRegistry};
  std::map<std::string, SnapshotPtr> tenants_ SOC_GUARDED_BY(mutex_);
  std::int64_t epochs_published_ SOC_GUARDED_BY(mutex_) = 0;
};

}  // namespace soc::tenant

#endif  // SOC_TENANT_REGISTRY_H_
