// TenantSnapshot: one immutable epoch of one tenant's serving state —
// the query log plus the PreprocessingCache (the log's ~Q tidsets, the
// shared MFI threshold indexes over them and the zero-visibility gate)
// built over it, eagerly, when the snapshot is made.
//
// Snapshots are the RCU unit of the multi-tenant layer. The registry
// hands them out as shared_ptr-to-const; a request pins the snapshot it
// was admitted under for its whole lifetime, so PublishEpoch can swap the
// registry's slot without waiting for in-flight solves — the old epoch
// is destroyed when its last pinned reference drops ("drains").
//
// Epochs are per-tenant, monotonically increasing from 1. The epoch
// number participates in every ResultCache key, so new requests pin the
// new snapshot, form keys with the new epoch, and never look up old
// entries; ShardedService::PublishEpoch then drops the old epochs'
// entries from the tenant's shard cache.

#ifndef SOC_TENANT_SNAPSHOT_H_
#define SOC_TENANT_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "boolean/query_log.h"
#include "serve/preprocessing_cache.h"

namespace soc::tenant {

class TenantSnapshot {
 public:
  // `mfi_cache_capacity` bounds each MFI engine's threshold cache, as in
  // VisibilityServiceOptions.
  TenantSnapshot(std::string tenant_id, std::int64_t epoch, QueryLog log,
                 std::size_t mfi_cache_capacity)
      : tenant_id_(std::move(tenant_id)),
        epoch_(epoch),
        log_(std::move(log)),
        preprocessing_(log_, mfi_cache_capacity) {}

  TenantSnapshot(const TenantSnapshot&) = delete;
  TenantSnapshot& operator=(const TenantSnapshot&) = delete;

  const std::string& tenant_id() const { return tenant_id_; }
  std::int64_t epoch() const { return epoch_; }
  const QueryLog& log() const { return log_; }

  // Logically const: the cache's only mutable state is its internally
  // synchronized mined-itemset collections over the immutable log.
  serve::PreprocessingCache& preprocessing() const { return preprocessing_; }

 private:
  const std::string tenant_id_;
  const std::int64_t epoch_;
  const QueryLog log_;  // Before preprocessing_: it is built from it.
  mutable serve::PreprocessingCache preprocessing_;
};

using SnapshotPtr = std::shared_ptr<const TenantSnapshot>;

}  // namespace soc::tenant

#endif  // SOC_TENANT_SNAPSHOT_H_
