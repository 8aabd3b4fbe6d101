#include "tenant/registry.h"

#include <memory>
#include <utility>

namespace soc::tenant {

TenantRegistry::TenantRegistry(int num_shards, TenantRegistryOptions options)
    : options_(options), ring_(num_shards, options.vnodes_per_shard) {}

Status TenantRegistry::CreateTenant(const std::string& id, QueryLog log) {
  if (id.empty()) return InvalidArgumentError("tenant id must be non-empty");
  {
    ReaderMutexLock lock(mutex_);
    if (tenants_.count(id) > 0) {
      return FailedPreconditionError("tenant '" + id +
                                     "' already exists; use PublishEpoch");
    }
  }
  // Build outside any lock: preprocessing construction (complemented DB,
  // feature scans) must never stall readers of other tenants.
  auto snapshot = std::make_shared<const TenantSnapshot>(
      id, /*epoch=*/1, std::move(log), options_.mfi_cache_capacity);
  WriterMutexLock lock(mutex_);
  // Racing creators: first swap wins, later ones fail as already-exists
  // (try_emplace leaves their snapshot to die after the lock releases).
  const auto [it, inserted] = tenants_.try_emplace(id, std::move(snapshot));
  (void)it;
  if (!inserted) {
    return FailedPreconditionError("tenant '" + id +
                                   "' already exists; use PublishEpoch");
  }
  return Status::OK();
}

StatusOr<std::int64_t> TenantRegistry::PublishEpoch(const std::string& id,
                                                    QueryLog log) {
  std::int64_t base_epoch = 0;
  {
    ReaderMutexLock lock(mutex_);
    const auto it = tenants_.find(id);
    if (it == tenants_.end()) {
      return NotFoundError("unknown tenant '" + id + "'");
    }
    base_epoch = it->second->epoch();
  }
  auto snapshot = std::make_shared<const TenantSnapshot>(
      id, base_epoch + 1, std::move(log), options_.mfi_cache_capacity);
  const std::int64_t epoch = snapshot->epoch();
  // The old epoch leaves the slot under the lock but is released after
  // it: if this was its last reference, destroying its log and mined
  // itemsets must not hold up Acquire on every shard.
  SnapshotPtr retired;
  {
    WriterMutexLock lock(mutex_);
    const auto it = tenants_.find(id);
    if (it == tenants_.end()) {
      return NotFoundError("unknown tenant '" + id + "'");
    }
    // A concurrent publish may have advanced the slot past our base; only
    // move forward so epochs stay strictly increasing for readers.
    if (it->second->epoch() >= epoch) {
      return FailedPreconditionError(
          "concurrent publish for tenant '" + id + "' won (slot at epoch " +
          std::to_string(it->second->epoch()) + ")");
    }
    retired = std::exchange(it->second, std::move(snapshot));
    ++epochs_published_;
  }
  return epoch;
}

SnapshotPtr TenantRegistry::Acquire(const std::string& id) const {
  ReaderMutexLock lock(mutex_);
  const auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : it->second;
}

std::vector<std::string> TenantRegistry::TenantIds() const {
  std::vector<std::string> ids;
  ReaderMutexLock lock(mutex_);
  ids.reserve(tenants_.size());
  for (const auto& [id, snapshot] : tenants_) ids.push_back(id);
  return ids;
}

std::int64_t TenantRegistry::tenant_count() const {
  ReaderMutexLock lock(mutex_);
  return static_cast<std::int64_t>(tenants_.size());
}

std::int64_t TenantRegistry::epochs_published() const {
  ReaderMutexLock lock(mutex_);
  return epochs_published_;
}

}  // namespace soc::tenant
