#include "tenant/result_cache.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace soc::tenant {

ResultCache::ResultCache(std::size_t capacity, serve::ServeMetrics* metrics)
    : capacity_(std::max<std::size_t>(1, capacity)), metrics_(metrics) {}

void ResultCache::Count(const char* name) const {
  if (metrics_ != nullptr) metrics_->Increment(name);
}

CachedResultPtr ResultCache::Probe(const ResultCacheKey& key, bool exact,
                                   bool count) {
  MutexLock lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  // A heuristic's answer never serves an exact tier.
  if (exact && !it->second.result->solution.proved_optimal) return nullptr;
  // Bump to most-recent; splice moves the node without invalidating the
  // iterator stored in the entry.
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  if (count) Count(kResultCacheHits);
  return it->second.result;
}

CachedResultPtr ResultCache::Lookup(const ResultCacheKey& key, bool exact,
                                    const Deadline& deadline,
                                    FlightPtr* leader_flight) {
  leader_flight->reset();
  if (CachedResultPtr hit = Probe(key, exact, /*count=*/true)) return hit;

  // Miss: join or found the flight for this key.
  FlightPtr flight;
  bool leader = false;
  {
    MutexLock lock(flights_mutex_);
    auto& slot = flights_[key];
    if (slot == nullptr) {
      slot = std::make_shared<Flight>();
      leader = true;
    }
    flight = slot;
  }
  Count(kResultCacheMisses);
  if (leader) {
    *leader_flight = std::move(flight);
    return nullptr;
  }

  // Follower: wait for the leader, bounded by this request's own
  // deadline — a slow leader must not eat a faster request's budget.
  Count(kResultCacheFlightWaits);
  {
    MutexLock lock(flight->mutex);
    while (!flight->done) {
      const double remaining = deadline.RemainingSeconds();
      if (remaining <= 0) return nullptr;  // Solve solo, don't publish.
      flight->cv.WaitFor(flight->mutex, std::min(remaining, 0.05));
    }
  }
  // Leader resolved: either it published (re-probe hits, uncounted — the
  // miss above already tallied this lookup) or it abandoned. On
  // abandonment, retry leadership so one of the waiters still fills the
  // cache for the rest.
  if (CachedResultPtr hit = Probe(key, exact, /*count=*/false)) return hit;
  {
    MutexLock lock(flights_mutex_);
    auto& slot = flights_[key];
    if (slot == nullptr || slot == flight) {
      // First re-prober after an abandon: take over as leader.
      slot = std::make_shared<Flight>();
      *leader_flight = slot;
      return nullptr;
    }
    // Someone else already leads a fresh flight; solve solo rather than
    // queueing behind a second wait (bounded staleness of effort, and
    // the deadline has already been partially spent).
  }
  return nullptr;
}

void ResultCache::Resolve(const ResultCacheKey& key, const FlightPtr& flight) {
  {
    MutexLock lock(flights_mutex_);
    const auto it = flights_.find(key);
    if (it != flights_.end() && it->second == flight) flights_.erase(it);
  }
  MutexLock lock(flight->mutex);
  flight->done = true;
  flight->cv.NotifyAll();
}

void ResultCache::Publish(const ResultCacheKey& key, FlightPtr flight,
                          CachedResult result) {
  SOC_CHECK(flight != nullptr);
  {
    MutexLock lock(mutex_);
    const auto live = first_live_epoch_.find(key.tenant_id);
    // A solve pinned to an epoch that a publish has since dropped
    // inserts nothing.
    if (live == first_live_epoch_.end() || key.epoch >= live->second) {
      auto [it, inserted] = entries_.emplace(key, Entry{});
      if (inserted) {
        lru_.push_front(&it->first);
        it->second.lru_pos = lru_.begin();
      } else {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      }
      it->second.result =
          std::make_shared<const CachedResult>(std::move(result));
      Count(kResultCacheInserts);
      while (entries_.size() > capacity_) {
        const ResultCacheKey* victim = lru_.back();
        lru_.pop_back();
        entries_.erase(*victim);
        Count(kResultCacheEvictions);
      }
    }
  }
  Resolve(key, flight);
}

void ResultCache::Abandon(const ResultCacheKey& key, FlightPtr flight) {
  SOC_CHECK(flight != nullptr);
  Resolve(key, flight);
}

std::size_t ResultCache::DropEpochsBefore(const std::string& tenant_id,
                                          std::int64_t epoch) {
  MutexLock lock(mutex_);
  std::int64_t& first_live = first_live_epoch_[tenant_id];
  first_live = std::max(first_live, epoch);
  // Keys order by (tenant, epoch, m, tuple bits): one tenant's older
  // epochs form the range that starts at its smallest possible key.
  ResultCacheKey bound;
  bound.tenant_id = tenant_id;
  bound.m = std::numeric_limits<int>::min();
  bound.epoch = std::numeric_limits<std::int64_t>::min();
  auto it = entries_.lower_bound(bound);
  bound.epoch = first_live;
  const auto end = entries_.lower_bound(bound);
  std::size_t dropped = 0;
  while (it != end) {
    lru_.erase(it->second.lru_pos);
    it = entries_.erase(it);
    ++dropped;
  }
  if (metrics_ != nullptr && dropped > 0) {
    metrics_->Increment(kResultCacheEpochDrops,
                        static_cast<std::int64_t>(dropped));
  }
  return dropped;
}

std::size_t ResultCache::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

}  // namespace soc::tenant
