#include "serve/preprocessing_cache.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "itemsets/maximal_dfs.h"
#include "itemsets/random_walk.h"
#include "kernels/arena.h"

namespace soc::serve {

namespace {

std::shared_ptr<const itemsets::TransactionDatabase> ComplementedDb(
    const QueryLog& log) {
  return std::make_shared<const itemsets::TransactionDatabase>(
      itemsets::TransactionDatabase::FromComplementedQueryLog(log));
}

}  // namespace

SharedMfiIndex::SharedMfiIndex(const QueryLog& log, MfiSocOptions options,
                               std::size_t capacity)
    : SharedMfiIndex(ComplementedDb(log), std::move(options), capacity) {}

SharedMfiIndex::SharedMfiIndex(
    std::shared_ptr<const itemsets::TransactionDatabase> db,
    MfiSocOptions options, std::size_t capacity)
    : db_(std::move(db)),
      log_size_(db_->num_transactions()),
      options_(std::move(options)),
      capacity_(std::max<std::size_t>(1, capacity)) {}

StatusOr<std::vector<itemsets::FrequentItemset>> SharedMfiIndex::Mine(
    int threshold, SolveContext* context) {
  return options_.engine == MfiEngine::kRandomWalk
             ? itemsets::MineMaximalItemsetsRandomWalk(
                   *db_, threshold, options_.walk, /*stats=*/nullptr, context)
             : itemsets::MineMaximalItemsetsDfs(*db_, threshold, options_.dfs,
                                                context);
}

SharedMfiIndex::ItemsetsPtr SharedMfiIndex::Lookup(int threshold,
                                                   bool count_hit) {
  ReaderMutexLock lock(mutex_);
  const auto it = cache_.find(threshold);
  if (it == cache_.end()) return nullptr;
  if (count_hit) hits_.fetch_add(1, std::memory_order_relaxed);
  it->second.last_used.store(
      use_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  return it->second.itemsets;
}

StatusOr<SharedMfiIndex::ItemsetsPtr> SharedMfiIndex::MaximalItemsets(
    int threshold, SolveContext* context) {
  if (ItemsetsPtr hit = Lookup(threshold, /*count_hit=*/true)) return hit;
  misses_.fetch_add(1, std::memory_order_relaxed);

  // Single-flight: concurrent misses on one threshold elect one miner.
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    MutexLock lock(flights_mutex_);
    auto [it, inserted] = flights_.try_emplace(threshold);
    if (inserted) {
      it->second = std::make_shared<Flight>();
      leader = true;
    }
    flight = it->second;
  }
  if (leader) return MineAndPublish(threshold, context, flight.get());

  bool published = false;
  {
    const PhaseScope wait_phase(context, "cache_wait");
    MutexLock wait_lock(flight->mutex);
    while (!flight->done) flight->cv.Wait(flight->mutex);
    published = flight->published;
  }
  if (published) {
    // Don't re-count: this request was already tallied as a miss.
    if (ItemsetsPtr hit = Lookup(threshold, /*count_hit=*/false)) return hit;
    // Evicted between publication and re-probe (tiny capacity under
    // churn); fall through and mine.
  }
  // The leader's mining was partial (its context stopped it) or failed;
  // neither outcome speaks for this request, so mine under our own
  // context without holding a flight (duplicate work is acceptable on
  // this rare path).
  return MineAndPublish(threshold, context, /*flight=*/nullptr);
}

StatusOr<SharedMfiIndex::ItemsetsPtr> SharedMfiIndex::MineAndPublish(
    int threshold, SolveContext* context, Flight* flight) {
  bool published = false;
  // Whatever the outcome, a leader must resolve its flight or followers
  // block forever.
  const auto resolve_flight = [&] {
    if (flight == nullptr) return;
    {
      MutexLock lock(flight->mutex);
      flight->published = published;
      flight->done = true;
    }
    {
      MutexLock lock(flights_mutex_);
      flights_.erase(threshold);
    }
    flight->cv.NotifyAll();
  };

  StatusOr<std::vector<itemsets::FrequentItemset>> mined =
      [&] {
        const PhaseScope phase(context, "mining");
        return Mine(threshold, context);
      }();
  if (!mined.ok()) {
    resolve_flight();
    return mined.status();
  }
  auto itemsets = std::make_shared<const std::vector<itemsets::FrequentItemset>>(
      std::move(mined).value());
  if (context != nullptr && context->stop_requested()) {
    // Partial pass: valid for this solve's incumbent, never cached.
    resolve_flight();
    return ItemsetsPtr(itemsets);
  }

  {
    WriterMutexLock write(mutex_);
    const auto [it, inserted] = cache_.try_emplace(threshold);
    if (inserted) {
      it->second.itemsets = itemsets;
      it->second.last_used.store(
          use_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      while (cache_.size() > capacity_) {
        auto victim = cache_.end();
        std::uint64_t oldest = 0;
        for (auto candidate = cache_.begin(); candidate != cache_.end();
             ++candidate) {
          if (candidate == it) continue;  // Never evict the fresh insert.
          const std::uint64_t used =
              candidate->second.last_used.load(std::memory_order_relaxed);
          if (victim == cache_.end() || used < oldest) {
            victim = candidate;
            oldest = used;
          }
        }
        if (victim == cache_.end()) break;
        cache_.erase(victim);
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      itemsets = it->second.itemsets;  // Raced a non-flight miner; reuse.
    }
  }
  published = true;
  resolve_flight();
  return ItemsetsPtr(itemsets);
}

CacheStats SharedMfiIndex::stats() const {
  CacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  // Per-itemset estimate: the FrequentItemset struct plus its bitset's
  // word storage. Close enough for a capacity-planning gauge.
  const std::int64_t bitset_bytes =
      static_cast<std::int64_t>((db_->num_items() + 63) / 64) * 8;
  ReaderMutexLock lock(mutex_);
  stats.entries = static_cast<std::int64_t>(cache_.size());
  for (const auto& [threshold, entry] : cache_) {
    stats.approx_bytes +=
        static_cast<std::int64_t>(sizeof(Entry)) +
        static_cast<std::int64_t>(entry.itemsets->size()) *
            (static_cast<std::int64_t>(sizeof(itemsets::FrequentItemset)) +
             bitset_bytes);
  }
  return stats;
}

namespace {

MfiSocOptions EngineOptions(MfiEngine engine) {
  MfiSocOptions options;
  options.engine = engine;
  return options;
}

// masks[s]: the queries with |q| <= s, for s in 0..M. Each query goes
// into the mask of its own size, and a prefix OR then fills the rest.
std::vector<DynamicBitset> SizeAtMost(const QueryLog& log) {
  const int num_attrs = log.num_attributes();
  std::vector<DynamicBitset> masks(num_attrs + 1,
                                   DynamicBitset(log.size()));
  for (int q = 0; q < log.size(); ++q) masks[log.query(q).Count()].Set(q);
  for (int s = 1; s <= num_attrs; ++s) masks[s] |= masks[s - 1];
  return masks;
}

}  // namespace

PreprocessingCache::PreprocessingCache(const QueryLog& log,
                                       std::size_t mfi_capacity)
    : db_(ComplementedDb(log)),
      size_at_most_(SizeAtMost(log)),
      walk_index_(db_, EngineOptions(MfiEngine::kRandomWalk), mfi_capacity),
      dfs_index_(db_, EngineOptions(MfiEngine::kExactDfs), mfi_capacity) {}

int PreprocessingCache::MaxSatisfiable(const DynamicBitset& tuple,
                                       int m) const {
  if (db_->num_transactions() == 0) return 0;
  const int num_attrs = db_->num_items();
  const int m_eff = std::min(
      {std::max(0, m), static_cast<int>(tuple.Count()), num_attrs});
  // Queries with |q| <= m_eff that avoid every attribute the tuple lacks
  // (q ⊆ t ⟺ q avoids ~t). The working bitmap lives in the thread's
  // scratch arena: this runs once per request on the serve fast path,
  // and the steady state must allocate nothing (tests assert it).
  const std::size_t words = size_at_most_[m_eff].word_count();
  const kernels::ScratchScope scratch;
  std::uint64_t* candidates = scratch.arena().AllocateWords(words);
  std::memcpy(candidates, size_at_most_[m_eff].words(),
              words * sizeof(std::uint64_t));
  for (int attr = 0; attr < num_attrs; ++attr) {
    if (tuple.Test(attr)) continue;
    const std::uint64_t* tids = db_->item_tids(attr).words();
    for (std::size_t w = 0; w < words; ++w) candidates[w] &= tids[w];
  }
  long long count = 0;
  for (std::size_t w = 0; w < words; ++w) {
    count += std::popcount(candidates[w]);
  }
  return static_cast<int>(count);
}

CacheStats PreprocessingCache::mfi_stats() const {
  const CacheStats walk = walk_index_.stats();
  const CacheStats dfs = dfs_index_.stats();
  CacheStats total;
  total.hits = walk.hits + dfs.hits;
  total.misses = walk.misses + dfs.misses;
  total.evictions = walk.evictions + dfs.evictions;
  total.entries = walk.entries + dfs.entries;
  total.approx_bytes = walk.approx_bytes + dfs.approx_bytes;
  return total;
}

}  // namespace soc::serve
