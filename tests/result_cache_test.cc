// ResultCache: hit/miss accounting, LRU eviction order, single-flight
// leadership (leader / follower / abandon-promotion / deadline-bounded
// waits), the tier rule (a heuristic's entry never answers an exact
// request) and the epoch-keyed invalidation scheme — old-epoch keys are
// unreachable at once, and DropEpochsBefore erases exactly one tenant's
// older epochs.

#include "tenant/result_cache.h"

#include <chrono>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/solver.h"
#include "serve/metrics.h"

namespace soc::tenant {
namespace {

ResultCacheKey MakeKey(const std::string& tenant, const std::string& bits,
                       int m, std::int64_t epoch) {
  ResultCacheKey key;
  key.tenant_id = tenant;
  key.tuple_bits = bits;
  key.m = m;
  key.epoch = epoch;
  return key;
}

CachedResult MakeResult(const std::string& selected, int satisfied) {
  CachedResult result;
  result.solution.selected = DynamicBitset::FromString(selected);
  result.solution.satisfied_queries = satisfied;
  result.solver = "BranchAndBound";
  return result;
}

// Inserts via the full leader protocol (Lookup miss -> Publish).
void Insert(ResultCache& cache, const ResultCacheKey& key,
            CachedResult result) {
  ResultCache::FlightPtr flight;
  ASSERT_EQ(cache.Lookup(key, /*exact=*/false,
                         Deadline::Infinite(), &flight), nullptr);
  ASSERT_NE(flight, nullptr) << "expected cold-miss leadership";
  cache.Publish(key, std::move(flight), std::move(result));
}

TEST(ResultCacheTest, MissThenHitCountsExactlyOnceEach) {
  serve::ServeMetrics metrics;
  ResultCache cache(8, &metrics);
  const ResultCacheKey key = MakeKey("acme", "0110", 2, 1);

  Insert(cache, key, MakeResult("0100", 7));
  ResultCache::FlightPtr flight;
  const CachedResultPtr hit = cache.Lookup(key, /*exact=*/false,
                                           Deadline::Infinite(), &flight);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(flight, nullptr);
  EXPECT_EQ(hit->solution.satisfied_queries, 7);
  EXPECT_EQ(hit->solver, "BranchAndBound");

  EXPECT_EQ(metrics.Get(kResultCacheMisses), 1);
  EXPECT_EQ(metrics.Get(kResultCacheHits), 1);
  EXPECT_EQ(metrics.Get(kResultCacheInserts), 1);
  EXPECT_EQ(metrics.Get(kResultCacheEvictions), 0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCacheTest, CapacityIsClampedToOne) {
  ResultCache cache(0, nullptr);  // nullptr metrics: counters dropped.
  EXPECT_EQ(cache.capacity(), 1u);
  Insert(cache, MakeKey("a", "01", 1, 1), MakeResult("01", 1));
  Insert(cache, MakeKey("b", "01", 1, 1), MakeResult("01", 2));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  serve::ServeMetrics metrics;
  ResultCache cache(2, &metrics);
  const ResultCacheKey k1 = MakeKey("acme", "0001", 1, 1);
  const ResultCacheKey k2 = MakeKey("acme", "0010", 1, 1);
  const ResultCacheKey k3 = MakeKey("acme", "0100", 1, 1);

  Insert(cache, k1, MakeResult("0001", 1));
  Insert(cache, k2, MakeResult("0010", 2));

  // Touch k1 so k2 becomes the LRU entry, then overflow with k3.
  ResultCache::FlightPtr flight;
  ASSERT_NE(cache.Lookup(k1, /*exact=*/false,
                         Deadline::Infinite(), &flight), nullptr);
  Insert(cache, k3, MakeResult("0100", 3));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(metrics.Get(kResultCacheEvictions), 1);
  EXPECT_NE(cache.Lookup(k1, /*exact=*/false,
                         Deadline::Infinite(), &flight), nullptr);
  EXPECT_NE(cache.Lookup(k3, /*exact=*/false,
                         Deadline::Infinite(), &flight), nullptr);
  // k2 was evicted: probing it is a fresh miss granting leadership.
  EXPECT_EQ(cache.Lookup(k2, /*exact=*/false,
                         Deadline::Infinite(), &flight), nullptr);
  ASSERT_NE(flight, nullptr);
  cache.Abandon(k2, std::move(flight));
}

TEST(ResultCacheTest, FollowerWaitsForTheLeaderAndHits) {
  serve::ServeMetrics metrics;
  ResultCache cache(8, &metrics);
  const ResultCacheKey key = MakeKey("acme", "1100", 2, 3);

  ResultCache::FlightPtr leader;
  ASSERT_EQ(cache.Lookup(key, /*exact=*/false,
                         Deadline::Infinite(), &leader), nullptr);
  ASSERT_NE(leader, nullptr);

  CachedResultPtr follower_result;
  {
    ThreadPool follower(1);
    follower.Submit([&cache, &key, &follower_result] {
      ResultCache::FlightPtr flight;
      follower_result =
          cache.Lookup(key, /*exact=*/false,
                       Deadline::AfterSeconds(10), &flight);
      EXPECT_EQ(flight, nullptr);
    });
    // Let the follower reach its wait, then resolve the flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cache.Publish(key, std::move(leader), MakeResult("1000", 5));
    follower.Shutdown();
  }
  ASSERT_NE(follower_result, nullptr);
  EXPECT_EQ(follower_result->solution.satisfied_queries, 5);
  EXPECT_GE(metrics.Get(kResultCacheFlightWaits), 1);
  // Both lookups arrived before the value existed, so both count as
  // misses — the follower's post-wait re-probe is deliberately uncounted
  // (one hit-or-miss per Lookup). Only a fresh lookup is a hit.
  EXPECT_EQ(metrics.Get(kResultCacheMisses), 2);
  EXPECT_EQ(metrics.Get(kResultCacheHits), 0);
  ResultCache::FlightPtr fresh;
  EXPECT_NE(cache.Lookup(key, /*exact=*/false,
                         Deadline::Infinite(), &fresh), nullptr);
  EXPECT_EQ(metrics.Get(kResultCacheHits), 1);
}

TEST(ResultCacheTest, AbandonPromotesTheFirstReProber) {
  serve::ServeMetrics metrics;
  ResultCache cache(8, &metrics);
  const ResultCacheKey key = MakeKey("acme", "1010", 2, 1);

  ResultCache::FlightPtr leader;
  ASSERT_EQ(cache.Lookup(key, /*exact=*/false,
                         Deadline::Infinite(), &leader), nullptr);
  ASSERT_NE(leader, nullptr);

  bool follower_promoted = false;
  {
    ThreadPool follower(1);
    follower.Submit([&cache, &key, &follower_promoted] {
      ResultCache::FlightPtr flight;
      const CachedResultPtr result =
          cache.Lookup(key, /*exact=*/false,
                       Deadline::AfterSeconds(10), &flight);
      // The leader abandoned: no result, but leadership transfers.
      EXPECT_EQ(result, nullptr);
      ASSERT_NE(flight, nullptr);
      follower_promoted = true;
      cache.Publish(key, std::move(flight), MakeResult("1010", 9));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cache.Abandon(key, std::move(leader));
    follower.Shutdown();
  }
  EXPECT_TRUE(follower_promoted);
  // The promoted follower's publish is served to later probes.
  ResultCache::FlightPtr flight;
  const CachedResultPtr hit = cache.Lookup(key, /*exact=*/false,
                                           Deadline::Infinite(), &flight);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->solution.satisfied_queries, 9);
}

TEST(ResultCacheTest, FollowerDeadlineExpiryFallsBackToSelfSolve) {
  serve::ServeMetrics metrics;
  ResultCache cache(8, &metrics);
  const ResultCacheKey key = MakeKey("acme", "0011", 1, 1);

  ResultCache::FlightPtr leader;
  ASSERT_EQ(cache.Lookup(key, /*exact=*/false,
                         Deadline::Infinite(), &leader), nullptr);
  ASSERT_NE(leader, nullptr);

  // A follower with a short budget must not stall behind a wedged
  // leader: it gives up, gets a miss with no leadership, and solves for
  // itself without publishing.
  ResultCache::FlightPtr follower_flight;
  const CachedResultPtr result =
      cache.Lookup(key, /*exact=*/false,
                   Deadline::AfterSeconds(0.05), &follower_flight);
  EXPECT_EQ(result, nullptr);
  EXPECT_EQ(follower_flight, nullptr);
  EXPECT_EQ(metrics.Get(kResultCacheMisses), 2);

  cache.Abandon(key, std::move(leader));
}

TEST(ResultCacheTest, EpochBumpMakesOldEntriesUnreachable) {
  serve::ServeMetrics metrics;
  ResultCache cache(8, &metrics);
  const ResultCacheKey old_key = MakeKey("acme", "0110", 2, 1);
  const ResultCacheKey new_key = MakeKey("acme", "0110", 2, 2);

  Insert(cache, old_key, MakeResult("0100", 7));

  // Same tenant/tuple/m at the published epoch is a different key: the
  // stale answer is unreachable without any scan or version check.
  ResultCache::FlightPtr flight;
  ASSERT_EQ(cache.Lookup(new_key, /*exact=*/false,
                         Deadline::Infinite(), &flight), nullptr);
  ASSERT_NE(flight, nullptr);
  cache.Publish(new_key, std::move(flight), MakeResult("0010", 11));

  const CachedResultPtr fresh =
      cache.Lookup(new_key, /*exact=*/false, Deadline::Infinite(), &flight);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->solution.satisfied_queries, 11);
  // The old epoch's entry still exists until the publisher drops it, but
  // can only be reached by an old-epoch key.
  const CachedResultPtr stale =
      cache.Lookup(old_key, /*exact=*/false, Deadline::Infinite(), &flight);
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->solution.satisfied_queries, 7);
}

TEST(ResultCacheTest, KeysDifferingInAnyComponentMiss) {
  ResultCache cache(16, nullptr);
  Insert(cache, MakeKey("acme", "0110", 2, 1), MakeResult("0100", 7));
  for (const ResultCacheKey& other :
       {MakeKey("globex", "0110", 2, 1),   // tenant
        MakeKey("acme", "0111", 2, 1),     // tuple
        MakeKey("acme", "0110", 3, 1),     // m
        MakeKey("acme", "0110", 2, 2)}) {  // epoch
    ResultCache::FlightPtr flight;
    EXPECT_EQ(cache.Lookup(other, /*exact=*/false,
                           Deadline::Infinite(), &flight), nullptr);
    ASSERT_NE(flight, nullptr);
    cache.Abandon(other, std::move(flight));
  }
}

CachedResult MakeProved(const std::string& selected, int satisfied) {
  CachedResult result = MakeResult(selected, satisfied);
  result.solution.proved_optimal = true;
  return result;
}

TEST(ResultCacheTest, HeuristicEntryServesOnlyHeuristicRequests) {
  serve::ServeMetrics metrics;
  ResultCache cache(8, &metrics);
  const ResultCacheKey key = MakeKey("acme", "0110", 2, 1);
  Insert(cache, key, MakeResult("0100", 7));

  ResultCache::FlightPtr flight;
  ASSERT_NE(cache.Lookup(key, /*exact=*/false, Deadline::Infinite(), &flight),
            nullptr);
  // For an exact request the heuristic's entry is a miss, and the request
  // leads the solve whose proved-optimal answer replaces it.
  ASSERT_EQ(cache.Lookup(key, /*exact=*/true, Deadline::Infinite(), &flight),
            nullptr);
  ASSERT_NE(flight, nullptr);
  EXPECT_EQ(metrics.Get(kResultCacheHits), 1);
  EXPECT_EQ(metrics.Get(kResultCacheMisses), 2);
  cache.Publish(key, std::move(flight), MakeProved("0010", 9));
  EXPECT_EQ(cache.size(), 1u);

  for (const bool exact : {true, false}) {
    const CachedResultPtr hit =
        cache.Lookup(key, exact, Deadline::Infinite(), &flight);
    ASSERT_NE(hit, nullptr) << exact;
    EXPECT_EQ(flight, nullptr);
    EXPECT_EQ(hit->solution.satisfied_queries, 9);
  }
}

TEST(ResultCacheTest, DropEpochsBeforeErasesOneTenantsOlderEpochs) {
  serve::ServeMetrics metrics;
  ResultCache cache(32, &metrics);
  for (const char* tenant : {"a", "ab", "b"}) {
    for (std::int64_t epoch = 1; epoch <= 3; ++epoch) {
      for (const char* bits : {"0110", "1000"}) {
        Insert(cache, MakeKey(tenant, bits, 2, epoch), MakeResult(bits, 1));
      }
    }
  }
  ASSERT_EQ(cache.size(), 18u);
  EXPECT_EQ(cache.DropEpochsBefore("ab", 3), 4u);
  EXPECT_EQ(cache.size(), 14u);
  EXPECT_EQ(metrics.Get(kResultCacheEpochDrops), 4);
  for (const char* tenant : {"a", "ab", "b"}) {
    for (std::int64_t epoch = 1; epoch <= 3; ++epoch) {
      ResultCache::FlightPtr flight;
      const bool present =
          cache.Lookup(MakeKey(tenant, "1000", 2, epoch), /*exact=*/false,
                       Deadline::Infinite(), &flight) != nullptr;
      if (flight != nullptr) cache.Abandon(MakeKey(tenant, "1000", 2, epoch),
                                           std::move(flight));
      EXPECT_EQ(present, std::string(tenant) != "ab" || epoch == 3)
          << tenant << " epoch " << epoch;
    }
  }
  // Dropping again, or an older floor, erases nothing more; the LRU list
  // stays consistent with the map through later evictions.
  EXPECT_EQ(cache.DropEpochsBefore("ab", 2), 0u);
  for (int i = 0; i < 40; ++i) {
    Insert(cache, MakeKey("c", std::to_string(i), 1, 1), MakeResult("1", 1));
  }
  EXPECT_EQ(cache.size(), 32u);
}

TEST(ResultCacheTest, AnswerOfADroppedEpochIsNotInserted) {
  ResultCache cache(8, nullptr);
  const ResultCacheKey key = MakeKey("acme", "0110", 2, 1);
  ResultCache::FlightPtr flight;
  ASSERT_EQ(cache.Lookup(key, /*exact=*/false, Deadline::Infinite(), &flight),
            nullptr);
  ASSERT_NE(flight, nullptr);
  EXPECT_EQ(cache.DropEpochsBefore("acme", 2), 0u);
  // The solve pinned to epoch 1 finishes after the publish.
  cache.Publish(key, std::move(flight), MakeResult("0100", 7));
  EXPECT_EQ(cache.size(), 0u);
  Insert(cache, MakeKey("acme", "0110", 2, 2), MakeResult("0100", 7));
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace soc::tenant
