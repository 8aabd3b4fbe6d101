// SharedMfiIndex concurrency tests: LRU eviction racing single-flight
// mining and partial-result promotion rules; PreprocessingCache's
// zero-visibility bound against a naive count, and with concurrent
// readers. These run in the TSan CI job, which is what gives the
// "racing" cases their teeth.

#include "serve/preprocessing_cache.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/instance.h"
#include "common/random.h"
#include "common/solve_context.h"
#include "datagen/workload.h"

namespace soc::serve {
namespace {

constexpr int kAttrs = 12;

QueryLog MakeLog() {
  const AttributeSchema schema = AttributeSchema::Anonymous(kAttrs);
  datagen::SyntheticWorkloadOptions wl;
  wl.num_queries = 80;
  wl.seed = 11;
  return datagen::MakeSyntheticWorkload(schema, wl);
}

MfiSocOptions DfsOptions() {
  MfiSocOptions options;
  options.engine = MfiEngine::kExactDfs;  // Deterministic results.
  return options;
}

TEST(SharedMfiIndexTest, EvictionRacesSingleFlightMining) {
  const QueryLog log = MakeLog();
  constexpr int kThresholds = 4;

  // Reference sizes, mined on a roomy single-threaded index.
  SharedMfiIndex reference(log, DfsOptions(), /*capacity=*/kThresholds);
  std::vector<std::size_t> expected;
  for (int t = 1; t <= kThresholds; ++t) {
    auto mined = reference.MaximalItemsets(t, /*context=*/nullptr);
    ASSERT_TRUE(mined.ok());
    expected.push_back((*mined)->size());
  }

  // Capacity 1: every publish of a new threshold evicts the previous
  // one while other threads are mid-lookup or mid-mining.
  SharedMfiIndex index(log, DfsOptions(), /*capacity=*/1);
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 32;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const int threshold = 1 + (w + i) % kThresholds;
        auto mined = index.MaximalItemsets(threshold, /*context=*/nullptr);
        if (!mined.ok() || *mined == nullptr ||
            (*mined)->size() !=
                expected[static_cast<std::size_t>(threshold - 1)]) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const CacheStats stats = index.stats();
  // Every request resolved as exactly one hit or one miss.
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kItersPerThread);
  // All four thresholds were published into a capacity-1 cache at least
  // once each, so at least three publishes evicted a resident entry.
  EXPECT_GE(stats.evictions, kThresholds - 1);
}

TEST(SharedMfiIndexTest, PartialMiningIsNeverPromoted) {
  const QueryLog log = MakeLog();
  SharedMfiIndex index(log, DfsOptions(), /*capacity=*/4);

  SolveContext stopped;
  stopped.InjectFault(StopReason::kDeadline, /*at_tick=*/1);
  auto partial = index.MaximalItemsets(2, &stopped);
  ASSERT_TRUE(partial.ok());  // Partial results are still usable...
  EXPECT_TRUE(stopped.stop_requested());
  EXPECT_EQ(index.stats().misses, 1);

  // ...but never cached: the next request misses again and gets the
  // full collection.
  auto full = index.MaximalItemsets(2, /*context=*/nullptr);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(index.stats().misses, 2);
  EXPECT_EQ(index.stats().hits, 0);

  SharedMfiIndex reference(log, DfsOptions(), /*capacity=*/4);
  auto expected = reference.MaximalItemsets(2, /*context=*/nullptr);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ((*full)->size(), (*expected)->size());

  // The complete result was promoted: the third request is a hit.
  auto hit = index.MaximalItemsets(2, /*context=*/nullptr);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(index.stats().hits, 1);
}

TEST(SharedMfiIndexTest, ConcurrentMissesShareOneFlight) {
  const QueryLog log = MakeLog();
  SharedMfiIndex index(log, DfsOptions(), /*capacity=*/4);

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<int> failures{0};
  std::vector<std::size_t> sizes(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      auto mined = index.MaximalItemsets(3, /*context=*/nullptr);
      if (!mined.ok() || *mined == nullptr) {
        ++failures;
        return;
      }
      sizes[static_cast<std::size_t>(w)] = (*mined)->size();
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  for (int w = 1; w < kThreads; ++w) {
    EXPECT_EQ(sizes[static_cast<std::size_t>(w)], sizes[0]);
  }
  const CacheStats stats = index.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads);
  EXPECT_GE(stats.misses, 1);
}

// |{q : q ⊆ t, |q| <= min(m, |t|)}|, straight from the definition.
int NaiveMaxSatisfiable(const QueryLog& log, const DynamicBitset& tuple,
                        int m) {
  const int m_eff = std::min(std::max(0, m), static_cast<int>(tuple.Count()));
  int count = 0;
  for (const DynamicBitset& q : log.queries()) {
    if (q.IsSubsetOf(tuple) && static_cast<int>(q.Count()) <= m_eff) ++count;
  }
  return count;
}

TEST(PreprocessingCacheTest, MaxSatisfiableMatchesANaiveCount) {
  std::vector<QueryLog> logs;
  logs.push_back(QueryLog(AttributeSchema::Anonymous(5)));  // Empty log.
  logs.push_back(MakeLog());
  datagen::SyntheticWorkloadOptions wide;
  wide.num_queries = 300;  // Several words per tidset.
  wide.seed = 3;
  logs.push_back(datagen::MakeSyntheticWorkload(
      AttributeSchema::Anonymous(20), wide));
  // Adversarial shapes: empty and full-width queries, duplicates.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    logs.push_back(check::GenerateInstance(seed).log);
  }
  Rng rng(5);
  for (std::size_t l = 0; l < logs.size(); ++l) {
    const QueryLog& log = logs[l];
    const PreprocessingCache cache(log, /*mfi_capacity=*/1);
    const int width = log.num_attributes();
    for (int trial = 0; trial < 12; ++trial) {
      DynamicBitset tuple(static_cast<std::size_t>(width));
      if (trial == 1) tuple.SetAll();
      if (trial >= 2) {
        for (int a = 0; a < width; ++a) {
          tuple.Set(static_cast<std::size_t>(a),
                    rng.NextBernoulli(trial % 2 == 0 ? 0.5 : 0.9));
        }
      }
      // m = 0, every budget up to |t|, and budgets past it.
      for (int m = -1; m <= width + 2; ++m) {
        EXPECT_EQ(cache.MaxSatisfiable(tuple, m),
                  NaiveMaxSatisfiable(log, tuple, m))
            << "log " << l << ", tuple " << tuple.ToString() << ", m " << m;
      }
    }
  }
}

TEST(PreprocessingCacheTest, ConcurrentMaxSatisfiableReadersAgree) {
  const QueryLog log = MakeLog();
  DynamicBitset tuple(kAttrs);
  for (int a = 0; a < kAttrs; a += 2) tuple.Set(a);
  const int expected = NaiveMaxSatisfiable(log, tuple, 3);

  const PreprocessingCache cache(log, /*mfi_capacity=*/4);
  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < 16; ++i) {
        if (cache.MaxSatisfiable(tuple, 3) != expected) ++mismatches;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace soc::serve
