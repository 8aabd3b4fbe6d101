// ShardedService: consistent-hash routing to shards, admission
// validation (unknown tenant / missing tenant / wrong width), the result
// cache on the data path (cache_hit echo, single solve per key), epoch
// visibility across PublishEpoch (zero stale results, including with a
// publisher racing the submitters — the TSan target for the RCU path),
// per-tenant ledger counters and the merged `shard.<i>.*` gauge view.

#include "tenant/sharded_service.h"

#include <atomic>
#include <future>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "boolean/evaluator.h"
#include "boolean/query_log.h"
#include "boolean/schema.h"
#include "common/thread_pool.h"
#include "datagen/workload.h"

namespace soc::tenant {
namespace {

QueryLog MakeLog(int width, std::vector<std::vector<int>> queries) {
  QueryLog log(AttributeSchema::Anonymous(width));
  for (const auto& q : queries) log.AddQueryFromIndices(q);
  return log;
}

ShardedServiceOptions SmallOptions(int num_shards = 2) {
  ShardedServiceOptions options;
  options.num_shards = num_shards;
  options.shard.num_workers = 2;
  options.shard.max_queue = 0;  // Unbounded: these tests measure
                                // correctness, not shedding.
  return options;
}

serve::SolveRequest MakeRequest(const std::string& id,
                                const std::string& tenant,
                                const std::string& tuple_bits, int m) {
  serve::SolveRequest request;
  request.id = id;
  request.tenant_id = tenant;
  request.tuple = DynamicBitset::FromString(tuple_bits);
  request.m = m;
  request.solver = "ConsumeAttrCumul";
  return request;
}

TEST(ShardedServiceTest, RoutesEveryTenantToItsRingShard) {
  ShardedService service(SmallOptions(4));
  std::vector<std::future<serve::SolveResponse>> futures;
  for (int t = 0; t < 8; ++t) {
    const std::string tenant = "tenant" + std::to_string(t);
    ASSERT_TRUE(
        service.CreateTenant(tenant, MakeLog(6, {{0, 1}, {1, 2}, {0}})).ok());
    EXPECT_EQ(service.ShardOf(tenant), service.registry().ShardOf(tenant));
    futures.push_back(
        service.Submit(MakeRequest("r" + std::to_string(t), tenant, "011011", 2)));
  }
  service.Drain();
  for (int t = 0; t < 8; ++t) {
    const serve::SolveResponse response = futures[t].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.tenant_id, "tenant" + std::to_string(t));
    EXPECT_EQ(response.epoch, 1);
    EXPECT_FALSE(response.cache_hit);
  }
}

TEST(ShardedServiceTest, RejectsMissingAndUnknownTenants) {
  ShardedService service(SmallOptions());
  ASSERT_TRUE(service.CreateTenant("acme", MakeLog(4, {{0}, {1}})).ok());

  auto missing = service.Submit(MakeRequest("r1", "", "0110", 1));
  auto unknown = service.Submit(MakeRequest("r2", "ghost", "0110", 1));
  service.Drain();
  EXPECT_EQ(missing.get().status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(unknown.get().status.code(), StatusCode::kNotFound);
}

TEST(ShardedServiceTest, RejectsTupleWidthMismatchAtAdmission) {
  ShardedService service(SmallOptions());
  ASSERT_TRUE(service.CreateTenant("acme", MakeLog(6, {{0}, {1}})).ok());

  // Width is checked against the tenant's own catalog, not a global one.
  auto narrow = service.Submit(MakeRequest("r1", "acme", "01", 1));
  service.Drain();
  const serve::SolveResponse response = narrow.get();
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(response.tenant_id, "acme");
}

TEST(ShardedServiceTest, RepeatedRequestIsACacheHitWithTheSameAnswer) {
  ShardedService service(SmallOptions());
  ASSERT_TRUE(
      service.CreateTenant("acme", MakeLog(6, {{0, 1}, {1}, {2, 4}, {1, 4}}))
          .ok());

  auto first = service.Submit(MakeRequest("r1", "acme", "010110", 2));
  service.Drain();
  auto second = service.Submit(MakeRequest("r2", "acme", "010110", 2));
  service.Drain();

  const serve::SolveResponse cold = first.get();
  const serve::SolveResponse warm = second.get();
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.epoch, cold.epoch);
  EXPECT_EQ(warm.solver, cold.solver);
  EXPECT_EQ(warm.solution.selected.ToString(),
            cold.solution.selected.ToString());
  EXPECT_EQ(warm.solution.satisfied_queries, cold.solution.satisfied_queries);

  const serve::MetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(metrics.counters.at("result_cache.hits"), 1);
  EXPECT_EQ(metrics.counters.at("result_cache.misses"), 1);
}

TEST(ShardedServiceTest, PublishEpochIsVisibleToSubsequentRequests) {
  ShardedService service(SmallOptions());
  const QueryLog log_v1 = MakeLog(4, {{0}, {0}, {1}});
  const QueryLog log_v2 = MakeLog(4, {{3}, {3}, {3}, {2}});
  ASSERT_TRUE(service.CreateTenant("acme", MakeLog(4, {{0}, {0}, {1}})).ok());

  auto before = service.Submit(MakeRequest("r1", "acme", "1111", 1));
  service.Drain();
  auto epoch = service.PublishEpoch("acme", MakeLog(4, {{3}, {3}, {3}, {2}}));
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 2);
  auto after = service.Submit(MakeRequest("r2", "acme", "1111", 1));
  service.Drain();

  const serve::SolveResponse v1 = before.get();
  const serve::SolveResponse v2 = after.get();
  ASSERT_TRUE(v1.status.ok());
  ASSERT_TRUE(v2.status.ok());
  EXPECT_EQ(v1.epoch, 1);
  EXPECT_EQ(v2.epoch, 2);
  // The post-publish answer is optimal against the *new* catalog — the
  // v1 cache entry (same tenant/tuple/m) must not leak across epochs.
  EXPECT_FALSE(v2.cache_hit);
  EXPECT_EQ(v1.solution.satisfied_queries,
            CountSatisfiedQueries(log_v1, v1.solution.selected));
  EXPECT_EQ(v2.solution.satisfied_queries,
            CountSatisfiedQueries(log_v2, v2.solution.selected));
  EXPECT_EQ(v1.solution.selected.ToString(), "1000");
  EXPECT_EQ(v2.solution.selected.ToString(), "0001");
}

// The RCU/TSan target: submitters hammer one tenant while a publisher
// swaps epochs under them. Every response must carry an epoch at least
// as new as the one pinned at submit time, and its objective must
// recount exactly against the log of the epoch it claims — a stale
// cache replay or a torn snapshot read fails one of the two.
TEST(ShardedServiceTest, ConcurrentPublishesNeverYieldStaleResults) {
  ShardedService service(SmallOptions());
  // Epoch e's log: e queries, each {e % 4}; distinguishable objectives.
  const auto log_for_epoch = [](std::int64_t epoch) {
    std::vector<std::vector<int>> queries;
    for (std::int64_t q = 0; q <= epoch; ++q) {
      queries.push_back({static_cast<int>(epoch % 4)});
    }
    return MakeLog(4, queries);
  };
  ASSERT_TRUE(service.CreateTenant("acme", log_for_epoch(1)).ok());

  constexpr int kRequests = 200;
  constexpr int kPublishes = 8;
  std::vector<std::future<serve::SolveResponse>> futures(kRequests);
  std::vector<std::int64_t> pinned(kRequests, 0);
  std::atomic<std::int64_t> last_epoch{1};
  {
    ThreadPool drivers(3);
    for (int s = 0; s < 2; ++s) {
      drivers.Submit([s, &service, &futures, &pinned] {
        for (int i = s; i < kRequests; i += 2) {
          pinned[i] = service.registry().Acquire("acme")->epoch();
          futures[i] = service.Submit(MakeRequest(
              "r" + std::to_string(i), "acme",
              (i % 3 == 0) ? "1111" : (i % 3 == 1) ? "0111" : "1110", 1));
        }
      });
    }
    drivers.Submit([&service, &log_for_epoch, &last_epoch] {
      for (int p = 0; p < kPublishes; ++p) {
        const auto epoch =
            service.PublishEpoch("acme", log_for_epoch(2 + p));
        ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
        last_epoch.store(*epoch);
      }
    });
    drivers.Shutdown();
  }
  service.Drain();

  for (int i = 0; i < kRequests; ++i) {
    const serve::SolveResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_GE(response.epoch, pinned[i]) << "went back in time";
    ASSERT_LE(response.epoch, last_epoch.load());
    const QueryLog epoch_log = log_for_epoch(response.epoch);
    EXPECT_EQ(response.solution.satisfied_queries,
              CountSatisfiedQueries(epoch_log, response.solution.selected))
        << "objective does not match the epoch the response claims";
  }
  EXPECT_EQ(service.registry().epochs_published(), kPublishes);

  // A publish drops the superseded epoch's entries and keeps its late
  // solves out of the cache, so whether the storm above saw a hit depends
  // on the schedule. At the last epoch, a repeated request must hit (m = 2
  // makes a key the storm did not use).
  const std::int64_t last = last_epoch.load();
  const QueryLog last_log = log_for_epoch(last);
  for (const char* id : {"last-1", "last-2"}) {
    const serve::SolveResponse response =
        service.Submit(MakeRequest(id, "acme", "1111", 2)).get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.epoch, last) << id;
    EXPECT_EQ(response.cache_hit, std::string(id) == "last-2") << id;
    EXPECT_EQ(response.solution.satisfied_queries,
              CountSatisfiedQueries(last_log, response.solution.selected))
        << id;
  }
}

// The result cache serves an exact tier only proved-optimal answers. On
// the seed-17 catalog (300 queries over 14 attributes) ConsumeAttrCumul
// satisfies 30 queries for this key, and the optimum is 33.
TEST(ShardedServiceTest, ExactTierIsNeverServedAHeuristicsCachedAnswer) {
  datagen::SyntheticWorkloadOptions workload;
  workload.num_queries = 300;
  workload.seed = 17;
  ShardedService service(SmallOptions(1));
  ASSERT_TRUE(service
                  .CreateTenant("acme", datagen::MakeSyntheticWorkload(
                                            AttributeSchema::Anonymous(14),
                                            workload))
                  .ok());
  serve::SolveRequest greedy = MakeRequest("g1", "acme", "10001010110110", 5);
  const serve::SolveResponse heuristic = service.Submit(greedy).get();
  ASSERT_TRUE(heuristic.status.ok()) << heuristic.status.ToString();
  EXPECT_EQ(heuristic.solution.satisfied_queries, 30);
  EXPECT_FALSE(heuristic.solution.proved_optimal);

  serve::SolveRequest exact = greedy;
  exact.id = "b1";
  exact.solver = "BranchAndBound";
  const serve::SolveResponse solved = service.Submit(exact).get();
  ASSERT_TRUE(solved.status.ok()) << solved.status.ToString();
  EXPECT_FALSE(solved.cache_hit);
  EXPECT_EQ(solved.solver, "BranchAndBound");
  EXPECT_EQ(solved.solution.satisfied_queries, 33);
  EXPECT_TRUE(solved.solution.proved_optimal);

  // The proved-optimal answer replaced the entry and now serves both tiers.
  for (serve::SolveRequest* request : {&exact, &greedy}) {
    request->id += "-again";
    const serve::SolveResponse replay = service.Submit(*request).get();
    ASSERT_TRUE(replay.status.ok()) << request->id;
    EXPECT_TRUE(replay.cache_hit) << request->id;
    EXPECT_EQ(replay.solution.satisfied_queries, 33) << request->id;
    EXPECT_TRUE(replay.solution.proved_optimal) << request->id;
  }
}

double CacheEntries(const ShardedService& service) {
  return service.Metrics().gauges.at("result_cache.entries");
}

TEST(ShardedServiceTest, PublishDropsTheTenantsOlderEpochEntries) {
  ShardedService service(SmallOptions(1));
  const QueryLog log = MakeLog(6, {{0, 1}, {1, 2}, {0}, {3}});
  ASSERT_TRUE(service.CreateTenant("a", log).ok());
  ASSERT_TRUE(service.CreateTenant("b", log).ok());
  const std::vector<std::string> tuples = {"110000", "011000", "100100"};
  const auto solve_all = [&](const std::string& tenant, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const serve::SolveResponse response =
          service.Submit(MakeRequest(tenant + std::to_string(i), tenant,
                                     tuples[i], 2))
              .get();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    }
  };
  solve_all("a", 3);
  solve_all("b", 2);
  ASSERT_EQ(CacheEntries(service), 5.0);

  ASSERT_EQ(*service.PublishEpoch("a", log), 2);
  // Only b's entries are left: none of a's is from its live epoch yet.
  EXPECT_EQ(CacheEntries(service), 2.0);
  EXPECT_EQ(service.Metrics().counters.at("result_cache.epoch_drops"), 3);
  solve_all("a", 3);
  EXPECT_EQ(CacheEntries(service), 5.0);
}

TEST(ShardedServiceTest, SolvePinnedToADroppedEpochDoesNotReinsert) {
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  ShardedServiceOptions options = SmallOptions(1);
  options.shard.worker_hook = [&](const serve::WorkerHookContext& hook) {
    if (hook.request.id == "slow") {
      entered.set_value();
      released.wait();
    }
    return Status::OK();
  };
  ShardedService service(options);
  const QueryLog log = MakeLog(6, {{0, 1}, {1, 2}, {0}, {3}});
  ASSERT_TRUE(service.CreateTenant("a", log).ok());
  std::future<serve::SolveResponse> slow =
      service.Submit(MakeRequest("slow", "a", "110000", 2));
  entered.get_future().wait();  // Pinned to epoch 1, leading its flight.
  const StatusOr<std::int64_t> epoch = service.PublishEpoch("a", log);
  release.set_value();  // Before any assertion can leave the worker stuck.
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 2);
  const serve::SolveResponse response = slow.get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.epoch, 1);
  service.Drain();
  EXPECT_EQ(CacheEntries(service), 0.0);
}

TEST(ShardedServiceTest, MetricsMergeLedgersAndPerShardGauges) {
  ShardedService service(SmallOptions(3));
  ASSERT_TRUE(service.CreateTenant("acme", MakeLog(4, {{0}, {1}})).ok());
  ASSERT_TRUE(service.CreateTenant("globex", MakeLog(5, {{2}})).ok());

  std::vector<std::future<serve::SolveResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.Submit(
        MakeRequest("a" + std::to_string(i), "acme", "1100", 1)));
  }
  for (int i = 0; i < 3; ++i) {
    futures.push_back(service.Submit(
        MakeRequest("g" + std::to_string(i), "globex", "11100", 1)));
  }
  service.Drain();
  for (auto& future : futures) ASSERT_TRUE(future.get().status.ok());

  const serve::MetricsSnapshot metrics = service.Metrics();
  // Per-tenant ledgers: the per-tenant accepted counters partition the
  // service-wide accepted count.
  EXPECT_EQ(metrics.counters.at("tenant.acme.accepted"), 6);
  EXPECT_EQ(metrics.counters.at("tenant.globex.accepted"), 3);
  EXPECT_EQ(metrics.counters.at("accepted"), 9);
  EXPECT_EQ(metrics.counters.at("tenant.acme.completed"), 6);
  // Registry gauges plus one gauge set per shard.
  EXPECT_EQ(metrics.gauges.at("tenants"), 2);
  for (int shard = 0; shard < 3; ++shard) {
    const std::string prefix = "shard." + std::to_string(shard) + ".";
    EXPECT_TRUE(metrics.gauges.count(prefix + "queue_depth")) << prefix;
    EXPECT_TRUE(metrics.gauges.count(prefix + "result_cache.entries"))
        << prefix;
  }
}

}  // namespace
}  // namespace soc::tenant
