// Concurrency and admission-control tests for the serving layer. The
// load-shedding contract under test: a request the service rejects (for
// any reason) resolves with a non-OK typed Status and never carries a
// solution, and a request that runs out of deadline degrades — it never
// silently returns a full exact answer it did not compute.

#include "serve/visibility_service.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/workload.h"
#include "kernels/arena.h"
#include "obs/event_log.h"
#include "obs/slo.h"
#include "obs/trace_recorder.h"
#include "obs/wide_event.h"
#include "serve/batch_engine.h"

namespace soc::serve {
namespace {

QueryLog MakeLog(int num_attributes = 12, int num_queries = 120,
                 unsigned seed = 11) {
  const AttributeSchema schema = AttributeSchema::Anonymous(num_attributes);
  datagen::SyntheticWorkloadOptions wl;
  wl.num_queries = num_queries;
  wl.seed = seed;
  return datagen::MakeSyntheticWorkload(schema, wl);
}

DynamicBitset MakeTuple(int width, unsigned bits) {
  DynamicBitset tuple(width);
  for (int a = 0; a < width; ++a) {
    if (bits & (1u << a)) tuple.Set(a);
  }
  return tuple;
}

SolveRequest MakeRequest(const QueryLog& log, unsigned bits, int m,
                         const std::string& solver = "Fallback") {
  SolveRequest request;
  request.tuple = MakeTuple(log.num_attributes(), bits);
  request.m = m;
  request.solver = solver;
  return request;
}

TEST(VisibilityServiceTest, SolvesASingleRequest) {
  VisibilityService service(MakeLog());
  SolveRequest request = MakeRequest(service.log(), 0xEDBu, 3,
                                     "BranchAndBound");
  request.id = "one";
  SolveResponse response = service.Submit(std::move(request)).get();
  EXPECT_EQ(response.id, "one");
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.solution.proved_optimal);
  EXPECT_FALSE(response.degraded);
  EXPECT_EQ(static_cast<int>(response.solution.selected.Count()), 3);
}

TEST(VisibilityServiceTest, ValidationRejectionsAreTyped) {
  VisibilityService service(MakeLog());

  SolveRequest narrow;
  narrow.tuple = DynamicBitset(3);
  narrow.m = 1;
  EXPECT_EQ(service.Submit(std::move(narrow)).get().status.code(),
            StatusCode::kInvalidArgument);

  SolveRequest negative_m = MakeRequest(service.log(), 0x3u, 1);
  negative_m.m = -1;
  EXPECT_EQ(service.Submit(std::move(negative_m)).get().status.code(),
            StatusCode::kInvalidArgument);

  SolveRequest unknown = MakeRequest(service.log(), 0x3u, 1, "NoSuchSolver");
  EXPECT_EQ(service.Submit(std::move(unknown)).get().status.code(),
            StatusCode::kNotFound);

  EXPECT_EQ(service.Metrics().counters.at("rejected_invalid"), 3);
}

TEST(VisibilityServiceTest, TinyQueueShedsLoadWithOverloaded) {
  VisibilityServiceOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  VisibilityService service(MakeLog(), options);

  // Enough simultaneous exact solves that the single-slot queue must shed
  // some; every shed request must carry kOverloaded and no solution.
  std::vector<std::future<SolveResponse>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(service.Submit(
        MakeRequest(service.log(), 0xFFFu, 4, "BranchAndBound")));
  }
  int overloaded = 0;
  for (auto& future : futures) {
    SolveResponse response = future.get();
    if (!response.status.ok()) {
      EXPECT_EQ(response.status.code(), StatusCode::kOverloaded);
      EXPECT_EQ(response.solution.selected.Count(), 0u);
      ++overloaded;
    }
  }
  EXPECT_GT(overloaded, 0);
  EXPECT_EQ(service.Metrics().counters.at("rejected_queue_full"), overloaded);
}

TEST(VisibilityServiceTest, ExpiredDeadlineDegradesToFallbackByDefault) {
  VisibilityService service(MakeLog());
  SolveRequest request = MakeRequest(service.log(), 0xFFFu, 4, "BruteForce");
  request.deadline_ms = 1e-6;  // Expired before any worker can pick it up.
  SolveResponse response = service.Submit(std::move(request)).get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.solver, "Fallback");
  EXPECT_TRUE(response.degraded);
  EXPECT_FALSE(response.solution.proved_optimal);
  EXPECT_EQ(response.stop_reason, StopReason::kDeadline);
  // Degraded, but still a valid m-attribute selection.
  EXPECT_EQ(static_cast<int>(response.solution.selected.Count()), 4);
}

TEST(VisibilityServiceTest, RejectExpiredPolicyRefusesLateWork) {
  VisibilityServiceOptions options;
  options.reject_expired = true;
  // Predictive shedding would catch the doomed deadline at admission;
  // this test pins the at-pickup expiry rejection specifically.
  options.predictive_shedding = false;
  VisibilityService service(MakeLog(), options);
  SolveRequest request = MakeRequest(service.log(), 0xFFFu, 4, "BruteForce");
  request.deadline_ms = 1e-6;
  SolveResponse response = service.Submit(std::move(request)).get();
  EXPECT_EQ(response.status.code(), StatusCode::kOverloaded);
  EXPECT_EQ(response.solution.selected.Count(), 0u);
  EXPECT_EQ(service.Metrics().counters.at("rejected_expired"), 1);
}

TEST(VisibilityServiceTest, ZeroVisibilityTupleTakesTheFastPath) {
  // An empty tuple satisfies no query: the bitmap index answers without
  // dispatching a solver.
  VisibilityService service(MakeLog());
  SolveResponse response =
      service.Submit(MakeRequest(service.log(), 0u, 3, "BruteForce")).get();
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.fast_path);
  EXPECT_TRUE(response.solution.proved_optimal);
  EXPECT_EQ(response.solution.satisfied_queries, 0);
  EXPECT_EQ(service.Metrics().counters.at("fast_path_zero"), 1);
}

TEST(VisibilityServiceTest, SteadyStateServingCreatesNoArenaBlocks) {
  // The per-request fast-path bound (MaxSatisfiable) and the kernel-backed
  // solvers draw scratch from thread-local arenas. A warmup batch may grow
  // those arenas; after that, serving must not allocate new arena blocks —
  // this pins the removal of the per-request DynamicBitset copy from the
  // preprocessing cache. One worker keeps the thread set deterministic.
  VisibilityServiceOptions options;
  options.num_workers = 1;
  VisibilityService service(MakeLog(), options);

  const auto run_batch = [&service] {
    std::vector<std::future<SolveResponse>> futures;
    for (unsigned bits : {0xEDBu, 0x3Fu, 0xA5Au, 0xFFFu}) {
      futures.push_back(service.Submit(MakeRequest(service.log(), bits, 3)));
    }
    for (auto& future : futures) {
      ASSERT_TRUE(future.get().status.ok());
    }
  };

  run_batch();  // Warmup: builds bitmaps, grows scratch arenas once.
  const std::uint64_t blocks_after_warmup = kernels::Arena::TotalBlocksCreated();
  run_batch();
  run_batch();
  EXPECT_EQ(kernels::Arena::TotalBlocksCreated(), blocks_after_warmup);
}

TEST(VisibilityServiceTest, SharedMfiCacheHitsAcrossRequests) {
  VisibilityService service(MakeLog());
  // Same tuple solved repeatedly: the first request mines, the rest hit.
  std::vector<std::future<SolveResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.Submit(
        MakeRequest(service.log(), 0xABCu, 3, "MaxFreqItemSets")));
  }
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  const MetricsSnapshot metrics = service.Metrics();
  EXPECT_GT(metrics.counters.at("mfi_cache.hits"), 0);
  EXPECT_GT(metrics.counters.at("mfi_cache.misses"), 0);
}

TEST(VisibilityServiceTest, ConcurrencySmoke) {
  // Many producers, mixed deadlines and solvers, a bounded queue: every
  // future resolves, every non-OK response is typed and solution-free,
  // every OK response either completed cleanly or is marked degraded.
  VisibilityServiceOptions options;
  options.num_workers = 4;
  options.max_queue = 64;
  // Keep the cost model out of this test: predictive shedding would turn
  // the expired third into admission-time sheds, and the point here is
  // the late-pickup degrade contract.
  options.predictive_shedding = false;
  VisibilityService service(MakeLog(), options);

  constexpr int kProducers = 6;
  constexpr int kPerProducer = 40;
  std::vector<std::vector<std::future<SolveResponse>>> futures(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const char* solvers[] = {"Fallback", "BranchAndBound",
                               "MaxFreqItemSets", "ConsumeAttrCumul"};
      for (int i = 0; i < kPerProducer; ++i) {
        SolveRequest request = MakeRequest(
            service.log(), 0x100u + (p * kPerProducer + i) % 0xEFF,
            1 + i % 5, solvers[(p + i) % 4]);
        // Mix: no deadline / generous / already expired.
        if (i % 3 == 1) request.deadline_ms = 200;
        if (i % 3 == 2) request.deadline_ms = 1e-6;
        futures[p].push_back(service.Submit(std::move(request)));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();

  int ok = 0, rejected = 0, degraded = 0;
  for (auto& producer_futures : futures) {
    for (auto& future : producer_futures) {
      SolveResponse response = future.get();
      if (!response.status.ok()) {
        // A rejected request must never carry (any part of) a solution.
        EXPECT_TRUE(response.status.code() == StatusCode::kOverloaded ||
                    response.status.code() == StatusCode::kInvalidArgument)
            << response.status.ToString();
        EXPECT_EQ(response.solution.selected.Count(), 0u);
        EXPECT_EQ(response.solution.satisfied_queries, 0);
        EXPECT_FALSE(response.solution.proved_optimal);
        ++rejected;
        continue;
      }
      ++ok;
      if (response.degraded) {
        ++degraded;
        // Degraded results renounce optimality.
        EXPECT_FALSE(response.solution.proved_optimal);
        EXPECT_NE(response.stop_reason, StopReason::kNone);
      }
      EXPECT_LE(
          static_cast<int>(response.solution.selected.Count()),
          service.log().num_attributes());
    }
  }
  EXPECT_EQ(ok + rejected, kProducers * kPerProducer);
  EXPECT_GT(ok, 0);
  EXPECT_GT(degraded, 0);  // The expired third must not be silently exact.

  const MetricsSnapshot metrics = service.Metrics();
  const auto counter = [&metrics](const std::string& name) -> std::int64_t {
    const auto it = metrics.counters.find(name);
    return it == metrics.counters.end() ? 0 : it->second;
  };
  EXPECT_EQ(counter("submitted"), kProducers * kPerProducer);
  EXPECT_EQ(counter("completed") + counter("solve_errors"), ok);
  EXPECT_EQ(metrics.histograms.at("total").count, ok);
}

TEST(VisibilityServiceTest, PredictiveSheddingShedsDoomedRequests) {
  VisibilityServiceOptions options;
  options.num_workers = 1;
  options.max_queue = 0;  // Unbounded: only the cost model may shed.
  options.worker_hook = [](const WorkerHookContext&) {
    // Inflate every solve to ~2ms so the EWMA learns a real cost.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return Status::OK();
  };
  VisibilityService service(MakeLog(), options);

  // Warm the cost model past its blend window with observed samples.
  for (int i = 0; i < 10; ++i) {
    service.Submit(MakeRequest(service.log(), 0x2ABu, 2)).get();
  }

  // Burst far more work than a 15ms deadline can absorb on one worker:
  // the backlog prediction must shed most of it at admission instead of
  // letting it expire in the queue.
  std::vector<std::future<SolveResponse>> futures;
  for (int i = 0; i < 64; ++i) {
    SolveRequest request = MakeRequest(service.log(), 0x2ABu, 2);
    request.deadline_ms = 15;
    futures.push_back(service.Submit(std::move(request)));
  }
  int shed = 0;
  for (auto& future : futures) {
    SolveResponse response = future.get();
    if (response.status.ok()) continue;
    EXPECT_EQ(response.status.code(), StatusCode::kOverloaded);
    EXPECT_EQ(response.shed_reason, kShedReasonPredicted);
    EXPECT_GE(response.retry_after_ms, 1.0);  // Backlog-sized hint.
    EXPECT_EQ(response.solution.selected.Count(), 0u);
    ++shed;
  }
  EXPECT_GT(shed, 0);
  EXPECT_EQ(service.Metrics().counters.at("shed_predicted"), shed);
}

TEST(VisibilityServiceTest, BreakerTripsFaultyTierToFallback) {
  VisibilityServiceOptions options;
  options.num_workers = 1;
  options.breaker.failure_threshold = 2;
  options.breaker.open_ms = 60000;  // Stay open for the whole test.
  options.worker_hook = [](const WorkerHookContext& hook) {
    // The hook keys on the *effective* solver, so the Fallback reruns of
    // rerouted requests are healthy.
    if (hook.solver == "ILP") return InternalError("injected ILP fault");
    return Status::OK();
  };
  VisibilityService service(MakeLog(), options);

  for (int i = 0; i < 2; ++i) {
    SolveResponse response =
        service.Submit(MakeRequest(service.log(), 0x3CDu, 3, "ILP")).get();
    EXPECT_EQ(response.status.code(), StatusCode::kInternal);
    EXPECT_EQ(response.solution.selected.Count(), 0u);
  }
  // The threshold is reached: the breaker must now route ILP requests to
  // Fallback without touching the sick tier, and they succeed.
  SolveResponse rerouted =
      service.Submit(MakeRequest(service.log(), 0x3CDu, 3, "ILP")).get();
  ASSERT_TRUE(rerouted.status.ok()) << rerouted.status.ToString();
  EXPECT_EQ(rerouted.solver, "Fallback");

  const MetricsSnapshot metrics = service.Metrics();
  EXPECT_EQ(metrics.counters.at("breaker_rerouted"), 1);
  EXPECT_EQ(metrics.counters.at("breaker.ILP.trips"), 1);
  EXPECT_EQ(metrics.counters.at("solver.ILP.errors"), 2);
  EXPECT_EQ(metrics.counters.at("solve_errors"), 2);
  EXPECT_EQ(metrics.gauges.at("breaker.ILP.state"), 1.0);  // Open.
  EXPECT_EQ(metrics.gauges.at("breaker.Fallback.state"), 0.0);
}

TEST(VisibilityServiceTest, LadderLevelTwoRunsTheGreedyTier) {
  VisibilityServiceOptions options;
  options.num_workers = 1;
  // Every pickup climbs one level: the smoothed occupancy is the last
  // sample, at or above the high watermark and never down to the low one.
  options.ladder.ewma_alpha = 1;
  options.ladder.high_watermark = 0;
  options.ladder.low_watermark = -1;
  VisibilityService service(MakeLog(), options);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(service
                    .Submit(MakeRequest(service.log(), 0xEDBu, 3,
                                        "ConsumeAttrCumul"))
                    .get()
                    .status.ok());
  }
  ASSERT_EQ(service.Metrics().gauges.at("ladder.level"), 2.0);

  // A greedy request keeps its tier instead of becoming an exact search.
  const SolveResponse greedy =
      service.Submit(MakeRequest(service.log(), 0xEDBu, 3, "ConsumeAttrCumul"))
          .get();
  ASSERT_TRUE(greedy.status.ok()) << greedy.status.ToString();
  EXPECT_EQ(greedy.solver, "ConsumeAttrCumul");
  EXPECT_FALSE(greedy.ladder_downgraded);
  // Every other tier comes down to it.
  for (const char* solver : {"BranchAndBound", "Fallback", "MaxFreqItemSets"}) {
    const SolveResponse downgraded =
        service.Submit(MakeRequest(service.log(), 0xEDBu, 3, solver)).get();
    ASSERT_TRUE(downgraded.status.ok()) << solver;
    EXPECT_EQ(downgraded.solver, "ConsumeAttrCumul") << solver;
    EXPECT_TRUE(downgraded.ladder_downgraded) << solver;
  }
}

TEST(VisibilityServiceTest, WatchdogCancelsStuckWorker) {
  VisibilityServiceOptions options;
  options.num_workers = 1;
  options.watchdog.wall_multiple = 0.1;  // Deadline 50ms -> wall 5ms.
  options.watchdog.min_wall_ms = 5;
  options.watchdog.scan_interval_ms = 1;
  std::atomic<bool> observed_cancel{false};
  options.worker_hook = [&observed_cancel](const WorkerHookContext& hook) {
    // Wedge well past the wall budget, then report whether the watchdog
    // flipped this solve's cancel flag.
    for (int i = 0; i < 200; ++i) {
      if (hook.watchdog_flag != nullptr && hook.watchdog_flag->load()) {
        observed_cancel.store(true);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::OK();
  };
  VisibilityService service(MakeLog(), options);

  SolveRequest request = MakeRequest(service.log(), 0x5A5u, 3, "BruteForce");
  request.deadline_ms = 50;
  SolveResponse response = service.Submit(std::move(request)).get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(observed_cancel.load());
  // The flag reaches the solver through its SolveContext: the enumeration
  // notices at its next checkpoint and degrades with kCancelled.
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.stop_reason, StopReason::kCancelled);
  EXPECT_GE(service.Metrics().counters.at("watchdog_cancelled"), 1);
}

TEST(VisibilityServiceTest, DrainWaitsForAllAccepted) {
  VisibilityServiceOptions options;
  options.num_workers = 2;
  VisibilityService service(MakeLog(), options);
  std::vector<std::future<SolveResponse>> futures;
  for (int i = 0; i < 30; ++i) {
    futures.push_back(service.Submit(
        MakeRequest(service.log(), 0x7FFu, 3, "BranchAndBound")));
  }
  service.Drain();
  for (auto& future : futures) {
    // After Drain every future is immediately ready.
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(future.get().status.ok());
  }
}

TEST(VisibilityServiceTest, MetricsExposeLiveGaugesAndQuantiles) {
  VisibilityService service(MakeLog());
  BatchEngine engine(service);
  for (int i = 0; i < 12; ++i) {
    // MFI requests populate the shared preprocessing cache (gauges below).
    engine.Submit(MakeRequest(service.log(), 0xA5Du >> (i % 3), 2 + i % 3,
                              "MaxFreqItemSets"));
  }
  engine.Drain();

  // Drain resolves on promise delivery, which precedes the worker's final
  // bookkeeping by a hair — poll the point-in-time gauges to quiescence.
  MetricsSnapshot metrics = service.Metrics();
  while (metrics.gauges.at("inflight") > 0 ||
         metrics.gauges.at("busy_workers") > 0) {
    std::this_thread::yield();
    metrics = service.Metrics();
  }
  EXPECT_EQ(metrics.gauges.at("queue_depth"), 0.0);
  EXPECT_GE(metrics.gauges.at("mfi_cache.entries"), 1.0);
  EXPECT_GT(metrics.gauges.at("mfi_cache.approx_bytes"), 0.0);
  EXPECT_GE(metrics.gauges.at("pool.execute_ms_total"), 0.0);
  EXPECT_GE(metrics.gauges.at("pool.queue_wait_ms_total"), 0.0);

  // End-to-end latency quantiles are interpolated and ordered.
  const HistogramData& total = metrics.histograms.at("total");
  ASSERT_EQ(total.count, 12);
  EXPECT_LE(total.Quantile(0.50), total.Quantile(0.95));
  EXPECT_LE(total.Quantile(0.95), total.Quantile(0.99));
  EXPECT_LE(total.Quantile(0.99), total.max_ms);
}

TEST(VisibilityServiceTest, PerRequestSpansCoverTheRequestLifecycle) {
  obs::TraceRecorder recorder;
  recorder.set_enabled(true);
  VisibilityServiceOptions options;
  options.num_workers = 2;
  options.trace_recorder = &recorder;
  VisibilityService service(MakeLog(), options);
  BatchEngine engine(service);
  for (int i = 0; i < 8; ++i) {
    engine.Submit(MakeRequest(service.log(), 0x3B7u, 3, "MaxFreqItemSets"));
  }
  engine.Drain();

  // Every request's spans are recorded before its promise resolves, so
  // the trace is complete as soon as Drain returns.
  const std::string json = recorder.ToChromeTraceJson();
  for (const char* name :
       {"admission", "queue_wait", "request", "solve", "response"}) {
    const std::string needle = "\"name\":\"" + std::string(name) + "\"";
    int occurrences = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size())) {
      ++occurrences;
    }
    EXPECT_EQ(occurrences, 8) << name;
  }
  // Solver phases nest under "solve" (the MFI miner ran at least once).
  EXPECT_NE(json.find("\"name\":\"mining\""), std::string::npos);
  EXPECT_EQ(recorder.events_dropped(), 0);
}

TEST(BatchEngineTest, DrainPreservesSubmissionOrder) {
  VisibilityService service(MakeLog());
  BatchEngine engine(service);
  for (int i = 0; i < 20; ++i) {
    SolveRequest request = MakeRequest(service.log(), 0x155u << (i % 3),
                                       2 + i % 3);
    request.id = "r" + std::to_string(i);
    engine.Submit(std::move(request));
  }
  EXPECT_EQ(engine.pending(), 20u);
  const std::vector<SolveResponse> responses = engine.Drain();
  ASSERT_EQ(responses.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(responses[i].id, "r" + std::to_string(i));
  }
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(BatchEngineTest, RetriesRecoverShedRequests) {
  // A single-slot queue sheds most of a burst; Drain's retry rounds
  // resubmit against the by-then idle service, so every request lands.
  VisibilityServiceOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  options.predictive_shedding = false;
  options.worker_hook = [](const WorkerHookContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return Status::OK();
  };
  VisibilityService service(MakeLog(), options);

  RetryOptions retry;
  retry.max_retries = 3;
  retry.initial_backoff_ms = 1;
  retry.budget_ratio = 1.0;
  retry.initial_budget = 64;  // Burst allowance covers the whole batch.
  BatchEngine engine(service, retry);
  for (int i = 0; i < 32; ++i) {
    engine.Submit(MakeRequest(service.log(), 0x6F3u, 3));
  }
  const std::vector<SolveResponse> responses = engine.Drain();
  ASSERT_EQ(responses.size(), 32u);
  for (const SolveResponse& response : responses) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  const RetryStats& stats = engine.retry_stats();
  EXPECT_GT(stats.retries, 0);
  // Retries run one at a time against an idle service, so each recovers
  // on its first attempt.
  EXPECT_EQ(stats.recovered, stats.retries);
  EXPECT_EQ(stats.exhausted, 0);
  EXPECT_EQ(stats.budget_denied, 0);
}

TEST(BatchEngineTest, RetryBudgetBoundsAmplification) {
  VisibilityServiceOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  options.predictive_shedding = false;
  options.worker_hook = [](const WorkerHookContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return Status::OK();
  };
  VisibilityService service(MakeLog(), options);

  RetryOptions retry;
  retry.max_retries = 2;
  retry.initial_backoff_ms = 1;
  retry.budget_ratio = 0;   // No earning: the burst allowance is all.
  retry.initial_budget = 2;
  BatchEngine engine(service, retry);
  for (int i = 0; i < 32; ++i) {
    engine.Submit(MakeRequest(service.log(), 0x6F3u, 3));
  }
  const std::vector<SolveResponse> responses = engine.Drain();

  // Exactly the budget's worth of retries ran; the rest surfaced their
  // original kOverloaded instead of amplifying the storm.
  const RetryStats& stats = engine.retry_stats();
  EXPECT_LE(stats.retries, 2);
  EXPECT_GT(stats.budget_denied, 0);
  EXPECT_EQ(engine.retry_tokens(), 0.0);
  int overloaded = 0;
  for (const SolveResponse& response : responses) {
    if (!response.status.ok()) {
      EXPECT_EQ(response.status.code(), StatusCode::kOverloaded);
      ++overloaded;
    }
  }
  EXPECT_GT(overloaded, 0);
}

TEST(VisibilityServiceTest, EmitsOneWideEventPerOutcomeAndFeedsTheSlo) {
  obs::EventLog event_log;
  event_log.set_enabled(true);
  obs::SloEngine slo_engine;

  QueryLog log = MakeLog();
  VisibilityServiceOptions options;
  options.num_workers = 2;
  options.event_log = &event_log;
  options.slo_engine = &slo_engine;
  VisibilityService service(log, options);

  SolveRequest ok_request = MakeRequest(service.log(), 0xEDBu, 3);
  ok_request.id = "good";
  SolveResponse ok_response = service.Submit(std::move(ok_request)).get();
  ASSERT_TRUE(ok_response.status.ok());

  SolveRequest invalid_request = MakeRequest(service.log(), 0xEDBu, -4);
  invalid_request.id = "hostile";
  SolveResponse invalid_response =
      service.Submit(std::move(invalid_request)).get();
  ASSERT_FALSE(invalid_response.status.ok());
  service.Drain();

  // One event per submitted request, each re-encoding through the
  // strict schema parser.
  std::vector<obs::WideEvent> events;
  event_log.Drain(&events);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(event_log.events_dropped(), 0);
  for (const obs::WideEvent& event : events) {
    const std::string line = obs::WideEventToJsonLine(event);
    EXPECT_TRUE(obs::ParseWideEventLine(line).ok()) << line;
  }
  EXPECT_EQ(events[0].id, "good");
  EXPECT_EQ(events[0].outcome, "ok");
  EXPECT_GT(events[0].total_ms, 0);
  EXPECT_GT(events[0].satisfied, 0);
  EXPECT_EQ(events[1].id, "hostile");
  EXPECT_EQ(events[1].outcome, "invalid");
  EXPECT_EQ(events[1].m, -1);  // Negative budgets fold to the sentinel.

  // The SLO engine saw the good request under "default" (no tenant id)
  // and never saw the client error.
  const obs::SloReport report = slo_engine.Report();
  ASSERT_EQ(report.tenants.size(), 1u);
  EXPECT_EQ(report.tenants[0].first, "default");
  EXPECT_EQ(report.tenants[0].second.good, 1);
  EXPECT_EQ(report.tenants[0].second.bad, 0);
}

TEST(VisibilityServiceTest, DisabledEventLogCostsNothingAndRecordsNothing) {
  obs::EventLog event_log;  // Never enabled.
  QueryLog log = MakeLog();
  VisibilityServiceOptions options;
  options.event_log = &event_log;
  VisibilityService service(log, options);
  for (int i = 0; i < 4; ++i) {
    service.Submit(MakeRequest(service.log(), 0xEDBu, 3)).get();
  }
  service.Drain();
  EXPECT_EQ(event_log.events_recorded(), 0);
  EXPECT_EQ(event_log.events_dropped(), 0);
}

}  // namespace
}  // namespace soc::serve
