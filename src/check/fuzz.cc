#include "check/fuzz.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <future>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "boolean/evaluator.h"
#include "boolean/query_log.h"
#include "boolean/schema.h"
#include "check/instance.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/solver_registry.h"
#include "common/mutex.h"
#include "obs/event_log.h"
#include "obs/slo.h"
#include "obs/wide_event.h"
#include "serve/event_builder.h"
#include "serve/protocol.h"
#include "serve/visibility_service.h"
#include "tenant/sharded_service.h"

namespace soc::check {

namespace {

// Mutation dictionary: JSON/CSV structure characters plus tokens that have
// historically broken hand-rolled parsers (huge numbers, bare nulls,
// duplicated keys).
constexpr char kDictionaryChars[] = {'"', '{', '}', ':', ',',  '\\',
                                     '0', '1', '9', '-', '.',  'e',
                                     ' ', ';', '=', '\n', '\t', '\x7f'};
const char* const kDictionaryTokens[] = {
    "\"tuple\"", "\"m\"",  "\"solver\"", "\"deadline_ms\"",
    "\"id\"",    "1e309",  "-1",         "18446744073709551616",
    "null",      "[]",     "{}",         "\"\"",
    ",",         "tuple=", "m=",         "a0,a1",
    // Response-line vocabulary (overload guidance + status fields).
    "\"status\"",         "\"error\"",       "\"retry_after_ms\"",
    "\"shed_reason\"",    "\"stop_reason\"", "\"selected\"",
    "\"degraded\"",       "Overloaded",      "predicted_deadline_miss",
    "queue_full",         "deadline",        "true",
    // Multi-tenant vocabulary (routing + epoch/cache metadata).
    "\"tenant_id\"",      "\"epoch\"",       "\"cache_hit\"",
    "\"admin\"",          "publish_epoch",   "acme",
    // Wide-event vocabulary (schema v1 field names + outcome enums).
    "\"v\":1",            "\"ts_ms\"",       "\"outcome\"",
    "\"solver_req\"",     "\"total_ms\"",    "\"collapse_ratio\"",
    "\"satisfied\"",      "ok",              "shed",
    "invalid",            "error",           "deadline_expired",
};

std::string Mutate(std::string input, Rng& rng) {
  const int mutations = rng.NextInt(0, 3);
  for (int i = 0; i < mutations; ++i) {
    switch (rng.NextUint64(5)) {
      case 0:
        input.resize(rng.NextUint64(input.size() + 1));
        break;
      case 1:
        if (!input.empty()) input.erase(rng.NextUint64(input.size()), 1);
        break;
      case 2:
        if (!input.empty()) {
          input[rng.NextUint64(input.size())] =
              kDictionaryChars[rng.NextUint64(std::size(kDictionaryChars))];
        }
        break;
      case 3:
        input.insert(
            rng.NextUint64(input.size() + 1),
            kDictionaryTokens[rng.NextUint64(std::size(kDictionaryTokens))]);
        break;
      case 4: {
        if (input.empty()) break;
        const std::size_t start = rng.NextUint64(input.size());
        const std::size_t len =
            1 + rng.NextUint64(std::min<std::size_t>(16, input.size() - start));
        input.insert(start, input.substr(start, len));
        break;
      }
    }
  }
  return input;
}

// The fixed log every protocol input parses against (width 6, a few
// conjunctive queries — mirrors the paper's car example in shape).
const QueryLog& ProtocolLog() {
  static const QueryLog* const kLog = [] {
    auto* log = new QueryLog(AttributeSchema::Anonymous(6));
    log->AddQueryFromIndices({0, 1});
    log->AddQueryFromIndices({2});
    log->AddQueryFromIndices({1, 3, 5});
    log->AddQueryFromIndices({0, 1, 2, 3});
    return log;
  }();
  return *kLog;
}

std::string RandomBits(Rng& rng, int width) {
  std::string bits(static_cast<std::size_t>(width), '0');
  for (char& c : bits) {
    if (rng.NextBernoulli(0.6)) c = '1';
  }
  return bits;
}

std::string ValidRequestLine(Rng& rng, int width) {
  static const std::vector<std::string>* const kSolvers =
      new std::vector<std::string>(RegisteredSolverNames());
  std::string line = "{";
  if (rng.NextBernoulli(0.7)) {
    line += "\"id\":\"r" + std::to_string(rng.NextInt(0, 999)) + "\",";
  }
  line += "\"tuple\":\"" + RandomBits(rng, width) + "\"";
  line += ",\"m\":" + std::to_string(rng.NextInt(-1, width + 2));
  if (rng.NextBernoulli(0.5)) {
    line += ",\"solver\":\"" +
            (*kSolvers)[rng.NextUint64(kSolvers->size())] + "\"";
  }
  if (rng.NextBernoulli(0.4)) {
    line += ",\"deadline_ms\":" + std::to_string(rng.NextInt(-5, 100));
  }
  // tenant_id variants, weighted toward the legal shapes but explicitly
  // covering every rejection class: absent, empty, oversized, non-string.
  switch (rng.NextUint64(8)) {
    case 0:
    case 1:
    case 2:  // Absent: legal on the single-tenant service.
      break;
    case 3:
    case 4:
    case 5:  // Valid.
      line += ",\"tenant_id\":\"t" + std::to_string(rng.NextInt(0, 99)) + "\"";
      break;
    case 6:  // Empty or oversized: must be rejected.
      if (rng.NextBernoulli(0.5)) {
        line += ",\"tenant_id\":\"\"";
      } else {
        line += ",\"tenant_id\":\"" +
                std::string(static_cast<std::size_t>(
                                serve::kMaxTenantIdBytes + 1 +
                                rng.NextInt(0, 64)),
                            'x') +
                "\"";
      }
      break;
    case 7:  // Non-string: must be rejected.
      line += rng.NextBernoulli(0.5) ? ",\"tenant_id\":42"
                                     : ",\"tenant_id\":null";
      break;
  }
  line += "}";
  return line;
}

std::string ValidResponseLine(Rng& rng, int width) {
  static const std::vector<std::string>* const kSolvers =
      new std::vector<std::string>(RegisteredSolverNames());
  serve::SolveResponse response;
  response.id = "r" + std::to_string(rng.NextInt(0, 999));
  if (rng.NextBernoulli(0.4)) {
    response.tenant_id = "t" + std::to_string(rng.NextInt(0, 99));
    // Epoch/cache metadata rides with tenancy most of the time.
    if (rng.NextBernoulli(0.7)) response.epoch = rng.NextInt(1, 9);
  }
  if (rng.NextBernoulli(0.5)) {
    // OK line, sometimes degraded.
    response.cache_hit = rng.NextBernoulli(0.3);
    response.solver = (*kSolvers)[rng.NextUint64(kSolvers->size())];
    response.solution.selected =
        DynamicBitset::FromString(RandomBits(rng, width));
    response.solution.satisfied_queries = rng.NextInt(0, 50);
    response.solution.proved_optimal = rng.NextBernoulli(0.5);
    if (rng.NextBernoulli(0.3)) {
      response.degraded = true;
      constexpr StopReason kReasons[] = {
          StopReason::kDeadline, StopReason::kCancelled,
          StopReason::kTickBudget, StopReason::kResourceLimit};
      response.stop_reason = kReasons[rng.NextUint64(std::size(kReasons))];
    }
    response.fast_path = rng.NextBernoulli(0.2);
    response.queue_ms = rng.NextDouble() * 10;
    response.solve_ms = rng.NextDouble() * 10;
  } else {
    // Rejection line, usually an overload shed with guidance.
    if (rng.NextBernoulli(0.7)) {
      response.status = OverloadedError("chaos shed");
      constexpr const char* kReasons[] = {
          serve::kShedReasonQueueFull, serve::kShedReasonPredicted,
          serve::kShedReasonExpired, serve::kShedReasonShutdown};
      if (rng.NextBernoulli(0.8)) {
        response.shed_reason = kReasons[rng.NextUint64(std::size(kReasons))];
      }
      if (rng.NextBernoulli(0.7)) {
        response.retry_after_ms = rng.NextDouble() * 50;
      }
    } else {
      response.status = InvalidArgumentError("chaos invalid");
    }
  }
  return serve::ResponseToJson(response).ToString();
}

// Feeds one request line through the protocol decoder; accepted requests
// must carry a log-width tuple and survive a response-encode smoke.
StatusOr<bool> RunProtocolInput(const std::string& line) {
  const QueryLog& log = ProtocolLog();
  auto request = serve::ParseSolveRequestLine(line, log, /*line_number=*/1);
  if (!request.ok()) return false;
  if (static_cast<int>(request->tuple.size()) != log.num_attributes()) {
    return InternalError(
        "protocol accepted a tuple of width " +
        std::to_string(request->tuple.size()) + " against a width-" +
        std::to_string(log.num_attributes()) + " log: " + line);
  }
  // An accepted tenant_id is either absent or a well-formed name; empty
  // and oversized ids must have been rejected above.
  if (!request->tenant_id.empty() &&
      static_cast<int>(request->tenant_id.size()) >
          serve::kMaxTenantIdBytes) {
    return InternalError("protocol accepted an oversized tenant_id (" +
                         std::to_string(request->tenant_id.size()) +
                         " bytes): " + line);
  }
  serve::SolveResponse response;
  response.id = request->id;
  response.solver = request->solver;
  response.solution.selected = request->tuple;
  if (serve::ResponseToJson(response).ToString().empty()) {
    return InternalError("empty response encoding for accepted line: " + line);
  }
  return true;
}

// Response lines must reach a fixed point after one canonical encode:
// accepted line -> response -> JSON -> response -> identical JSON.
StatusOr<bool> RunResponseInput(const std::string& line) {
  auto response = serve::ParseSolveResponseLine(line);
  if (!response.ok()) return false;
  const std::string canonical = serve::ResponseToJson(*response).ToString();
  auto reparsed = serve::ParseSolveResponseLine(canonical);
  if (!reparsed.ok()) {
    return InternalError("accepted response did not reparse: " +
                         reparsed.status().ToString() + " in " + canonical);
  }
  if (serve::ResponseToJson(*reparsed).ToString() != canonical) {
    return InternalError("response round trip changed the encoding: " +
                         canonical);
  }
  return true;
}

StatusOr<bool> RunCsvInput(const std::string& text) {
  auto log = QueryLog::FromCsv(text);
  if (!log.ok()) return false;
  const std::string canonical = log->ToCsv();
  auto reparsed = QueryLog::FromCsv(canonical);
  if (!reparsed.ok()) {
    return InternalError("accepted CSV did not reparse: " +
                         reparsed.status().ToString());
  }
  if (reparsed->num_attributes() != log->num_attributes() ||
      reparsed->queries() != log->queries()) {
    return InternalError("CSV round trip changed the log (" +
                         std::to_string(log->size()) + " queries, " +
                         std::to_string(log->num_attributes()) + " attrs)");
  }
  return true;
}

StatusOr<bool> RunInstanceInput(const std::string& text) {
  auto instance = InstanceFromText(text);
  if (!instance.ok()) return false;
  const std::string canonical = InstanceToText(*instance);
  auto reparsed = InstanceFromText(canonical);
  if (!reparsed.ok()) {
    return InternalError("accepted instance did not reparse: " +
                         reparsed.status().ToString());
  }
  if (reparsed->tuple != instance->tuple || reparsed->m != instance->m ||
      reparsed->log.queries() != instance->log.queries()) {
    return InternalError("instance round trip changed the instance (" +
                         InstanceSummary(*instance) + ")");
  }
  return true;
}

// A schema-valid wide event rendered through the canonical encoder, so
// unmutated inputs are always accepted and mutations explore the
// parser's rejection surface from just outside the schema.
std::string ValidWideEventLine(Rng& rng) {
  obs::WideEvent event;
  event.ts_ms = rng.NextDouble() * 1e4;
  event.id = "e" + std::to_string(rng.NextInt(0, 999));
  if (rng.NextBernoulli(0.4)) {
    // Sharded-path routing fields ride together, as in production.
    event.tenant = "t" + std::to_string(rng.NextInt(0, 99));
    event.shard = rng.NextInt(0, 7);
    event.epoch = rng.NextInt(1, 9);
  }
  if (rng.NextBernoulli(0.5)) event.solver_req = "BranchAndBound";
  event.solver = "Fallback";
  event.m = rng.NextInt(0, 8);
  if (rng.NextBernoulli(0.5)) event.deadline_ms = rng.NextDouble() * 100;
  event.num_queries = rng.NextInt(0, 500);
  event.num_attributes = rng.NextInt(0, 32);
  event.collapse_ratio = rng.NextDouble();
  event.queue_ms = rng.NextDouble() * 10;
  event.solve_ms = rng.NextDouble() * 10;
  event.total_ms = event.queue_ms + event.solve_ms;
  if (rng.NextBernoulli(0.3)) event.predicted_ms = rng.NextDouble() * 10;
  event.outcome = obs::kWideEventOutcomes[rng.NextUint64(
      std::size(obs::kWideEventOutcomes))];
  if (event.outcome == "ok") {
    event.code = StatusCodeToString(StatusCode::kOk);
    event.satisfied = rng.NextInt(0, 50);
    if (rng.NextBernoulli(0.3)) {
      event.degraded = true;
      event.stop_reason = StopReasonToString(StopReason::kDeadline);
    }
    event.fast_path = rng.NextBernoulli(0.2);
    event.cache_hit = rng.NextBernoulli(0.3);
    event.breaker_rerouted = rng.NextBernoulli(0.1);
    event.ladder_downgraded = rng.NextBernoulli(0.1);
  } else if (event.outcome == "shed") {
    event.code = StatusCodeToString(StatusCode::kOverloaded);
    event.shed_reason = obs::kWideEventShedReasons[rng.NextUint64(
        std::size(obs::kWideEventShedReasons))];
    if (rng.NextBernoulli(0.7)) event.retry_after_ms = rng.NextDouble() * 50;
  } else if (event.outcome == "invalid") {
    event.code = StatusCodeToString(rng.NextBernoulli(0.5)
                                        ? StatusCode::kInvalidArgument
                                        : StatusCode::kNotFound);
  } else {
    event.code = StatusCodeToString(StatusCode::kInternal);
  }
  return obs::WideEventToJsonLine(event);
}

// Wide-event lines must reach a fixed point after one canonical encode,
// the same contract the response protocol obeys.
StatusOr<bool> RunEventInput(const std::string& line) {
  auto event = obs::ParseWideEventLine(line);
  if (!event.ok()) return false;
  const std::string canonical = obs::WideEventToJsonLine(*event);
  auto reparsed = obs::ParseWideEventLine(canonical);
  if (!reparsed.ok()) {
    return InternalError("accepted wide event did not reparse: " +
                         reparsed.status().ToString() + " in " + canonical);
  }
  if (obs::WideEventToJsonLine(*reparsed) != canonical) {
    return InternalError("wide event round trip changed the encoding: " +
                         canonical);
  }
  return true;
}

StatusOr<FuzzReport> RunMutationLoop(
    const FuzzOptions& options,
    const std::function<std::string(Rng&)>& generate,
    const std::function<StatusOr<bool>(const std::string&)>& run) {
  Rng rng(options.seed * 0xD1B54A32D192ED03ull + 0x8BB84B93962EACC9ull);
  FuzzReport report;
  for (int i = 0; i < options.iterations; ++i) {
    ++report.iterations;
    const std::string input = Mutate(generate(rng), rng);
    SOC_ASSIGN_OR_RETURN(const bool accepted, run(input));
    if (accepted) {
      ++report.accepted;
    } else {
      ++report.rejected;
    }
  }
  return report;
}

}  // namespace

StatusOr<FuzzReport> FuzzProtocol(const FuzzOptions& options) {
  const int width = ProtocolLog().num_attributes();
  return RunMutationLoop(
      options, [width](Rng& rng) { return ValidRequestLine(rng, width); },
      &RunProtocolInput);
}

StatusOr<FuzzReport> FuzzResponseProtocol(const FuzzOptions& options) {
  const int width = ProtocolLog().num_attributes();
  return RunMutationLoop(
      options, [width](Rng& rng) { return ValidResponseLine(rng, width); },
      &RunResponseInput);
}

StatusOr<FuzzReport> FuzzQueryLogCsv(const FuzzOptions& options) {
  GeneratorOptions small;
  small.max_attrs = 8;
  small.max_queries = 12;
  return RunMutationLoop(
      options,
      [&small](Rng& rng) {
        return GenerateInstance(rng.Next(), small).log.ToCsv();
      },
      &RunCsvInput);
}

StatusOr<FuzzReport> FuzzInstanceText(const FuzzOptions& options) {
  GeneratorOptions small;
  small.max_attrs = 8;
  small.max_queries = 12;
  return RunMutationLoop(
      options,
      [&small](Rng& rng) {
        return InstanceToText(GenerateInstance(rng.Next(), small));
      },
      &RunInstanceInput);
}

StatusOr<FuzzReport> FuzzWideEvent(const FuzzOptions& options) {
  return RunMutationLoop(options, &ValidWideEventLine, &RunEventInput);
}

Status FuzzServe(const ServeFuzzOptions& options) {
  const Instance base = GenerateInstance(options.seed);
  const int width = base.log.num_attributes();

  serve::VisibilityServiceOptions service_options;
  service_options.num_workers = options.num_workers;
  service_options.max_queue = options.max_queue;
  serve::VisibilityService service(base.log, service_options);

  // Plans are generated single-threaded (Rng is not thread-safe), then
  // submitted concurrently from a ThreadPool.
  Rng rng(options.seed * 0xBF58476D1CE4E5B9ull + 0x94D049BB133111EBull);
  const std::vector<std::string> solver_names = RegisteredSolverNames();
  std::vector<serve::SolveRequest> plans;
  plans.reserve(static_cast<std::size_t>(options.requests));
  for (int i = 0; i < options.requests; ++i) {
    serve::SolveRequest request;
    request.id = "f" + std::to_string(i);
    int tuple_width = width;
    if (rng.NextBernoulli(0.1)) {
      tuple_width = std::max(0, width + rng.NextInt(-2, 2));  // Often wrong.
    }
    request.tuple = DynamicBitset(static_cast<std::size_t>(tuple_width));
    for (int b = 0; b < tuple_width; ++b) {
      if (rng.NextBernoulli(0.6)) request.tuple.Set(static_cast<std::size_t>(b));
    }
    request.m = rng.NextInt(-1, width + 2);
    const double solver_roll = rng.NextDouble();
    if (solver_roll < 0.75) {
      request.solver = solver_names[rng.NextUint64(solver_names.size())];
    } else if (solver_roll < 0.85) {
      request.solver = "NoSuchSolver";
    }  // else: default Fallback.
    const double deadline_roll = rng.NextDouble();
    if (deadline_roll < 0.2) {
      request.deadline_ms = 0.01;  // Usually expired at worker pickup.
    } else if (deadline_roll < 0.5) {
      request.deadline_ms = rng.NextInt(5, 100);
    }  // else: no deadline.
    plans.push_back(std::move(request));
  }

  std::vector<std::future<serve::SolveResponse>> futures(plans.size());
  {
    ThreadPool submitters(options.submitter_threads);
    for (int t = 0; t < options.submitter_threads; ++t) {
      submitters.Submit([t, &options, &plans, &futures, &service] {
        for (std::size_t i = static_cast<std::size_t>(t); i < plans.size();
             i += static_cast<std::size_t>(options.submitter_threads)) {
          futures[i] = service.Submit(plans[i]);
        }
      });
    }
    submitters.Shutdown();  // Joins: every future slot is now populated.
  }
  service.Drain();

  std::int64_t ok_responses = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    if (!futures[i].valid()) {
      return InternalError("request " + plans[i].id + " produced no future");
    }
    const serve::SolveResponse response = futures[i].get();
    if (response.id != plans[i].id) {
      return InternalError("response id '" + response.id +
                           "' does not echo request id '" + plans[i].id + "'");
    }
    if (!response.status.ok()) continue;
    ++ok_responses;
    const SocSolution& solution = response.solution;
    const DynamicBitset& tuple = plans[i].tuple;
    const int m_eff =
        std::min(plans[i].m, static_cast<int>(tuple.Count()));
    if (solution.selected.size() != static_cast<std::size_t>(width) ||
        !solution.selected.IsSubsetOf(tuple) ||
        static_cast<int>(solution.selected.Count()) != m_eff) {
      return InternalError("request " + plans[i].id +
                           ": invalid selection in OK response");
    }
    const int recount = CountSatisfiedQueries(base.log, solution.selected);
    if (solution.satisfied_queries != recount) {
      return InternalError(
          "request " + plans[i].id + ": objective " +
          std::to_string(solution.satisfied_queries) +
          " != reference recount " + std::to_string(recount));
    }
  }

  // The metrics ledger must balance against the observed responses.
  const serve::MetricsSnapshot snapshot = service.Metrics();
  const auto counter = [&snapshot](const std::string& name) {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? std::int64_t{0} : it->second;
  };
  const std::int64_t submitted = counter("submitted");
  const std::int64_t accepted = counter("accepted");
  const std::int64_t rejected = counter("rejected_invalid") +
                                counter("rejected_queue_full") +
                                counter("shed_predicted");
  const std::int64_t settled = counter("completed") + counter("solve_errors") +
                               counter("rejected_expired") +
                               counter("rejected_shutdown");
  if (submitted != static_cast<std::int64_t>(plans.size())) {
    return InternalError("submitted counter " + std::to_string(submitted) +
                         " != requests " + std::to_string(plans.size()));
  }
  if (accepted + rejected != submitted) {
    return InternalError("admission ledger does not balance: accepted " +
                         std::to_string(accepted) + " + rejected " +
                         std::to_string(rejected) + " != submitted " +
                         std::to_string(submitted));
  }
  if (settled != accepted) {
    return InternalError("completion ledger does not balance: settled " +
                         std::to_string(settled) + " != accepted " +
                         std::to_string(accepted));
  }
  if (counter("degraded") > counter("completed")) {
    return InternalError("degraded exceeds completed");
  }
  if (ok_responses != counter("completed")) {
    return InternalError("OK responses " + std::to_string(ok_responses) +
                         " != completed counter " +
                         std::to_string(counter("completed")));
  }
  return Status::OK();
}

Status FuzzServeChaos(const ChaosServeOptions& options) {
  const Instance base = GenerateInstance(options.seed);
  const int width = base.log.num_attributes();

  // Deterministic per-request injection decisions: a SplitMix64-style
  // finalizer keyed on (seed, request ordinal, decision), so concurrent
  // workers never share RNG state and a seed reproduces its storm.
  const auto chaos_roll = [seed = options.seed](std::uint64_t ordinal,
                                                std::uint64_t decision) {
    std::uint64_t z = seed + ordinal * 0x9E3779B97F4A7C15ull +
                      decision * 0xD1B54A32D192ED03ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) / 9007199254740992.0;  // [0,1)
  };

  serve::VisibilityServiceOptions service_options;
  service_options.num_workers = options.num_workers;
  service_options.max_queue = options.max_queue;
  // The ladder would reroute the faulty exact tier to Fallback under
  // pressure before its breaker sees enough consecutive faults; disable
  // it so the breaker audit below is deterministic. (The ladder has its
  // own deterministic unit tests.)
  service_options.ladder.max_level = 0;
  // Let the watchdog see deadline-less solves, so hard stalls on them
  // get cancelled rather than wedging a worker for the whole storm.
  service_options.watchdog.default_wall_ms = 30;
  service_options.watchdog.min_wall_ms = 10;
  service_options.worker_hook =
      [&options, &chaos_roll](const serve::WorkerHookContext& hook)
      -> Status {
    // Ids are "c<ordinal>"; see the plan loop below.
    const std::uint64_t ordinal =
        std::strtoull(hook.request.id.c_str() + 1, nullptr, 10);
    if (!options.faulty_solver.empty() &&
        hook.solver == options.faulty_solver) {
      return InternalError("chaos: injected fault in " + hook.solver);
    }
    if (chaos_roll(ordinal, 1) < options.fault_rate) {
      return InternalError("chaos: injected fault");
    }
    if (chaos_roll(ordinal, 2) < options.stall_rate) {
      // Hard stall: no checkpoints while asleep — exactly the wedge the
      // watchdog exists for.
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(options.stall_ms));
    } else if (chaos_roll(ordinal, 3) < options.slow_rate) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(options.slow_ms));
    }
    return Status::OK();
  };
  serve::VisibilityService service(base.log, service_options);

  Rng rng(options.seed * 0xA0761D6478BD642Full + 0xE7037ED1A0B428DBull);
  const std::vector<std::string> solver_names = RegisteredSolverNames();
  std::vector<serve::SolveRequest> plans;
  plans.reserve(static_cast<std::size_t>(options.requests));
  for (int i = 0; i < options.requests; ++i) {
    serve::SolveRequest request;
    request.id = "c" + std::to_string(i);
    int tuple_width = width;
    if (rng.NextBernoulli(0.05)) {
      tuple_width = std::max(0, width + rng.NextInt(-2, 2));  // Often wrong.
    }
    request.tuple = DynamicBitset(static_cast<std::size_t>(tuple_width));
    for (int b = 0; b < tuple_width; ++b) {
      if (rng.NextBernoulli(0.6)) {
        request.tuple.Set(static_cast<std::size_t>(b));
      }
    }
    request.m = rng.NextInt(-1, width + 2);
    const double solver_roll = rng.NextDouble();
    if (!options.faulty_solver.empty() && solver_roll < 0.2) {
      // Deadline-less on purpose: never shed at admission, so the faulty
      // tier reliably accumulates the consecutive faults that trip it.
      request.solver = options.faulty_solver;
      plans.push_back(std::move(request));
      continue;
    }
    if (solver_roll < 0.8) {
      request.solver = solver_names[rng.NextUint64(solver_names.size())];
    } else if (solver_roll < 0.85) {
      request.solver = "NoSuchSolver";
    }  // else: default Fallback.
    const double deadline_roll = rng.NextDouble();
    if (deadline_roll < 0.25) {
      request.deadline_ms = 0.01;  // Expired or predictively shed.
    } else if (deadline_roll < 0.6) {
      request.deadline_ms = rng.NextInt(5, 100);
    }  // else: no deadline.
    plans.push_back(std::move(request));
  }

  std::vector<std::future<serve::SolveResponse>> futures(plans.size());
  {
    ThreadPool submitters(options.submitter_threads);
    for (int t = 0; t < options.submitter_threads; ++t) {
      submitters.Submit([t, &options, &plans, &futures, &service] {
        int in_burst = 0;
        for (std::size_t i = static_cast<std::size_t>(t); i < plans.size();
             i += static_cast<std::size_t>(options.submitter_threads)) {
          futures[i] = service.Submit(plans[i]);
          if (options.burst_size > 0 && ++in_burst >= options.burst_size) {
            // Burst arrivals: a breather between bursts, so the queue
            // sees swells and drains rather than one smooth ramp.
            in_burst = 0;
            std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
                options.burst_pause_ms));
          }
        }
      });
    }
    submitters.Shutdown();  // Joins: every future slot is now populated.
  }
  service.Drain();

  std::int64_t ok_responses = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    if (!futures[i].valid()) {
      return InternalError("request " + plans[i].id + " produced no future");
    }
    const serve::SolveResponse response = futures[i].get();
    if (response.id != plans[i].id) {
      return InternalError("response id '" + response.id +
                           "' does not echo request id '" + plans[i].id + "'");
    }
    if (response.status.code() == StatusCode::kOverloaded) {
      // Every shed must say why, per the protocol's guidance contract.
      if (response.shed_reason.empty()) {
        return InternalError("request " + plans[i].id +
                             ": overloaded response without shed_reason");
      }
      if (response.retry_after_ms < 0) {
        return InternalError("request " + plans[i].id +
                             ": negative retry_after_ms");
      }
    }
    if (!response.status.ok()) continue;
    ++ok_responses;
    const SocSolution& solution = response.solution;
    const DynamicBitset& tuple = plans[i].tuple;
    const int m_eff = std::min(plans[i].m, static_cast<int>(tuple.Count()));
    if (solution.selected.size() != static_cast<std::size_t>(width) ||
        !solution.selected.IsSubsetOf(tuple) ||
        static_cast<int>(solution.selected.Count()) != m_eff) {
      return InternalError("request " + plans[i].id +
                           ": invalid selection in OK response");
    }
    const int recount = CountSatisfiedQueries(base.log, solution.selected);
    if (solution.satisfied_queries != recount) {
      return InternalError(
          "request " + plans[i].id + ": objective " +
          std::to_string(solution.satisfied_queries) +
          " != reference recount " + std::to_string(recount));
    }
  }

  // The chaos ledger: every request accounted for, exactly once.
  const serve::MetricsSnapshot snapshot = service.Metrics();
  const auto counter = [&snapshot](const std::string& name) {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? std::int64_t{0} : it->second;
  };
  const std::int64_t submitted = counter("submitted");
  const std::int64_t accepted = counter("accepted");
  const std::int64_t rejected = counter("rejected_invalid") +
                                counter("rejected_queue_full") +
                                counter("shed_predicted");
  const std::int64_t settled = counter("completed") + counter("solve_errors") +
                               counter("rejected_expired") +
                               counter("rejected_shutdown");
  if (submitted != static_cast<std::int64_t>(plans.size())) {
    return InternalError("submitted counter " + std::to_string(submitted) +
                         " != requests " + std::to_string(plans.size()));
  }
  if (accepted + rejected != submitted) {
    return InternalError("admission ledger does not balance: accepted " +
                         std::to_string(accepted) + " + rejected " +
                         std::to_string(rejected) + " != submitted " +
                         std::to_string(submitted));
  }
  if (settled != accepted) {
    return InternalError("completion ledger does not balance: settled " +
                         std::to_string(settled) + " != accepted " +
                         std::to_string(accepted));
  }
  if (ok_responses != counter("completed")) {
    return InternalError("OK responses " + std::to_string(ok_responses) +
                         " != completed counter " +
                         std::to_string(counter("completed")));
  }
  if (!options.faulty_solver.empty() && options.fault_rate < 1.0) {
    // Every pickup of the always-faulting tier faults, and post-trip
    // reroutes run (and record) as Fallback, so its failure run is never
    // broken: once it has executed threshold-many times the breaker must
    // have tripped. Under a tiny admission queue its requests may be
    // rejected before pickup — then there is nothing to audit.
    const std::int64_t faulty_errors =
        counter("solver." + options.faulty_solver + ".errors");
    if (faulty_errors >= service_options.breaker.failure_threshold &&
        counter("breaker." + options.faulty_solver + ".trips") < 1) {
      return InternalError("faulty solver '" + options.faulty_solver +
                           "' never tripped its breaker (errors: " +
                           std::to_string(counter(
                               "solver." + options.faulty_solver + ".errors")) +
                           ")");
    }
  }
  return Status::OK();
}

Status FuzzMultiTenantChaos(const MultiTenantChaosOptions& options) {
  Rng rng(options.seed * 0x2545F4914F6CDD1Dull + 0x9E3779B97F4A7C15ull);
  const int num_tenants = std::max(1, options.num_tenants);

  // Per-tenant initial catalogs (distinct shapes via distinct seeds) and
  // a small tuple pool per tenant: repeated tuples are what make the
  // result cache engage under the storm.
  std::vector<std::string> tenant_ids;
  std::vector<QueryLog> initial_logs;
  std::vector<std::vector<DynamicBitset>> tuple_pools;
  for (int t = 0; t < num_tenants; ++t) {
    tenant_ids.push_back("t" + std::to_string(t));
    initial_logs.push_back(
        GenerateInstance(options.seed + static_cast<std::uint64_t>(t) * 7919)
            .log);
    const int width = initial_logs.back().num_attributes();
    std::vector<DynamicBitset> pool;
    for (int p = 0; p < 8; ++p) {
      DynamicBitset tuple(static_cast<std::size_t>(width));
      for (int b = 0; b < width; ++b) {
        if (rng.NextBernoulli(0.6)) tuple.Set(static_cast<std::size_t>(b));
      }
      pool.push_back(std::move(tuple));
    }
    tuple_pools.push_back(std::move(pool));
  }

  // A published epoch keeps the tenant's width (so cached/queued traffic
  // stays type-compatible) but changes the query multiset — which is
  // exactly what makes a stale cached objective detectable.
  const auto mutate_log = [](const QueryLog& base, Rng& mutate_rng) {
    QueryLog next(base.schema());
    for (const DynamicBitset& query : base.queries()) {
      if (mutate_rng.NextBernoulli(0.2)) continue;  // Drop.
      DynamicBitset mutated = query;
      if (mutate_rng.NextBernoulli(0.4) && mutated.size() > 0) {
        const std::size_t bit = mutate_rng.NextUint64(mutated.size());
        if (mutated.Test(bit)) {
          mutated.Reset(bit);
        } else {
          mutated.Set(bit);
        }
      }
      next.AddQuery(std::move(mutated));
    }
    if (next.empty()) next.AddQuery(DynamicBitset(base.queries()[0].size()));
    return next;
  };

  tenant::ShardedServiceOptions service_options;
  service_options.num_shards = options.num_shards;
  service_options.shard.num_workers = options.num_workers;
  service_options.shard.max_queue = options.max_queue;
  service_options.shard.result_cache_capacity = options.result_cache_capacity;
  // Same rationale as FuzzServeChaos: keep tier selection deterministic
  // for the audit.
  service_options.shard.ladder.max_level = 0;
  const auto chaos_roll = [seed = options.seed](std::uint64_t ordinal,
                                                std::uint64_t decision) {
    std::uint64_t z = seed + ordinal * 0x9E3779B97F4A7C15ull +
                      decision * 0xD1B54A32D192ED03ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) / 9007199254740992.0;  // [0,1)
  };
  service_options.shard.worker_hook =
      [&options, &chaos_roll](const serve::WorkerHookContext& hook)
      -> Status {
    // Storm ids are "mt<ordinal>"; the post-storm determinism probes use
    // a different prefix and must run injection-free.
    if (hook.request.id.rfind("mt", 0) != 0) return Status::OK();
    const std::uint64_t ordinal =
        std::strtoull(hook.request.id.c_str() + 2, nullptr, 10);
    if (chaos_roll(ordinal, 1) < options.fault_rate) {
      return InternalError("chaos: injected fault");
    }
    if (chaos_roll(ordinal, 2) < options.slow_rate) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(options.slow_ms));
    }
    return Status::OK();
  };
  // Observability v2 rides the storm: every request becomes a wide
  // event (drained and re-parsed afterwards) and an SLO outcome. Hot
  // (even-index) tenants get a latency threshold of 0 ms so every
  // served request burns their budget and they must alert; cold tenants
  // keep the default objective, whose 0.5 availability target caps
  // burn at bad_fraction / 0.5 <= 2.0 — never strictly above the 2.0
  // fast threshold — so they must not alert no matter what the chaos
  // injection does to them.
  obs::EventLog event_log;
  event_log.set_enabled(true);
  obs::SloEngineOptions slo_options;
  slo_options.default_objective.latency_threshold_ms = 1e9;
  slo_options.default_objective.availability_target = 0.5;
  // Storm-length windows (the storm runs in far under an hour), so the
  // windowed totals the burn rates see equal the cumulative ledgers the
  // audit recomputes.
  slo_options.fast_window_s = 3600;
  slo_options.slow_window_s = 3600;
  slo_options.fast_burn_threshold = 2.0;
  slo_options.slow_burn_threshold = 1.0;
  obs::SloEngine slo_engine(slo_options);
  obs::SloObjective hot_objective;
  hot_objective.latency_threshold_ms = 0;
  hot_objective.availability_target = 0.9;
  std::map<std::string, double> latency_threshold_ms;
  for (int t = 0; t < num_tenants; ++t) {
    if (t % 2 == 0) {
      slo_engine.SetObjective(tenant_ids[static_cast<std::size_t>(t)],
                              hot_objective);
    }
    latency_threshold_ms[tenant_ids[static_cast<std::size_t>(t)]] =
        t % 2 == 0 ? hot_objective.latency_threshold_ms
                   : slo_options.default_objective.latency_threshold_ms;
  }
  service_options.shard.event_log = &event_log;
  service_options.shard.slo_engine = &slo_engine;

  tenant::ShardedService service(service_options);
  for (int t = 0; t < num_tenants; ++t) {
    SOC_RETURN_IF_ERROR(service.CreateTenant(tenant_ids[t], initial_logs[t]));
  }

  // logs_by_epoch[t][e-1] = the query log of tenant t's epoch e, keyed by
  // the epoch PublishEpoch actually returned (publish events for one
  // tenant can execute out of plan order across submitter threads).
  // Filled under logs_mutex as publishes land; epoch 1 is the initial
  // catalog.
  std::vector<std::vector<QueryLog>> logs_by_epoch(
      static_cast<std::size_t>(num_tenants));
  for (int t = 0; t < num_tenants; ++t) {
    logs_by_epoch[static_cast<std::size_t>(t)].push_back(initial_logs[t]);
  }
  Mutex logs_mutex;
  std::atomic<std::int64_t> successful_publishes{0};

  // The request plan. publish_tenant >= 0 marks a plan slot whose
  // submitter publishes a new epoch for that tenant before submitting.
  struct Plan {
    serve::SolveRequest request;
    int tenant = -1;  // -1: unknown-tenant probe.
    int publish_tenant = -1;
    QueryLog publish_log;
  };
  std::vector<Plan> plans;
  plans.reserve(static_cast<std::size_t>(options.requests));
  // Chain mutations per tenant so consecutive planned epochs keep
  // drifting apart.
  std::vector<QueryLog> planned_latest = initial_logs;
  int publish_rotation = 0;
  for (int i = 0; i < options.requests; ++i) {
    Plan plan;
    if (options.publish_every > 0 && i > 0 && i % options.publish_every == 0) {
      plan.publish_tenant = publish_rotation++ % num_tenants;
      QueryLog& latest =
          planned_latest[static_cast<std::size_t>(plan.publish_tenant)];
      plan.publish_log = mutate_log(latest, rng);
      latest = plan.publish_log;
    }
    serve::SolveRequest& request = plan.request;
    request.id = "mt" + std::to_string(i);
    plan.tenant = static_cast<int>(rng.NextUint64(
        static_cast<std::uint64_t>(num_tenants)));
    request.tenant_id = tenant_ids[static_cast<std::size_t>(plan.tenant)];
    const double hostile_roll = rng.NextDouble();
    if (hostile_roll < 0.04) {
      request.tenant_id = "ghost";  // Unknown tenant: rejected_invalid.
      plan.tenant = -1;
    }
    const int width =
        plan.tenant >= 0
            ? initial_logs[static_cast<std::size_t>(plan.tenant)]
                  .num_attributes()
            : 6;
    if (hostile_roll >= 0.04 && hostile_roll < 0.08) {
      // Wrong width: rejected_invalid against any epoch (widths are
      // stable across publishes).
      request.tuple = DynamicBitset(static_cast<std::size_t>(width + 1));
    } else if (plan.tenant >= 0 && rng.NextBernoulli(0.8)) {
      // Pool tuple: the repeat traffic that drives cache hits.
      const auto& pool = tuple_pools[static_cast<std::size_t>(plan.tenant)];
      request.tuple = pool[rng.NextUint64(pool.size())];
    } else {
      DynamicBitset tuple(static_cast<std::size_t>(width));
      for (int b = 0; b < width; ++b) {
        if (rng.NextBernoulli(0.6)) tuple.Set(static_cast<std::size_t>(b));
      }
      request.tuple = std::move(tuple);
    }
    request.m = rng.NextBernoulli(0.05) ? -1 : rng.NextInt(0, 4);
    const double solver_roll = rng.NextDouble();
    if (solver_roll < 0.15) {
      request.solver = "ConsumeAttr";
    } else if (solver_roll < 0.2) {
      request.solver = "NoSuchSolver";
    }  // else: default Fallback (fast, so the storm stays bounded).
    const double deadline_roll = rng.NextDouble();
    if (deadline_roll < 0.15) {
      request.deadline_ms = 0.01;  // Expired or predictively shed.
    } else if (deadline_roll < 0.5) {
      request.deadline_ms = rng.NextInt(5, 100);
    }  // else: no deadline.
    plans.push_back(std::move(plan));
  }

  // epoch_at_submit[i]: the tenant's published epoch observed by the
  // submitter immediately before Submit. Epochs only grow, so the
  // snapshot the request pins must be at least this — the zero-staleness
  // half of the RCU contract.
  std::vector<std::int64_t> epoch_at_submit(plans.size(), 0);
  std::vector<std::future<serve::SolveResponse>> futures(plans.size());
  std::vector<Status> publish_failures(plans.size(), Status::OK());
  {
    ThreadPool submitters(options.submitter_threads);
    for (int t = 0; t < options.submitter_threads; ++t) {
      submitters.Submit([t, &options, &plans, &futures, &service,
                         &epoch_at_submit, &publish_failures, &logs_mutex,
                         &logs_by_epoch, &tenant_ids,
                         &successful_publishes] {
        for (std::size_t i = static_cast<std::size_t>(t); i < plans.size();
             i += static_cast<std::size_t>(options.submitter_threads)) {
          Plan& plan = plans[i];
          if (plan.publish_tenant >= 0) {
            const std::string& id =
                tenant_ids[static_cast<std::size_t>(plan.publish_tenant)];
            auto epoch = service.PublishEpoch(id, plan.publish_log);
            if (epoch.ok()) {
              successful_publishes.fetch_add(1, std::memory_order_relaxed);
              MutexLock lock(logs_mutex);
              auto& epochs =
                  logs_by_epoch[static_cast<std::size_t>(plan.publish_tenant)];
              if (epochs.size() < static_cast<std::size_t>(*epoch)) {
                epochs.resize(static_cast<std::size_t>(*epoch));
              }
              epochs[static_cast<std::size_t>(*epoch - 1)] = plan.publish_log;
            } else if (epoch.status().code() !=
                       StatusCode::kFailedPrecondition) {
              // A lost concurrent-publish race is legal; anything else
              // is a harness bug surfaced after the storm.
              publish_failures[i] = epoch.status();
            }
          }
          if (plan.tenant >= 0) {
            const tenant::SnapshotPtr snapshot =
                service.registry().Acquire(plan.request.tenant_id);
            epoch_at_submit[i] = snapshot != nullptr ? snapshot->epoch() : 0;
          }
          futures[i] = service.Submit(plan.request);
        }
      });
    }
    submitters.Shutdown();
  }
  service.Drain();
  for (const Status& status : publish_failures) {
    if (!status.ok()) {
      return InternalError("mid-storm PublishEpoch failed: " +
                           status.ToString());
    }
  }

  std::int64_t ok_responses = 0;
  std::int64_t cache_hit_responses = 0;
  // Tenant -> (good, bad): the SLO outcomes the responses imply, built
  // with the shard's own classification (serve/event_builder.h) so the
  // engine's ledgers can be audited exactly.
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> expected_slo;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Plan& plan = plans[i];
    if (!futures[i].valid()) {
      return InternalError("request " + plan.request.id +
                           " produced no future");
    }
    const serve::SolveResponse response = futures[i].get();
    if (response.id != plan.request.id) {
      return InternalError("response id '" + response.id +
                           "' does not echo request id '" + plan.request.id +
                           "'");
    }
    if (response.status.code() == StatusCode::kOverloaded &&
        response.shed_reason.empty()) {
      return InternalError("request " + plan.request.id +
                           ": overloaded response without shed_reason");
    }
    if (serve::CountsTowardSlo(response.status)) {
      const std::string& tenant = response.tenant_id.empty()
                                      ? plan.request.tenant_id
                                      : response.tenant_id;
      const auto threshold_it = latency_threshold_ms.find(tenant);
      const double threshold =
          threshold_it == latency_threshold_ms.end()
              ? slo_options.default_objective.latency_threshold_ms
              : threshold_it->second;
      const double latency = response.queue_ms + response.solve_ms;
      auto& [good, bad] = expected_slo[tenant.empty() ? "default" : tenant];
      (response.status.ok() && std::isfinite(latency) &&
               latency <= threshold
           ? good
           : bad) += 1;
    }
    if (!response.status.ok()) continue;
    ++ok_responses;
    if (response.cache_hit) ++cache_hit_responses;
    if (plan.tenant < 0) {
      return InternalError("request " + plan.request.id +
                           ": OK response for an unknown tenant");
    }
    if (response.tenant_id != plan.request.tenant_id) {
      return InternalError("request " + plan.request.id +
                           ": response tenant '" + response.tenant_id +
                           "' does not echo '" + plan.request.tenant_id + "'");
    }
    // Zero staleness, part 1: the answering epoch is never older than
    // the epoch current at submit.
    if (response.epoch < 1 || response.epoch < epoch_at_submit[i]) {
      return InternalError(
          "request " + plan.request.id + ": answered at epoch " +
          std::to_string(response.epoch) + " older than epoch " +
          std::to_string(epoch_at_submit[i]) + " current at submit");
    }
    // Zero staleness, part 2: the objective recounts exactly against the
    // query log of the epoch the response claims — a cached result
    // leaking across a PublishEpoch fails this on any query drift.
    const auto& epochs = logs_by_epoch[static_cast<std::size_t>(plan.tenant)];
    if (response.epoch > static_cast<std::int64_t>(epochs.size())) {
      return InternalError("request " + plan.request.id +
                           ": response epoch " +
                           std::to_string(response.epoch) +
                           " was never published");
    }
    const QueryLog& epoch_log =
        epochs[static_cast<std::size_t>(response.epoch - 1)];
    const SocSolution& solution = response.solution;
    const DynamicBitset& tuple = plan.request.tuple;
    const int m_eff = std::min(plan.request.m,
                               static_cast<int>(tuple.Count()));
    if (solution.selected.size() != tuple.size() ||
        !solution.selected.IsSubsetOf(tuple) ||
        static_cast<int>(solution.selected.Count()) != m_eff) {
      return InternalError("request " + plan.request.id +
                           ": invalid selection in OK response");
    }
    const int recount = CountSatisfiedQueries(epoch_log, solution.selected);
    if (solution.satisfied_queries != recount) {
      return InternalError(
          "request " + plan.request.id + ": objective " +
          std::to_string(solution.satisfied_queries) + " != epoch-" +
          std::to_string(response.epoch) + " recount " +
          std::to_string(recount) + " (stale cache result?)");
    }
    // No exact-tier answer comes from a heuristic: solved or replayed from
    // the cache, an undegraded exact answer is proved optimal. The one
    // exception is a ladder downgrade to the greedy tier (level 2), which
    // `ladder_downgraded` reports.
    if (IsExactSolver(plan.request.solver) && !response.degraded &&
        !response.ladder_downgraded && !solution.proved_optimal) {
      return InternalError("request " + plan.request.id + " (" +
                           plan.request.solver +
                           ") got an answer not proved optimal from " +
                           response.solver +
                           (response.cache_hit ? " (cache hit)" : ""));
    }
  }

  // Ledger audits over the merged snapshot.
  const serve::MetricsSnapshot snapshot = service.Metrics();
  const auto counter = [&snapshot](const std::string& name) {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? std::int64_t{0} : it->second;
  };
  const std::int64_t submitted = counter("submitted");
  const std::int64_t accepted = counter("accepted");
  const std::int64_t rejected = counter("rejected_invalid") +
                                counter("rejected_queue_full") +
                                counter("shed_predicted");
  if (submitted != static_cast<std::int64_t>(plans.size())) {
    return InternalError("submitted counter " + std::to_string(submitted) +
                         " != requests " + std::to_string(plans.size()));
  }
  if (accepted + rejected != submitted) {
    return InternalError("admission ledger does not balance: accepted " +
                         std::to_string(accepted) + " + rejected " +
                         std::to_string(rejected) + " != submitted " +
                         std::to_string(submitted));
  }
  if (ok_responses != counter("completed")) {
    return InternalError("OK responses " + std::to_string(ok_responses) +
                         " != completed counter " +
                         std::to_string(counter("completed")));
  }
  // Per-tenant ledgers, and their sum against the service totals.
  std::int64_t tenant_accepted_sum = 0;
  for (const std::string& id : tenant_ids) {
    const std::string prefix = "tenant." + id + ".";
    const std::int64_t t_accepted = counter(prefix + "accepted");
    const std::int64_t t_settled = counter(prefix + "completed") +
                                   counter(prefix + "solve_errors") +
                                   counter(prefix + "rejected_expired") +
                                   counter(prefix + "rejected_shutdown");
    if (t_accepted != t_settled) {
      return InternalError("tenant '" + id +
                           "' ledger does not balance: accepted " +
                           std::to_string(t_accepted) + " != settled " +
                           std::to_string(t_settled));
    }
    tenant_accepted_sum += t_accepted;
  }
  if (tenant_accepted_sum != accepted) {
    return InternalError("per-tenant accepted sum " +
                         std::to_string(tenant_accepted_sum) +
                         " != service accepted " + std::to_string(accepted));
  }
  const std::int64_t expected_publishes =
      successful_publishes.load(std::memory_order_relaxed);
  if (counter("epochs_published") != expected_publishes) {
    return InternalError("epochs_published " +
                         std::to_string(counter("epochs_published")) +
                         " != successful publishes " +
                         std::to_string(expected_publishes));
  }

  // Wide-event audit (before the probes below add their own events):
  // every storm request settled through exactly one RecordOutcome, so
  // recorded plus ring drops must equal submitted, and every drained
  // event must re-parse canonically.
  if (event_log.events_recorded() + event_log.events_dropped() !=
      static_cast<std::int64_t>(plans.size())) {
    return InternalError(
        "wide events recorded " + std::to_string(event_log.events_recorded()) +
        " + dropped " + std::to_string(event_log.events_dropped()) +
        " != requests " + std::to_string(plans.size()));
  }
  std::vector<obs::WideEvent> events;
  event_log.Drain(&events);
  if (static_cast<std::int64_t>(events.size()) !=
      event_log.events_recorded()) {
    return InternalError("drained " + std::to_string(events.size()) +
                         " wide events but " +
                         std::to_string(event_log.events_recorded()) +
                         " were recorded");
  }
  for (const obs::WideEvent& event : events) {
    const std::string line = obs::WideEventToJsonLine(event);
    const StatusOr<bool> replay = RunEventInput(line);
    SOC_RETURN_IF_ERROR(replay.status());
    if (!*replay) {
      return InternalError("storm produced an unparseable wide event: " +
                           line);
    }
  }

  // SLO engine audit: every per-tenant ledger must match the counts the
  // responses imply, the alert state must match the burn rates those
  // counts produce, at least one hot tenant must be alerting and no
  // cold tenant may be.
  const obs::SloReport slo_report = slo_engine.Report();
  std::size_t audited_tenants = 0;
  std::int64_t alerting_hot = 0;
  for (const auto& [tenant, state] : slo_report.tenants) {
    const auto expected_it = expected_slo.find(tenant);
    const std::int64_t want_good =
        expected_it == expected_slo.end() ? 0 : expected_it->second.first;
    const std::int64_t want_bad =
        expected_it == expected_slo.end() ? 0 : expected_it->second.second;
    if (expected_it != expected_slo.end()) ++audited_tenants;
    if (state.good != want_good || state.bad != want_bad) {
      return InternalError(
          "tenant '" + tenant + "' SLO ledger (good " +
          std::to_string(state.good) + ", bad " + std::to_string(state.bad) +
          ") != responses (good " + std::to_string(want_good) + ", bad " +
          std::to_string(want_bad) + ")");
    }
    const std::int64_t total = want_good + want_bad;
    const double burn =
        total == 0 ? 0
                   : (static_cast<double>(want_bad) /
                      static_cast<double>(total)) /
                         (1.0 - state.objective.availability_target);
    const bool want_alerting = burn > slo_options.fast_burn_threshold &&
                               burn > slo_options.slow_burn_threshold;
    if (state.alerting != want_alerting) {
      return InternalError("tenant '" + tenant + "' alerting=" +
                           std::to_string(state.alerting) +
                           " does not match burn " + std::to_string(burn));
    }
    const bool hot = state.objective.latency_threshold_ms ==
                     hot_objective.latency_threshold_ms;
    if (!hot && state.alerting) {
      return InternalError("cold tenant '" + tenant +
                           "' is alerting; its 0.5 target caps burn at the "
                           "fast threshold");
    }
    if (hot && state.alerting) ++alerting_hot;
  }
  if (audited_tenants != expected_slo.size()) {
    return InternalError("SLO report covers " +
                         std::to_string(audited_tenants) + " of " +
                         std::to_string(expected_slo.size()) +
                         " tenants with recorded outcomes");
  }
  if (alerting_hot == 0) {
    return InternalError("no hot tenant alerted under the storm");
  }

  // Cache determinism tail: with the storm over and epochs quiescent, an
  // identical back-to-back pair per tenant must produce one solve and
  // one cache hit with the same objective.
  for (int t = 0; t < num_tenants; ++t) {
    serve::SolveRequest probe;
    probe.id = "probe" + std::to_string(t);
    probe.tenant_id = tenant_ids[static_cast<std::size_t>(t)];
    probe.tuple = tuple_pools[static_cast<std::size_t>(t)][0];
    probe.m = 2;
    probe.solver = "ConsumeAttrCumul";
    const serve::SolveResponse first = service.Submit(probe).get();
    if (!first.status.ok()) {
      return InternalError("post-storm probe for tenant '" +
                           probe.tenant_id +
                           "' failed: " + first.status.ToString());
    }
    probe.id += "b";
    const serve::SolveResponse second = service.Submit(probe).get();
    if (!second.status.ok()) {
      return InternalError("post-storm reprobe for tenant '" +
                           probe.tenant_id +
                           "' failed: " + second.status.ToString());
    }
    if (!first.degraded) {
      if (!second.cache_hit) {
        return InternalError("post-storm reprobe for tenant '" +
                             probe.tenant_id +
                             "' was not served from the result cache");
      }
      if (second.epoch != first.epoch ||
          second.solution.satisfied_queries !=
              first.solution.satisfied_queries) {
        return InternalError("cached reprobe for tenant '" + probe.tenant_id +
                             "' changed the answer");
      }
      ++cache_hit_responses;
    }
  }
  if (cache_hit_responses == 0) {
    return InternalError("storm produced zero cache hits");
  }
  return Status::OK();
}

Status ReplayCorpusInput(const std::string& kind, const std::string& payload) {
  StatusOr<bool> accepted = false;
  if (kind == "protocol") {
    accepted = RunProtocolInput(payload);
  } else if (kind == "response") {
    accepted = RunResponseInput(payload);
  } else if (kind == "csv") {
    accepted = RunCsvInput(payload);
  } else if (kind == "instance") {
    accepted = RunInstanceInput(payload);
  } else if (kind == "event") {
    accepted = RunEventInput(payload);
  } else {
    return InvalidArgumentError(
        "unknown corpus kind '" + kind +
        "'; want protocol, response, csv, instance or event");
  }
  return accepted.status();
}

}  // namespace soc::check
