// Deterministic structure-aware fuzzers for the parsing and serving
// surfaces. Each fuzzer derives every input from a 64-bit seed (soc::Rng
// streams, so runs are bit-identical across platforms), generates mostly
// well-formed inputs, then mutates them with a grammar-aware dictionary —
// truncations, byte flips, token splices, duplicated spans.
//
// Crashes are the sanitizers' job: a fuzzer returns OK when every input
// was either accepted or cleanly rejected with an error Status, and an
// error describing the first *invariant* violation otherwise (e.g. an
// accepted input that does not survive a serialize/parse round trip).
//
// The serve fuzzer drives a live VisibilityService from a ThreadPool with
// randomized tuples, budgets, solver names and (often already-expired)
// deadlines, then cross-checks the metrics ledger against the observed
// responses. It is the TSan target in the nightly CI soak.
//
// ReplayCorpusInput feeds one saved input (tests/corpus/<kind>-*.txt) back
// through the matching parser, so past crashers stay fixed.

#ifndef SOC_CHECK_FUZZ_H_
#define SOC_CHECK_FUZZ_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace soc::check {

struct FuzzOptions {
  int iterations = 200;
  std::uint64_t seed = 1;
};

struct FuzzReport {
  int iterations = 0;
  int accepted = 0;  // Inputs the parser accepted.
  int rejected = 0;  // Inputs cleanly rejected with an error Status.
};

// JSONL request lines through serve::ParseSolveRequestLine (and, for
// accepted requests, a ResponseToJson encode smoke).
StatusOr<FuzzReport> FuzzProtocol(const FuzzOptions& options = {});

// JSONL response lines through serve::ParseSolveResponseLine; accepted
// lines must round-trip ResponseToJson -> ParseSolveResponseLine with an
// identical re-encoding (covers the kOverloaded retry_after_ms /
// shed_reason guidance fields).
StatusOr<FuzzReport> FuzzResponseProtocol(const FuzzOptions& options = {});

// Query-log CSV through QueryLog::FromCsv; accepted logs must round-trip
// ToCsv -> FromCsv with identical shape.
StatusOr<FuzzReport> FuzzQueryLogCsv(const FuzzOptions& options = {});

// Serialized instances through InstanceFromText; accepted instances must
// round-trip InstanceToText -> InstanceFromText bit-identically.
StatusOr<FuzzReport> FuzzInstanceText(const FuzzOptions& options = {});

// Wide-event JSONL lines through obs::ParseWideEventLine; accepted
// lines must reach a fixed point after one canonical re-encode
// (encode(parse(line)) re-parses to an identical re-encoding), the
// contract --events-out readers depend on.
StatusOr<FuzzReport> FuzzWideEvent(const FuzzOptions& options = {});

struct ServeFuzzOptions {
  int requests = 200;
  std::uint64_t seed = 1;
  int num_workers = 4;
  int submitter_threads = 4;
  std::size_t max_queue = 8;  // Small on purpose: exercise load-shedding.
};

// Concurrent request storm against a VisibilityService; checks that every
// future resolves, responses echo ids and carry valid solutions, and the
// metrics ledger balances (submitted == accepted + rejections, ...).
Status FuzzServe(const ServeFuzzOptions& options = {});

// Service-level chaos storm: FuzzServe's request mix plus injected
// faults (solver errors through the worker hook), slow workers, hard
// stalls past the watchdog wall, an always-faulting solver tier and
// bursty arrivals. On top of the response/ledger audits it checks that
// every kOverloaded response names a shed_reason, that the overload
// ledger balances exactly (accepted + queue_full + predictive sheds +
// invalid == submitted; completed + errors + expired + shutdown ==
// accepted), and that injected faults tripped the faulty tier's breaker.
struct ChaosServeOptions {
  int requests = 300;
  std::uint64_t seed = 1;
  int num_workers = 4;
  int submitter_threads = 4;
  std::size_t max_queue = 16;
  // Injection rates, applied per request on the worker thread.
  double fault_rate = 0.10;  // Hook returns an error (solver fault).
  double slow_ms = 2;        // Slow-worker injection: sleep this long...
  double slow_rate = 0.15;   // ...at this rate.
  double stall_rate = 0.03;  // Hard stall past the watchdog wall.
  double stall_ms = 60;      // Stall duration (>= watchdog wall budget).
  // Burst arrivals: each submitter pauses between bursts of this size.
  int burst_size = 24;
  double burst_pause_ms = 1;
  // Every request with this solver faults via the hook; "" disables. The
  // audit then requires the tier's breaker to have tripped.
  std::string faulty_solver = "ILP";
};
Status FuzzServeChaos(const ChaosServeOptions& options = {});

// Multi-tenant chaos storm against a ShardedService: rotating tenants
// with Zipf-ish repeated tuples (so the result cache engages), hostile
// requests (wrong widths, unknown tenants/solvers, expired deadlines),
// injected solver faults, and mid-storm PublishEpoch catalog swaps.
//
// Audits, on top of the single-tenant chaos checks:
//  * zero stale results — every OK response's objective recounts exactly
//    against the query log of the epoch it reports, and that epoch is
//    never older than the tenant's published epoch observed before the
//    request was submitted;
//  * per-tenant ledger — for every tenant,
//      accepted == completed + solve_errors + rejected_expired
//                + rejected_shutdown,
//    and the per-tenant accepted counters sum to the service total;
//  * cache determinism — after the storm, an identical back-to-back
//    resubmission per tenant is answered from the cache with the same
//    objective;
//  * cache tiers — no exact-tier request (Fallback, the storm's default)
//    is answered by a heuristic: every undegraded exact answer, solved
//    or cached, is proved optimal. A degradation-ladder downgrade to the
//    greedy tier (level 2, reported by `ladder_downgraded`) is the one
//    case where an exact tier gets a heuristic answer; the storm runs
//    with the ladder off;
//  * observability — every request the storm submitted became exactly
//    one wide event (recorded + ring drops == submitted) and every
//    drained event re-parses canonically; the SLO engine's per-tenant
//    good/bad ledgers match the counts recomputed from the responses,
//    hot tenants (impossible latency threshold) alert and cold tenants
//    (whose 0.5 target caps burn at the alert threshold) never do.
struct MultiTenantChaosOptions {
  int requests = 400;
  std::uint64_t seed = 1;
  int num_shards = 3;
  int num_tenants = 6;
  int num_workers = 2;  // Per shard.
  int submitter_threads = 4;
  std::size_t max_queue = 64;
  std::size_t result_cache_capacity = 512;
  // One PublishEpoch (rotating through tenants) every this many planned
  // requests; 0 disables publishes.
  int publish_every = 40;
  // Worker-hook injection, as in ChaosServeOptions.
  double fault_rate = 0.05;
  double slow_ms = 1;
  double slow_rate = 0.10;
};
Status FuzzMultiTenantChaos(const MultiTenantChaosOptions& options = {});

// Replays one corpus input. `kind` is "protocol", "response", "csv",
// "instance" or "event" (the corpus file name prefix).
Status ReplayCorpusInput(const std::string& kind, const std::string& payload);

}  // namespace soc::check

#endif  // SOC_CHECK_FUZZ_H_
