// e2ebench: runs one workload through tenant::ShardedService for a fixed
// span of serving time, checks every answer against the oracles, and
// prints the metrics as the last line of standard output.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//
// One closed-loop client: the next request is submitted only after the
// previous answer arrived. Each shard has one worker and no request
// carries a deadline, so admission, queue order, the degradation ladder
// and the breakers take the same path on every run. All threads of the
// process share one CPU, a different one each round (MoveToCpu).
//
// --trace 0 reports the end-to-end metrics. --trace 1 serves the same
// plan, times calls into each layer on sampled requests (layers.h), and
// reports the per-layer metrics; its spans go to
// .bench_out/<workload>-<seed>.spans.jsonl.

#include <sched.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kernels/kernels.h"
#include "layers.h"
#include "oracles.h"
#include "serve/preprocessing_cache.h"
#include "spans.h"
#include "tenant/sharded_service.h"
#include "workloads.h"

namespace e2ebench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The CPUs this process may run on, lowest first.
std::vector<int> AllowedCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

// Moves every thread of this process, and so every thread started later,
// onto `cpu`. The client and the shard workers then hand each request
// over by a context switch on that CPU instead of by waking an idle
// virtual CPU, whose latency on a shared host drifts by tens of
// microseconds from minute to minute. The run moves to the next CPU every
// round because the virtual CPUs of a shared host also differ in speed
// (in one probe, exact_bnb solves took a quarter longer on the slowest of
// four than on the fastest), and a run that stayed on one would carry
// that CPU's speed of the moment.
void MoveToCpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  std::error_code error;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    const pid_t tid = std::atoi(task.path().filename().c_str());
    // ESRCH: the thread ended after the listing.
    if (sched_setaffinity(tid, sizeof(one), &one) != 0 && errno != ESRCH) {
      std::fprintf(stderr, "e2ebench: cannot move thread %d to cpu %d\n",
                   tid, cpu);
    }
  }
}

// Client latencies of the counted requests go into a buffer of this many
// samples, allocated and written through before set-up, so that what the
// harness holds does not grow with the number of requests served and
// rss_peak_mb does not move with throughput. A run stops starting rounds
// when the next one would not fit.
constexpr std::size_t kMaxLatencySamples = std::size_t{1} << 20;
// The traced mode replays the layers on every k-th request of a round.
constexpr int kTraceStride = 25;
// A run stops starting rounds after this much wall time, whatever
// --seconds says, so that it ends well within three minutes.
constexpr double kWallCapSeconds = 120;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (args->seconds <= 0) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args->workload.empty();
}

// The q-quantile of values[0, n), interpolated; sorts that range in place.
template <typename T>
double QuantileInPlace(T* values, std::size_t n, double q) {
  if (n == 0) return 0;
  std::sort(values, values + n);
  const double pos = q * static_cast<double>(n - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, n - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Quantile(std::vector<double> values, double q) {
  return QuantileInPlace(values.data(), values.size(), q);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// A memory figure of this process, in MB, from /proc/self/status.
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size())) / 1024;
    }
  }
  return 0;
}

// Peak resident set of this process image, in MB (VmHWM; unlike
// getrusage's ru_maxrss it does not inherit the launcher's peak).
double PeakRssMb() { return StatusMb("VmHWM:"); }

double Ratio(long long part, long long base) {
  return base > 0 ? static_cast<double>(part) / static_cast<double>(base) : 0;
}

bool IsExactTier(const std::string& solver) {
  return solver == "BranchAndBound" || solver == "Fallback";
}

bool IsHeuristicTier(const std::string& solver) {
  return solver == "ConsumeAttrCumul" || solver == "MaxFreqItemSets";
}

enum class Verdict { kOk, kKnownFault, kWrong, kError };

// One tenant's catalog at its current epoch, with memoised oracle values
// for the (tuple, m) keys asked on it.
struct TenantState {
  std::int64_t epoch = 1;
  MaskLog masks;
  std::map<std::pair<Mask, int>, int> optimum;
  std::map<std::pair<Mask, int>, int> greedy;

  explicit TenantState(const soc::QueryLog& log) : masks(ToMaskLog(log)) {}
};

struct Served {
  const PlannedRequest* plan;
  soc::serve::SolveResponse response;
  std::int64_t epoch;  // The tenant's epoch when the request was submitted.
  double latency_us;
  double submit_us;
};

class Runner {
 public:
  Runner(Workload* workload, const Args& args)
      : workload_(workload),
        args_(args),
        latency_us_(kMaxLatencySamples, -1.0f) {}

  int Run();

 private:
  // One timed set-up: a ShardedService plus CreateTenant for every
  // tenant on the initial catalogs. The service is destroyed untimed.
  std::unique_ptr<soc::tenant::ShardedService> TimedSetup();
  void Republish(int tenant, const soc::QueryLog& log);
  soc::serve::SolveRequest MakeRequest(const PlannedRequest& p,
                                       std::string id) const;
  // Serves `requests` in order; returns the wall time of the loop. In
  // the traced mode, `measured` requests are sampled for layer replays.
  double Serve(const std::vector<PlannedRequest>& requests, int round,
               bool measured, std::vector<Served>* served);
  void Check(const std::vector<Served>& served, bool counted);
  Verdict Verify(const Served& s, std::string* why);
  void Replay(const Served& s, int request_id, bool mine);
  // Adds (sign 1) or removes (sign -1) the MFI index lookups of the
  // tenant's current snapshot to the traced mode's ratio.
  void RecordMfiStats(int tenant, int sign);
  void PrintEndToEnd();
  void PrintPerLayer();

  Workload* const workload_;
  const Args args_;
  std::unique_ptr<soc::tenant::ShardedService> service_;
  std::vector<TenantState> tenants_;
  SpanRecorder spans_;

  std::vector<double> setup_s_;
  std::vector<double> publish_ms_;
  std::vector<float> latency_us_;  // The first num_latencies_ are samples.
  std::size_t num_latencies_ = 0;
  double setup_rss_mb_ = 0;  // Resident set before the first set-up.
  // Traced mode only.
  std::vector<double> submit_us_;
  std::vector<double> queue_wait_us_;
  std::vector<double> hit_latency_us_;
  std::vector<double> miss_latency_us_;
  std::vector<double> overhead_us_;
  std::vector<double> bnb_nodes_;
  double serving_s_ = 0;
  long long attempted_ = 0;
  long long failed_ = 0;
  long long answered_ = 0;
  long long cache_hits_ = 0;
  long long fast_paths_ = 0;
  long long mfi_hits_ = 0;
  long long mfi_lookups_ = 0;
  int rounds_ = 0;
  int wrong_ = 0;
  int reported_ = 0;
  int next_request_id_ = 0;
};

std::unique_ptr<soc::tenant::ShardedService> Runner::TimedSetup() {
  soc::tenant::ShardedServiceOptions options;
  options.num_shards = workload_->num_shards;
  options.shard.num_workers = 1;
  std::vector<soc::QueryLog> logs = workload_->initial_logs;
  const Clock::time_point start = Clock::now();
  auto service = std::make_unique<soc::tenant::ShardedService>(options);
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const soc::Status status =
        service->CreateTenant(workload_->tenants[t], std::move(logs[t]));
    if (!status.ok()) {
      std::fprintf(stderr, "e2ebench: CreateTenant: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  }
  setup_s_.push_back(SecondsSince(start));
  return service;
}

void Runner::RecordMfiStats(int tenant, int sign) {
  const soc::tenant::SnapshotPtr snapshot =
      service_->registry().Acquire(workload_->tenants[tenant]);
  const soc::serve::CacheStats stats = snapshot->preprocessing().mfi_stats();
  mfi_hits_ += sign * stats.hits;
  mfi_lookups_ += sign * (stats.hits + stats.misses);
}

void Runner::Republish(int tenant, const soc::QueryLog& log) {
  if (args_.trace) RecordMfiStats(tenant, 1);
  soc::QueryLog copy = log;
  const Clock::time_point start = Clock::now();
  const soc::StatusOr<std::int64_t> epoch =
      service_->PublishEpoch(workload_->tenants[tenant], std::move(copy));
  const double ms = SecondsSince(start) * 1e3;
  if (!epoch.ok()) {
    std::fprintf(stderr, "e2ebench: PublishEpoch: %s\n",
                 epoch.status().ToString().c_str());
    std::exit(1);
  }
  publish_ms_.push_back(ms);
  if (args_.trace) ProbeEpoch(workload_->tenants[tenant], *epoch, log, &spans_);
  tenants_[tenant] = TenantState(log);
  tenants_[tenant].epoch = *epoch;
}

soc::serve::SolveRequest Runner::MakeRequest(const PlannedRequest& p,
                                             std::string id) const {
  soc::serve::SolveRequest r;
  r.id = std::move(id);
  r.tenant_id = workload_->tenants[p.tenant];
  r.tuple = ToBitset(p.tuple, tenants_[p.tenant].masks.width);
  r.m = p.m;
  r.solver = p.solver;
  return r;
}

double Runner::Serve(const std::vector<PlannedRequest>& requests, int round,
                     bool measured, std::vector<Served>* served) {
  std::vector<soc::serve::SolveRequest> built;
  built.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    built.push_back(MakeRequest(
        requests[i], std::to_string(round) + "." + std::to_string(i)));
  }
  served->clear();
  served->reserve(requests.size());
  const Clock::time_point loop_start = Clock::now();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const bool sampled = args_.trace && measured && i % kTraceStride == 0;
    const int request_id = next_request_id_++;
    const int root = sampled ? spans_.Open("request", -1, request_id) : -1;
    const std::int64_t epoch = tenants_[requests[i].tenant].epoch;
    const Clock::time_point start = Clock::now();
    const int submit =
        sampled ? spans_.Open("tenant.submit", root, request_id) : -1;
    std::future<soc::serve::SolveResponse> future =
        service_->Submit(std::move(built[i]));
    if (sampled) spans_.Close(submit);
    const double submit_us = SecondsSince(start) * 1e6;
    const int wait = sampled ? spans_.Open("serve.wait", root, request_id) : -1;
    soc::serve::SolveResponse response = future.get();
    const double latency_us = SecondsSince(start) * 1e6;
    if (sampled) {
      spans_.Close(wait);
      spans_.Close(root);
    }
    served->push_back(Served{&requests[i], std::move(response), epoch,
                             latency_us, submit_us});
    if (sampled) Replay(served->back(), request_id, /*mine=*/i == 0);
  }
  return SecondsSince(loop_start);
}

// Traced mode only: the layer calls for one served request, plus an
// identical resubmission that the result cache must answer.
void Runner::Replay(const Served& s, int request_id, bool mine) {
  const soc::serve::SolveResponse& r = s.response;
  if (!r.status.ok()) return;
  const PlannedRequest& p = *s.plan;
  const TenantState& state = tenants_[p.tenant];
  const int cap = workload_->exact_probe_m;
  const int exact_m = cap > 0 ? std::min(p.m, cap) : p.m;
  const int parent = spans_.Open("replay", -1, request_id);
  const ReplayOutput out = ReplayLayers(
      ReplayInput{&service_->registry(), workload_->tenants[p.tenant],
                  ToBitset(p.tuple, state.masks.width), p.m,
                  r.solution.selected, &state.masks, exact_m, mine},
      &spans_, parent, request_id);
  bnb_nodes_.push_back(out.bnb_nodes);
  if (!r.cache_hit && !r.fast_path) {
    if (r.solver == "ConsumeAttrCumul") {
      overhead_us_.push_back(s.latency_us - out.greedy_solve_us);
    } else if (r.solver == "BranchAndBound" && exact_m == p.m) {
      overhead_us_.push_back(s.latency_us - out.bnb_solve_us);
    }
  }
  soc::serve::SolveRequest again = MakeRequest(p, "repeat");
  const Clock::time_point start = Clock::now();
  const int span = spans_.Open("tenant.repeat", parent, request_id);
  const soc::serve::SolveResponse repeat =
      service_->Submit(std::move(again)).get();
  spans_.Close(span);
  const double latency_us = SecondsSince(start) * 1e6;
  spans_.Close(parent);
  if (!repeat.cache_hit || !repeat.status.ok() ||
      repeat.solution.selected != r.solution.selected ||
      repeat.solution.satisfied_queries != r.solution.satisfied_queries) {
    std::fprintf(stderr, "e2ebench: a repeated request was not replayed\n");
    ++wrong_;
    return;
  }
  hit_latency_us_.push_back(latency_us);
}

Verdict Runner::Verify(const Served& s, std::string* why) {
  const soc::serve::SolveResponse& r = s.response;
  const PlannedRequest& p = *s.plan;
  if (!r.status.ok()) {
    *why = r.status.ToString();
    return Verdict::kError;
  }
  TenantState& state = tenants_[p.tenant];
  if (static_cast<int>(r.solution.selected.size()) != state.masks.width) {
    *why = "selection width";
    return Verdict::kWrong;
  }
  const Mask selection = ToMask(r.solution.selected);
  if ((selection & ~p.tuple) != 0) {
    *why = "selection is not a subset of the tuple";
    return Verdict::kWrong;
  }
  if (std::popcount(selection) != std::min(p.m, std::popcount(p.tuple))) {
    *why = "selection size is not min(m, |t|)";
    return Verdict::kWrong;
  }
  if (Recount(state.masks, selection) != r.solution.satisfied_queries) {
    *why = "satisfied_queries differs from the recount";
    return Verdict::kWrong;
  }
  if (r.epoch != s.epoch) {
    *why = "epoch differs from the tenant's epoch at submit";
    return Verdict::kWrong;
  }
  const std::pair<Mask, int> key{p.tuple, p.m};
  if (IsExactTier(p.solver)) {
    auto it = state.optimum.find(key);
    if (it == state.optimum.end()) {
      it = state.optimum
               .emplace(key, ExhaustiveOptimum(state.masks, p.tuple, p.m))
               .first;
    }
    if (r.solution.satisfied_queries == it->second) return Verdict::kOk;
    *why = "exact tier answered " +
           std::to_string(r.solution.satisfied_queries) + ", optimum " +
           std::to_string(it->second) + " (solver " + r.solver +
           (r.cache_hit ? ", cache hit)" : ")");
    // The named fault: an exact request answered from the cache entry a
    // heuristic tier left for the same key.
    return r.solution.satisfied_queries < it->second && r.cache_hit &&
                   IsHeuristicTier(r.solver)
               ? Verdict::kKnownFault
               : Verdict::kWrong;
  }
  if (!IsHeuristicTier(p.solver)) {
    *why = "no oracle for solver " + p.solver;
    return Verdict::kWrong;
  }
  auto it = state.greedy.find(key);
  if (it == state.greedy.end()) {
    it = state.greedy
             .emplace(key, Recount(state.masks,
                                   ReferenceGreedy(state.masks, p.tuple, p.m)))
             .first;
  }
  if (r.solution.satisfied_queries >= it->second) return Verdict::kOk;
  *why = "heuristic tier answered " +
         std::to_string(r.solution.satisfied_queries) +
         ", below the reference greedy's " + std::to_string(it->second);
  return Verdict::kWrong;
}

void Runner::Check(const std::vector<Served>& served, bool counted) {
  for (const Served& s : served) {
    std::string why;
    const Verdict verdict = Verify(s, &why);
    // Seeded requests never share a key across solver classes, so only
    // the fault probe may meet the known fault.
    const bool wrong = verdict == Verdict::kWrong ||
                       (verdict == Verdict::kKnownFault && !s.plan->fault_probe);
    if (wrong || verdict == Verdict::kError) {
      if (reported_++ < 10) {
        std::fprintf(stderr, "e2ebench: %s: request %s on %s: %s\n",
                     wrong ? "wrong answer" : "error", s.response.id.c_str(),
                     s.plan->solver.c_str(), why.c_str());
      }
    }
    if (wrong) ++wrong_;
    if (!counted) continue;
    ++attempted_;
    if (verdict == Verdict::kKnownFault || verdict == Verdict::kError) {
      ++failed_;
      continue;
    }
    const soc::serve::SolveResponse& r = s.response;
    ++answered_;
    latency_us_[num_latencies_++] = static_cast<float>(s.latency_us);
    if (r.cache_hit) ++cache_hits_;
    if (r.fast_path) ++fast_paths_;
    if (!args_.trace) continue;
    submit_us_.push_back(s.submit_us);
    queue_wait_us_.push_back(r.queue_ms * 1e3);
    if (r.cache_hit) {
      hit_latency_us_.push_back(s.latency_us);
    } else {
      miss_latency_us_.push_back(s.latency_us);
    }
  }
}

int Runner::Run() {
  const Clock::time_point run_start = Clock::now();
  const std::vector<int> cpus = AllowedCpus();
  if (!cpus.empty()) MoveToCpu(cpus.back());
  setup_rss_mb_ = StatusMb("VmRSS:");
  service_ = TimedSetup();
  for (const soc::QueryLog& log : workload_->initial_logs) {
    tenants_.emplace_back(log);
  }
  std::vector<Served> served;
  Serve(workload_->warmup, -1, /*measured=*/false, &served);
  Check(served, /*counted=*/false);
  const int num_tenants = static_cast<int>(tenants_.size());
  if (args_.trace) {
    for (int t = 0; t < num_tenants; ++t) RecordMfiStats(t, -1);
  }
  while (serving_s_ < args_.seconds &&
         SecondsSince(run_start) < kWallCapSeconds) {
    const Round round = workload_->round(rounds_);
    if (num_latencies_ + round.requests.size() > latency_us_.size()) break;
    if (!cpus.empty()) MoveToCpu(cpus[rounds_ % cpus.size()]);
    Republish(round.publish.tenant, round.publish.log);
    serving_s_ += Serve(round.requests, rounds_, /*measured=*/true, &served);
    Check(served, /*counted=*/true);
    ++rounds_;
    // One more set-up per round, so that setup_s samples the host over
    // the whole run, as the serving metrics do, not only its first
    // milliseconds.
    TimedSetup().reset();
  }
  if (args_.trace) {
    for (int t = 0; t < num_tenants; ++t) RecordMfiStats(t, 1);
  }
  service_.reset();

  std::printf("# workload=%s seed=%llu kernel_tier=%s rounds=%d "
              "attempted=%lld failed=%lld publishes=%zu serving_s=%.3f "
              "wall_s=%.1f\n",
              workload_->name.c_str(),
              static_cast<unsigned long long>(args_.seed),
              soc::kernels::TierName(soc::kernels::ActiveTier()), rounds_,
              attempted_, failed_, publish_ms_.size(), serving_s_,
              SecondsSince(run_start));
  if (args_.trace) {
    PrintPerLayer();
  } else {
    PrintEndToEnd();
  }
  return 0;
}

std::string Metric(const char* name, double value, const char* unit) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", name, value,
                unit);
  return buffer;
}

void PrintResult(bool correct, long long attempted, long long failed,
                 const std::vector<std::string>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += metrics[i];
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void Runner::PrintEndToEnd() {
  const double rss_peak_mb = PeakRssMb();
  std::printf("# latency samples=%zu publish samples=%zu setup samples=%zu "
              "cache hits=%lld/%lld fast path=%lld rss before set-up=%.1f "
              "MB\n",
              num_latencies_, publish_ms_.size(), setup_s_.size(),
              cache_hits_, answered_, fast_paths_, setup_rss_mb_);
  PrintResult(
      wrong_ == 0, attempted_, failed_,
      {Metric("throughput_rps", static_cast<double>(answered_) / serving_s_,
              "1/s"),
       Metric("latency_p50_ms",
              QuantileInPlace(latency_us_.data(), num_latencies_, 0.5) / 1e3,
              "ms"),
       Metric("latency_p90_ms",
              QuantileInPlace(latency_us_.data(), num_latencies_, 0.9) / 1e3,
              "ms"),
       Metric("publish_p50_ms", Median(publish_ms_), "ms"),
       Metric("setup_s", Median(setup_s_), "s"),
       Metric("rss_peak_mb", rss_peak_mb, "MB")});
}

void Runner::PrintPerLayer() {
  std::error_code ignored;  // Write() below reports a missing directory.
  std::filesystem::create_directories(".bench_out", ignored);
  const std::string path = ".bench_out/" + workload_->name + "-" +
                           std::to_string(args_.seed) + ".spans.jsonl";
  if (!spans_.Write(path)) {
    std::fprintf(stderr, "e2ebench: cannot write %s\n", path.c_str());
  }
  const std::map<std::string, std::vector<double>> self =
      spans_.SelfMicrosByName();
  const auto us = [&self](const char* span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : Median(it->second);
  };
  std::printf("# spans=%zu written to %s\n", spans_.size(), path.c_str());
  // The same figures as the untraced run's, for the tracing overhead.
  std::printf("# traced end-to-end: throughput_rps=%.6g latency_p50_ms=%.6g "
              "latency_p90_ms=%.6g\n",
              static_cast<double>(answered_) / serving_s_,
              QuantileInPlace(latency_us_.data(), num_latencies_, 0.5) / 1e3,
              QuantileInPlace(latency_us_.data(), num_latencies_, 0.9) / 1e3);
  std::printf("# ratio bases: cache_hit %lld/%lld fast_path %lld/%lld "
              "mfi_cache_hit %lld/%lld; hit latency samples=%zu miss=%zu "
              "overhead=%zu\n",
              cache_hits_, answered_, fast_paths_, answered_, mfi_hits_,
              mfi_lookups_, hit_latency_us_.size(), miss_latency_us_.size(),
              overhead_us_.size());
  PrintResult(
      wrong_ == 0, attempted_, failed_,
      {Metric("boolean.frequencies_us", us("boolean.frequencies"), "us"),
       Metric("boolean.recount_us", us("boolean.recount"), "us"),
       Metric("kernels.block_build_us", us("kernels.block_build"), "us"),
       Metric("kernels.gain_scan_first_us", us("kernels.gain_scan_first"),
              "us"),
       Metric("kernels.gain_scan_last_us", us("kernels.gain_scan_last"), "us"),
       Metric("kernels.bound_scan_us", us("kernels.bound_scan"), "us"),
       Metric("core.greedy_solve_us", us("core.greedy_solve"), "us"),
       Metric("core.bnb_solve_us", us("core.bnb_solve"), "us"),
       Metric("core.bnb_nodes", Median(bnb_nodes_), "count"),
       Metric("core.mfi_solve_us", us("core.mfi_solve"), "us"),
       Metric("itemsets.mine_ms", us("itemsets.mine") / 1e3, "ms"),
       Metric("itemsets.mfi_cache_hit_ratio", Ratio(mfi_hits_, mfi_lookups_),
              "ratio"),
       Metric("serve.max_satisfiable_us", us("serve.max_satisfiable"), "us"),
       Metric("serve.bitmap_build_ms", us("serve.bitmap_build") / 1e3, "ms"),
       Metric("serve.fast_path_ratio", Ratio(fast_paths_, answered_), "ratio"),
       Metric("serve.queue_wait_us", Median(queue_wait_us_), "us"),
       Metric("serve.overhead_us", Median(overhead_us_), "us"),
       Metric("tenant.submit_us", Median(submit_us_), "us"),
       Metric("tenant.acquire_us", us("tenant.acquire"), "us"),
       Metric("tenant.snapshot_build_ms", us("tenant.snapshot_build") / 1e3,
              "ms"),
       Metric("tenant.cache_hit_ratio", Ratio(cache_hits_, answered_),
              "ratio"),
       Metric("tenant.hit_latency_us", Median(hit_latency_us_), "us"),
       Metric("tenant.miss_latency_us", Median(miss_latency_us_), "us")});
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Args args;
  if (!e2ebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  const std::string failure = e2ebench::OracleSelfTest();
  if (!failure.empty()) {
    std::fprintf(stderr, "e2ebench: oracle self-test failed: %s\n",
                 failure.c_str());
    return 1;
  }
  std::unique_ptr<e2ebench::Workload> workload =
      e2ebench::MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "e2ebench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  return e2ebench::Runner(workload.get(), args).Run();
}
