// The benchmark's workloads: seeded request plans and the catalogs they
// run against. A plan is a sequence of rounds; round i is a pure
// function of (seed, i), so the same seed gives the same inputs however
// many rounds a run reaches. Every round of a workload has the same
// number of requests and the same fault probes, so each run attempts
// whole rounds of the same operations.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "boolean/query_log.h"
#include "oracles.h"

namespace e2ebench {

struct PlannedRequest {
  int tenant = 0;  // Index into Workload::tenants.
  Mask tuple = 0;
  int m = 0;
  std::string solver;
  // Part of the fixed fault probe, whose inputs do not depend on the
  // seed (see tenant_epochs in README.md).
  bool fault_probe = false;
};

struct Publish {
  int tenant = 0;
  soc::QueryLog log;
};

struct Round {
  Publish publish;  // Applied before the requests.
  std::vector<PlannedRequest> requests;
};

struct Workload {
  std::string name;
  int num_shards = 1;
  std::vector<std::string> tenants;
  std::vector<soc::QueryLog> initial_logs;  // Epoch 1, one per tenant.
  // Requests that fill the result caches before measuring: checked, not
  // timed and not counted.
  std::vector<PlannedRequest> warmup;
  std::function<Round(int index)> round;
  // Traced mode: the budget above which the B&B and MFI layer calls run
  // at this budget instead of the request's; 0 = always the request's.
  int exact_probe_m = 0;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);

// The mask of a log-width bitset, and back.
Mask ToMask(const soc::DynamicBitset& bits);
soc::DynamicBitset ToBitset(Mask mask, int width);
MaskLog ToMaskLog(const soc::QueryLog& log);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
