// Every call the traced mode makes into a layer's public functions, in
// one place. Each call runs on the inputs of a request or epoch the
// workload just served, inside a span named after the layer metric it
// feeds. None of them touches the service's own caches, so the traced
// run serves the same requests the same way as the untraced one.

#ifndef E2EBENCH_LAYERS_H_
#define E2EBENCH_LAYERS_H_

#include <string>

#include "boolean/query_log.h"
#include "common/bitset.h"
#include "oracles.h"
#include "spans.h"
#include "tenant/registry.h"

namespace e2ebench {

// After a publish: builds a fresh TenantSnapshot of the published log
// ("tenant.snapshot_build") and makes the first gate call on it, which
// builds its attribute bitmaps ("serve.bitmap_build").
void ProbeEpoch(const std::string& tenant, std::int64_t epoch,
                const soc::QueryLog& log, SpanRecorder* spans);

struct ReplayInput {
  const soc::tenant::TenantRegistry* registry;
  std::string tenant;
  soc::DynamicBitset tuple;
  int m = 0;
  soc::DynamicBitset answer;  // The served selection.
  const MaskLog* oracle_log;  // The same log, for the reference picks.
  // Budget of the B&B and MFI calls: m, or less where a workload's
  // budget puts an exact solve out of reach (Workload::exact_probe_m).
  int exact_m = 0;
  // Also mine a cold MFI index and solve on it warm: once per epoch.
  bool mine = false;
};

struct ReplayOutput {
  double greedy_solve_us = 0;
  double bnb_solve_us = 0;
  double bnb_nodes = 0;
};

// Calls each layer on one served request's inputs, as children of
// `parent`: "tenant.acquire", "serve.max_satisfiable",
// "boolean.frequencies", "kernels.block_build", "kernels.gain_scan_first",
// "kernels.gain_scan_last", "boolean.recount", "kernels.bound_scan",
// "core.greedy_solve", "core.bnb_solve", and with `mine`
// "itemsets.mine" and "core.mfi_solve".
ReplayOutput ReplayLayers(const ReplayInput& input, SpanRecorder* spans,
                          int parent, int request);

}  // namespace e2ebench

#endif  // E2EBENCH_LAYERS_H_
