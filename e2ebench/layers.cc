#include "layers.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <optional>
#include <vector>

#include "boolean/evaluator.h"
#include "core/bnb_solver.h"
#include "core/greedy.h"
#include "core/mfi_solver.h"
#include "kernels/arena.h"
#include "kernels/kernels.h"
#include "serve/preprocessing_cache.h"
#include "tenant/snapshot.h"
#include "workloads.h"

namespace e2ebench {

namespace {

// The MFI threshold cache capacity of the service's snapshots (the
// ShardedServiceOptions default).
constexpr std::size_t kMfiCapacity = 32;

void Require(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "e2ebench: layer call failed: %s\n", what);
}

}  // namespace

void ProbeEpoch(const std::string& tenant, std::int64_t epoch,
                const soc::QueryLog& log, SpanRecorder* spans) {
  soc::QueryLog copy = log;
  std::optional<soc::tenant::TenantSnapshot> snapshot;
  {
    const ScopedSpan span(spans, "tenant.snapshot_build", -1, -1);
    snapshot.emplace(tenant, epoch, std::move(copy), kMfiCapacity);
  }
  soc::DynamicBitset all(static_cast<std::size_t>(log.num_attributes()));
  all.SetAll();
  const ScopedSpan span(spans, "serve.bitmap_build", -1, -1);
  snapshot->preprocessing().MaxSatisfiable(all, log.num_attributes());
}

ReplayOutput ReplayLayers(const ReplayInput& in, SpanRecorder* spans,
                          int parent, int request) {
  ReplayOutput out;
  soc::tenant::SnapshotPtr snapshot;
  {
    const ScopedSpan span(spans, "tenant.acquire", parent, request);
    snapshot = in.registry->Acquire(in.tenant);
  }
  const soc::QueryLog& log = snapshot->log();
  const std::size_t width = static_cast<std::size_t>(log.num_attributes());
  const Mask tuple = ToMask(in.tuple);
  const int m_eff = std::min(in.m, std::popcount(tuple));
  {
    const ScopedSpan span(spans, "serve.max_satisfiable", parent, request);
    snapshot->preprocessing().MaxSatisfiable(in.tuple, in.m);
  }
  {
    const ScopedSpan span(spans, "boolean.frequencies", parent, request);
    const std::vector<int> frequencies = log.AttributeFrequencies();
    Require(frequencies.size() == width, "AttributeFrequencies");
  }
  {
    // The full-log blocked layout and gain scans ConsumeAttrCumul runs:
    // at the empty selection, and at the selection its last step extends
    // (the reference greedy's first m_eff - 1 picks).
    soc::kernels::ScratchScope scratch;
    std::optional<soc::kernels::CoverageBlockSet> blocks;
    {
      const ScopedSpan span(spans, "kernels.block_build", parent, request);
      blocks.emplace(log.queries(), width, nullptr, &scratch.arena());
    }
    long long* gains = scratch.arena().AllocateWeights(width);
    {
      const ScopedSpan span(spans, "kernels.gain_scan_first", parent,
                            request);
      soc::kernels::CoverageGain(*blocks, soc::DynamicBitset(width), gains,
                                 nullptr);
    }
    const std::vector<int> picks =
        ReferenceGreedyPicks(*in.oracle_log, tuple, in.m);
    soc::DynamicBitset last(width);
    for (int i = 0; i + 1 < static_cast<int>(picks.size()); ++i) {
      last.Set(static_cast<std::size_t>(picks[i]));
    }
    const ScopedSpan span(spans, "kernels.gain_scan_last", parent, request);
    soc::kernels::CoverageGain(*blocks, last, gains, nullptr);
  }
  {
    const ScopedSpan span(spans, "boolean.recount", parent, request);
    soc::CountSatisfiedQueries(log, in.answer);
  }
  {
    // The B&B root: nothing chosen or rejected, over the queries a
    // size-m_eff selection of t could satisfy.
    std::vector<soc::DynamicBitset> relevant;
    for (const soc::DynamicBitset& q : log.queries()) {
      if (static_cast<int>(q.Count()) <= m_eff && q.IsSubsetOf(in.tuple)) {
        relevant.push_back(q);
      }
    }
    const soc::kernels::CoverageBlockSet blocks(relevant, width);
    const soc::DynamicBitset none(width);
    const ScopedSpan span(spans, "kernels.bound_scan", parent, request);
    soc::kernels::CoverageBound(blocks, none, none, m_eff);
  }
  int solve_span = -1;
  {
    const ScopedSpan span(spans, "core.greedy_solve", parent, request);
    solve_span = span.index();
    const soc::GreedySolver greedy(soc::GreedyKind::kConsumeAttrCumul);
    Require(greedy.Solve(log, in.tuple, in.m).ok(), "ConsumeAttrCumul");
  }
  out.greedy_solve_us = spans->DurationMicros(solve_span);
  {
    const ScopedSpan span(spans, "core.bnb_solve", parent, request);
    solve_span = span.index();
    const soc::BnbSocSolver bnb;
    const auto solution = bnb.Solve(log, in.tuple, in.exact_m);
    Require(solution.ok(), "BranchAndBound");
    if (solution.ok()) {
      for (const auto& [key, value] : solution->metrics) {
        if (key == "nodes") out.bnb_nodes = value;
      }
    }
  }
  out.bnb_solve_us = spans->DurationMicros(solve_span);
  if (in.mine) {
    // A shared index of the solver's own, so the service's MFI cache
    // statistics count only the service's requests. The first threshold
    // the solver mines is min(|Q|/2, #within-budget queries ⊆ t, greedy
    // objective), at least 1; mining it is the cold call, and the timed
    // solve runs after an untimed one has mined any lower threshold.
    soc::serve::SharedMfiIndex index(log, soc::MfiSocOptions{},
                                     kMfiCapacity);
    const int exact_m_eff = std::min(in.exact_m, std::popcount(tuple));
    int satisfiable = 0;
    for (const Mask q : in.oracle_log->queries) {
      if ((q & ~tuple) == 0 && std::popcount(q) <= exact_m_eff) ++satisfiable;
    }
    int threshold = std::max(1, std::min(log.size() / 2, satisfiable));
    const int greedy_count = Recount(
        *in.oracle_log, ReferenceGreedy(*in.oracle_log, tuple, in.exact_m));
    if (greedy_count >= 1) threshold = std::min(threshold, greedy_count);
    {
      const ScopedSpan span(spans, "itemsets.mine", parent, request);
      Require(index.MaximalItemsets(threshold, nullptr).ok(),
              "MaximalItemsets");
    }
    const soc::MfiSocSolver mfi;
    Require(mfi.SolveWithIndex(index, log, in.tuple, in.exact_m).ok(),
            "MaxFreqItemSets");
    const ScopedSpan span(spans, "core.mfi_solve", parent, request);
    Require(mfi.SolveWithIndex(index, log, in.tuple, in.exact_m).ok(),
            "MaxFreqItemSets");
  }
  return out;
}

}  // namespace e2ebench
