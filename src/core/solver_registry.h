// Name-based solver construction ("ILP", "MaxFreqItemSets", ...), used by
// the command-line tools and handy for configuration-driven callers.

#ifndef SOC_CORE_SOLVER_REGISTRY_H_
#define SOC_CORE_SOLVER_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/solver.h"

namespace soc {

// The registered solver names, in presentation order:
// BruteForce, BranchAndBound, ILP, MaxFreqItemSets, MaxFreqItemSets-dfs,
// ConsumeAttr, ConsumeAttrCumul, ConsumeQueries, Fallback.
std::vector<std::string> RegisteredSolverNames();

// True iff `name` is a registered exact tier: every answer it returns
// undegraded is proved optimal (BruteForce, BranchAndBound, ILP,
// MaxFreqItemSets-dfs, Fallback). False for heuristics and unknown names.
bool IsExactSolver(const std::string& name);

// Creates a solver with default options by (case-sensitive) name; returns
// NotFound with the list of valid names otherwise.
StatusOr<std::unique_ptr<SocSolver>> CreateSolverByName(
    const std::string& name);

}  // namespace soc

#endif  // SOC_CORE_SOLVER_REGISTRY_H_
