#include "core/solver_registry.h"

#include "common/string_util.h"
#include "core/bnb_solver.h"
#include "core/brute_force.h"
#include "core/fallback_solver.h"
#include "core/greedy.h"
#include "core/ilp_solver.h"
#include "core/mfi_solver.h"

namespace soc {
namespace {

// The single source of truth: every advertised name pairs with its
// tier and its factory, so RegisteredSolverNames(), IsExactSolver() and
// CreateSolverByName() cannot drift apart. Order is presentation order
// (see solver_registry.h).
struct RegistryEntry {
  const char* name;
  // Every answer the solver returns undegraded is proved optimal.
  bool exact;
  std::unique_ptr<SocSolver> (*make)();
};

std::unique_ptr<SocSolver> MakeMfiDfs() {
  MfiSocOptions options;
  options.engine = MfiEngine::kExactDfs;
  return std::make_unique<MfiSocSolver>(options);
}

constexpr RegistryEntry kRegistry[] = {
    {"BruteForce", true, [] { return std::unique_ptr<SocSolver>(
                                  std::make_unique<BruteForceSolver>()); }},
    {"BranchAndBound", true, [] { return std::unique_ptr<SocSolver>(
                                      std::make_unique<BnbSocSolver>()); }},
    {"ILP", true, [] { return std::unique_ptr<SocSolver>(
                           std::make_unique<IlpSocSolver>()); }},
    {"MaxFreqItemSets", false, [] { return std::unique_ptr<SocSolver>(
                                        std::make_unique<MfiSocSolver>()); }},
    {"MaxFreqItemSets-dfs", true, &MakeMfiDfs},
    {"ConsumeAttr", false, [] { return std::unique_ptr<SocSolver>(
                                    std::make_unique<GreedySolver>(
                                        GreedyKind::kConsumeAttr)); }},
    {"ConsumeAttrCumul", false, [] {
       return std::unique_ptr<SocSolver>(
           std::make_unique<GreedySolver>(GreedyKind::kConsumeAttrCumul));
     }},
    {"ConsumeQueries", false, [] { return std::unique_ptr<SocSolver>(
                                       std::make_unique<GreedySolver>(
                                           GreedyKind::kConsumeQueries)); }},
    {"Fallback", true, [] { return std::unique_ptr<SocSolver>(
                                std::make_unique<FallbackSolver>()); }},
};

}  // namespace

std::vector<std::string> RegisteredSolverNames() {
  std::vector<std::string> names;
  names.reserve(std::size(kRegistry));
  for (const RegistryEntry& entry : kRegistry) names.emplace_back(entry.name);
  return names;
}

bool IsExactSolver(const std::string& name) {
  for (const RegistryEntry& entry : kRegistry) {
    if (name == entry.name) return entry.exact;
  }
  return false;
}

StatusOr<std::unique_ptr<SocSolver>> CreateSolverByName(
    const std::string& name) {
  for (const RegistryEntry& entry : kRegistry) {
    if (name == entry.name) return entry.make();
  }
  return NotFoundError("unknown solver '" + name + "'; valid: " +
                       Join(RegisteredSolverNames(), ", "));
}

}  // namespace soc
