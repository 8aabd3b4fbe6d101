// The registry's name table and factory table were historically two
// separate lists that could drift apart; these tests pin the invariant
// that every advertised name constructs (and nothing else does).

#include "core/solver_registry.h"

#include <set>

#include <gtest/gtest.h>

#include "common/status.h"
#include "paper_example.h"

namespace soc {
namespace {

TEST(SolverRegistryTest, EveryAdvertisedNameConstructs) {
  const std::vector<std::string> names = RegisteredSolverNames();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    auto solver = CreateSolverByName(name);
    ASSERT_TRUE(solver.ok()) << name << ": " << solver.status().ToString();
    ASSERT_NE(solver.value(), nullptr) << name;
  }
}

TEST(SolverRegistryTest, NamesAreUniqueAndStable) {
  const std::vector<std::string> names = RegisteredSolverNames();
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
  // The paper's solver set; additions are fine, removals are a break.
  for (const char* required :
       {"BruteForce", "BranchAndBound", "ILP", "MaxFreqItemSets",
        "MaxFreqItemSets-dfs", "ConsumeAttr", "ConsumeAttrCumul",
        "ConsumeQueries", "Fallback"}) {
    EXPECT_EQ(unique.count(required), 1u) << required;
  }
}

TEST(SolverRegistryTest, ConstructedSolverReportsItsOwnName) {
  // name() and the registry key agree except for the "-dfs" engine
  // variant, which is the same solver class under a different engine.
  for (const std::string& name : RegisteredSolverNames()) {
    auto solver = CreateSolverByName(name);
    ASSERT_TRUE(solver.ok()) << name;
    if (name == "MaxFreqItemSets-dfs") {
      EXPECT_EQ(solver.value()->name(), "MaxFreqItemSets");
    } else {
      EXPECT_EQ(solver.value()->name(), name) << name;
    }
  }
}

TEST(SolverRegistryTest, ExactTiersProveTheirAnswersOptimal) {
  // The exact column decides which cached answers may serve a request
  // (tenant/result_cache.h): an exact tier's undegraded answer must carry
  // proved_optimal, and a heuristic's never does.
  const std::set<std::string> exact = {"BruteForce", "BranchAndBound", "ILP",
                                       "MaxFreqItemSets-dfs", "Fallback"};
  const QueryLog log = testdata::PaperQueryLog();
  for (const std::string& name : RegisteredSolverNames()) {
    EXPECT_EQ(IsExactSolver(name), exact.count(name) == 1) << name;
    auto solver = CreateSolverByName(name);
    ASSERT_TRUE(solver.ok()) << name;
    const auto solution =
        solver.value()->Solve(log, testdata::PaperNewTuple(), 3);
    ASSERT_TRUE(solution.ok()) << name;
    ASSERT_FALSE(IsDegraded(solution.value())) << name;
    EXPECT_EQ(solution->proved_optimal, IsExactSolver(name)) << name;
  }
  EXPECT_FALSE(IsExactSolver("NoSuchSolver"));
}

TEST(SolverRegistryTest, UnknownNameIsNotFound) {
  auto solver = CreateSolverByName("NoSuchSolver");
  ASSERT_FALSE(solver.ok());
  EXPECT_EQ(solver.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace soc
