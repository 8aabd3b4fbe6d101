// Golden pin of the two-phase random walk (Sec IV.C). The miner's output
// is a pure function of (database, threshold, options): the RNG draws,
// the walk count, the Good–Turing stop and the discovery order are all
// deterministic. This test mines fixed inputs and compares the walk
// count, `stopped_by_rule` and the ordered (itemset, support) list with
// tests/golden/walk-expected.txt (long lists by their head and a
// digest), so an optimisation of the walker that
// changes any answer — or merely the order of discovery — fails here.
//
// Inputs: the paper's query log (complemented) at every threshold, three
// seeded src/check instances at several thresholds, a row database with
// the stopping rule off and with no minimum walk count, and a run of
// single TwoPhaseRandomWalk calls sharing one Rng.
//
// A mismatch prints the whole actual fingerprint. After an intentional
// change of the walk, that text is the new tests/golden/walk-expected.txt.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/instance.h"
#include "common/random.h"
#include "itemsets/random_walk.h"
#include "itemsets/transaction_db.h"
#include "paper_example.h"

#ifndef SOC_GOLDEN_DIR
#error "SOC_GOLDEN_DIR must point at tests/golden"
#endif

namespace soc::itemsets {
namespace {

// Lists longer than this are pinned by their first kListed entries plus
// an FNV-1a digest of the whole ordered list, to keep the golden short.
constexpr std::size_t kListed = 12;

void AppendMining(const std::string& name, const TransactionDatabase& db,
                  int threshold, const RandomWalkOptions& options,
                  std::ostringstream* out) {
  RandomWalkStats stats;
  const auto mined =
      MineMaximalItemsetsRandomWalk(db, threshold, options, &stats);
  ASSERT_TRUE(mined.ok()) << name;
  *out << "# " << name << " threshold=" << threshold << "\n"
       << "walks=" << stats.walks << " stopped=" << stats.stopped_by_rule
       << " distinct=" << stats.distinct_maximal << "\n";
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < mined->size(); ++i) {
    const FrequentItemset& f = (*mined)[i];
    const std::string entry =
        f.items.ToString() + " " + std::to_string(f.support);
    for (const char c : entry + "\n") {
      digest = (digest ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
    if (i < kListed) *out << entry << "\n";
  }
  if (mined->size() > kListed) *out << "... digest=" << digest << "\n";
}

std::string Fingerprint() {
  std::ostringstream out;
  const RandomWalkOptions defaults;

  const QueryLog paper = testdata::PaperQueryLog();
  const TransactionDatabase paper_db =
      TransactionDatabase::FromComplementedQueryLog(paper);
  for (int r = 1; r <= paper.size() + 1; ++r) {
    AppendMining("paper", paper_db, r, defaults, &out);
  }

  check::GeneratorOptions shape;
  shape.min_attrs = 8;
  shape.max_attrs = 16;
  shape.min_queries = 60;
  shape.max_queries = 220;
  for (const std::uint64_t seed : {11u, 29u, 47u}) {
    const check::Instance instance = check::GenerateInstance(seed, shape);
    const TransactionDatabase db =
        TransactionDatabase::FromComplementedQueryLog(instance.log);
    const int q = instance.log.size();
    const std::string name = "check-" + std::to_string(seed) + " (" +
                             check::InstanceSummary(instance) + ")";
    for (const int r : {std::max(1, q / 2), std::max(1, q / 5),
                        std::max(1, q / 20), 1}) {
      AppendMining(name, db, r, defaults, &out);
    }
  }

  std::vector<DynamicBitset> rows;
  Rng row_rng(7);
  for (int t = 0; t < 150; ++t) {
    DynamicBitset row(10);
    for (int i = 0; i < 10; ++i) row.Set(i, row_rng.NextBernoulli(0.6));
    rows.push_back(std::move(row));
  }
  const TransactionDatabase row_db(std::move(rows));
  RandomWalkOptions capped;
  capped.good_turing_stop = false;
  capped.max_iterations = 300;
  capped.seed = 99;
  AppendMining("rows capped", row_db, 20, capped, &out);
  RandomWalkOptions no_floor;
  no_floor.min_iterations = 0;
  AppendMining("rows no-floor", row_db, 20, no_floor, &out);
  no_floor.min_iterations = 1;
  AppendMining("rows floor-1", row_db, 20, no_floor, &out);

  Rng rng(2008);
  out << "# single walks\n";
  for (int i = 0; i < 40; ++i) {
    const int threshold = 1 + i % 7 * 25;
    const FrequentItemset f = TwoPhaseRandomWalk(row_db, threshold, rng);
    out << threshold << " " << f.items.ToString() << " " << f.support
        << "\n";
  }
  return out.str();
}

TEST(WalkGoldenTest, MatchesCapturedWalks) {
  const std::string actual = Fingerprint();
  const std::string full = "\nactual fingerprint:\n" + actual;
  const std::string path = std::string(SOC_GOLDEN_DIR) + "/walk-expected.txt";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream expected;
  expected << in.rdbuf();
  // Compare line by line so a mismatch names its case.
  std::istringstream want(expected.str());
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  std::string section;
  int line = 0;
  while (std::getline(want, want_line)) {
    ++line;
    if (want_line.rfind("# ", 0) == 0) section = want_line;
    ASSERT_TRUE(static_cast<bool>(std::getline(got, got_line)))
        << "output ends before golden line " << line << " (" << section
        << ")" << full;
    ASSERT_EQ(got_line, want_line)
        << "line " << line << " in " << section << full;
  }
  EXPECT_FALSE(static_cast<bool>(std::getline(got, got_line)))
      << "output has more lines than the golden" << full;
}

}  // namespace
}  // namespace soc::itemsets
