#include "itemsets/random_walk.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <unordered_map>

#include "common/logging.h"

namespace soc::itemsets {

namespace {

// One two-phase walker, reused across the walks of a mining call: its
// buffers are sized once, so a walk allocates nothing. It draws exactly
// the random numbers of the textbook formulation — a Fisher–Yates
// shuffle of the items, then one uniform pick among the frequent
// extensions per up step — so it finds the same itemsets in the same
// order.
class Walker {
 public:
  Walker(const TransactionDatabase& db, int min_support)
      : min_support_(min_support),
        num_transactions_(db.num_transactions()),
        words_((static_cast<std::size_t>(db.num_transactions()) + 63) / 64),
        order_(db.num_items()),
        suffixes_((static_cast<std::size_t>(db.num_items()) + 1) * words_),
        itemset_(db.num_items()) {
    columns_.reserve(db.num_items());
    for (int item = 0; item < db.num_items(); ++item) {
      columns_.push_back(db.item_tids(item).words());
    }
    candidates_.reserve(db.num_items());
  }

  // One walk. Afterwards itemset() is a maximal frequent itemset with
  // support(); when even the empty itemset is infrequent (fewer than
  // min_support transactions) it is the empty itemset with the
  // transaction count, and Walk returns false.
  bool Walk(Rng& rng) {
    std::iota(order_.begin(), order_.end(), 0);
    rng.Shuffle(order_);  // Pre-shuffled removal order = uniform drops.
    itemset_.ResetAll();
    support_ = num_transactions_;
    if (support_ < min_support_) return false;

    // Down phase. Dropping order_[0..k) leaves order_[k..n), whose tidset
    // is S_k, the suffix AND of the removal order. Support only grows as
    // items drop, so the walk stops at the smallest frequent suffix: build
    // every suffix with plain ANDs, then binary-search it with a few
    // popcounts.
    const std::size_t n = order_.size();
    std::uint64_t* const all = Suffix(n);  // S_n: every transaction.
    std::fill(all, all + words_, ~std::uint64_t{0});
    if (num_transactions_ % 64 != 0) {
      all[words_ - 1] = (std::uint64_t{1} << (num_transactions_ % 64)) - 1;
    }
    for (std::size_t k = n; k-- > 0;) {
      const std::uint64_t* above = Suffix(k + 1);
      const std::uint64_t* column = columns_[order_[k]];
      std::uint64_t* suffix = Suffix(k);
      for (std::size_t w = 0; w < words_; ++w) suffix[w] = above[w] & column[w];
    }
    std::size_t kept = 0;  // Items dropped: the smallest frequent k.
    std::size_t hi = n;    // S_hi is frequent, with support_.
    while (kept < hi) {
      const std::size_t mid = kept + (hi - kept) / 2;
      const int support = Count(Suffix(mid));
      if (support >= min_support_) {
        hi = mid;
        support_ = support;
      } else {
        kept = mid + 1;
      }
    }
    std::uint64_t* const tids = Suffix(kept);  // Reused as the up tidset.
    for (std::size_t i = kept; i < n; ++i) itemset_.Set(order_[i]);

    // Up phase: add a uniformly random frequent extension until none is
    // left. The extensions are drawn from in ascending item order; an item
    // that is infrequent once stays so as the tidset shrinks, so the
    // candidates only ever lose members.
    candidates_.assign(order_.begin(),
                       order_.begin() + static_cast<std::ptrdiff_t>(kept));
    std::sort(candidates_.begin(), candidates_.end());
    while (true) {
      std::size_t frequent = 0;
      for (const int item : candidates_) {
        if (AndCount(tids, columns_[item], nullptr) >= min_support_) {
          candidates_[frequent++] = item;
        }
      }
      candidates_.resize(frequent);
      if (frequent == 0) break;
      const auto pick = static_cast<std::ptrdiff_t>(rng.NextUint64(frequent));
      const int item = candidates_[pick];
      candidates_.erase(candidates_.begin() + pick);
      itemset_.Set(item);
      support_ = AndCount(tids, columns_[item], tids);
    }
    return true;
  }

  const DynamicBitset& itemset() const { return itemset_; }
  int support() const { return support_; }

 private:
  std::uint64_t* Suffix(std::size_t k) { return suffixes_.data() + k * words_; }

  int Count(const std::uint64_t* words) const {
    int count = 0;
    for (std::size_t w = 0; w < words_; ++w) count += std::popcount(words[w]);
    return count;
  }

  // popcount(a & b); writes a & b to `out` unless it is null.
  int AndCount(const std::uint64_t* a, const std::uint64_t* b,
               std::uint64_t* out) const {
    int count = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      const std::uint64_t word = a[w] & b[w];
      if (out != nullptr) out[w] = word;
      count += std::popcount(word);
    }
    return count;
  }

  const int min_support_;
  const int num_transactions_;
  const std::size_t words_;  // Words per tidset.
  std::vector<const std::uint64_t*> columns_;  // Item tidsets.
  std::vector<int> order_;       // This walk's removal order.
  std::vector<int> candidates_;  // Up phase: possibly frequent extensions.
  // Down phase: S_0..S_n, words_ each; the up phase works in S_kept.
  std::vector<std::uint64_t> suffixes_;
  DynamicBitset itemset_;
  int support_ = 0;
};

}  // namespace

FrequentItemset TwoPhaseRandomWalk(const TransactionDatabase& db,
                                   int min_support, Rng& rng) {
  Walker walker(db, min_support);
  walker.Walk(rng);
  return {walker.itemset(), walker.support()};
}

StatusOr<std::vector<FrequentItemset>> MineMaximalItemsetsRandomWalk(
    const TransactionDatabase& db, int min_support,
    const RandomWalkOptions& options, RandomWalkStats* stats,
    SolveContext* context) {
  SOC_CHECK_GE(min_support, 1);
  const PhaseScope phase(context, "mine_walk");
  if (options.max_iterations <= 0) {
    return InvalidArgumentError("max_iterations must be positive");
  }
  Rng rng(options.seed);
  Walker walker(db, min_support);

  // Times each discovered itemset was found, and how many were found
  // exactly once (the Good–Turing estimate of the unseen).
  std::unordered_map<DynamicBitset, int, DynamicBitsetHash> times_discovered;
  int seen_once = 0;
  std::vector<FrequentItemset> mfis;

  int walks = 0;
  bool stopped_by_rule = false;
  while (walks < options.max_iterations) {
    // One tick per two-phase walk; a stop surrenders the walks so far.
    if (context != nullptr && context->Checkpoint()) break;
    if (options.good_turing_stop && walks >= options.min_iterations &&
        seen_once == 0) {
      stopped_by_rule = true;
      break;
    }
    ++walks;
    if (!walker.Walk(rng)) {
      // min_support exceeds the transaction count: nothing is frequent.
      if (stats != nullptr) {
        stats->walks = walks;
        stats->distinct_maximal = 0;
        stats->stopped_by_rule = false;
      }
      return std::vector<FrequentItemset>{};
    }
    const auto it = times_discovered.find(walker.itemset());
    if (it == times_discovered.end()) {
      times_discovered.emplace(walker.itemset(), 1);
      mfis.push_back({walker.itemset(), walker.support()});
      ++seen_once;
    } else if (it->second++ == 1) {
      --seen_once;
    }
  }

  if (stats != nullptr) {
    stats->walks = walks;
    stats->distinct_maximal = static_cast<int>(mfis.size());
    stats->stopped_by_rule = stopped_by_rule;
  }
  return mfis;
}

}  // namespace soc::itemsets
