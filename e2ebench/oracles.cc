#include "oracles.h"

#include <algorithm>
#include <bit>
#include <map>
#include <stdexcept>
#include <utility>

namespace e2ebench {

namespace {

Mask Bit(int attr) { return Mask{1} << attr; }

int EffectiveBudget(Mask tuple, int m) {
  return std::min(m, std::popcount(tuple));
}

// Attributes of `mask` by descending frequency, then ascending index.
std::vector<int> ByFrequency(const MaskLog& log, Mask mask) {
  std::vector<int> attrs;
  for (int a = 0; a < log.width; ++a) {
    if ((mask & Bit(a)) != 0) attrs.push_back(a);
  }
  std::stable_sort(attrs.begin(), attrs.end(), [&log](int a, int b) {
    return log.frequency[a] > log.frequency[b];
  });
  return attrs;
}

std::uint64_t Binomial(int n, int k) {
  std::uint64_t result = 1;
  for (int i = 1; i <= k; ++i) {
    result = result * static_cast<std::uint64_t>(n - k + i) /
             static_cast<std::uint64_t>(i);
  }
  return result;
}

}  // namespace

MaskLog::MaskLog(int width_in, std::vector<Mask> queries_in)
    : width(width_in), queries(std::move(queries_in)), frequency(width_in) {
  if (width < 0 || width > 64) {
    throw std::invalid_argument("oracles take logs of at most 64 attributes");
  }
  for (const Mask q : queries) {
    for (int a = 0; a < width; ++a) {
      if ((q & Bit(a)) != 0) ++frequency[a];
    }
  }
}

int Recount(const MaskLog& log, Mask selection) {
  int count = 0;
  for (const Mask q : log.queries) {
    if ((q & ~selection) == 0) ++count;
  }
  return count;
}

std::vector<int> ReferenceGreedyPicks(const MaskLog& log, Mask tuple, int m) {
  const int m_eff = EffectiveBudget(tuple, m);
  std::vector<int> picks;
  Mask selected = 0;
  // Queries that contain the whole selection (all of them at step 0,
  // where the joint counts are the plain frequencies).
  std::vector<Mask> containing;
  std::vector<int> joint(log.width);
  for (int step = 0; step < m_eff; ++step) {
    if (step == 0) {
      joint = log.frequency;
    } else {
      std::fill(joint.begin(), joint.end(), 0);
      for (const Mask q : containing) {
        for (int a = 0; a < log.width; ++a) {
          if ((q & Bit(a)) != 0) ++joint[a];
        }
      }
    }
    int best = -1;
    for (int a = 0; a < log.width; ++a) {
      if ((tuple & ~selected & Bit(a)) == 0) continue;
      if (best < 0 || joint[a] > joint[best] ||
          (joint[a] == joint[best] &&
           log.frequency[a] > log.frequency[best])) {
        best = a;
      }
    }
    if (joint[best] == 0) break;  // Fill by frequency below.
    selected |= Bit(best);
    picks.push_back(best);
    if (step == 0) {
      for (const Mask q : log.queries) {
        if ((q & Bit(best)) != 0) containing.push_back(q);
      }
    } else {
      std::erase_if(containing,
                    [best](Mask q) { return (q & Bit(best)) == 0; });
    }
  }
  for (const int a : ByFrequency(log, tuple & ~selected)) {
    if (static_cast<int>(picks.size()) >= m_eff) break;
    picks.push_back(a);
  }
  return picks;
}

Mask ReferenceGreedy(const MaskLog& log, Mask tuple, int m) {
  Mask selection = 0;
  for (const int a : ReferenceGreedyPicks(log, tuple, m)) selection |= Bit(a);
  return selection;
}

int ExhaustiveOptimum(const MaskLog& log, Mask tuple, int m) {
  const int m_eff = EffectiveBudget(tuple, m);
  std::map<Mask, int> weight;  // Within-budget queries q ⊆ t, by count.
  Mask support = 0;
  int total = 0;
  for (const Mask q : log.queries) {
    if ((q & ~tuple) == 0 && std::popcount(q) <= m_eff) {
      ++weight[q];
      support |= q;
      ++total;
    }
  }
  const int k = std::popcount(support);
  if (k <= m_eff) return total;  // One selection satisfies them all.

  // Re-index the support's attributes as bits 0..k-1 and enumerate every
  // k-bit mask with m_eff bits set (Gosper's hack).
  if (k > 62 || Binomial(k, m_eff) > 200'000'000) {
    throw std::runtime_error("exhaustive optimum too large to enumerate");
  }
  std::vector<int> attrs;
  for (int a = 0; a < log.width; ++a) {
    if ((support & Bit(a)) != 0) attrs.push_back(a);
  }
  std::vector<std::pair<Mask, int>> compact;
  for (const auto& [q, w] : weight) {
    Mask c = 0;
    for (int i = 0; i < k; ++i) {
      if ((q & Bit(attrs[i])) != 0) c |= Bit(i);
    }
    compact.emplace_back(c, w);
  }
  int best = 0;
  const Mask limit = Bit(k);
  for (Mask s = Bit(m_eff) - 1; s < limit;) {
    int count = 0;
    for (const auto& [c, w] : compact) {
      if ((c & ~s) == 0) count += w;
    }
    best = std::max(best, count);
    if (s == 0) break;  // m_eff == 0: the single empty selection.
    const Mask low = s & (~s + 1);
    const Mask ripple = s + low;
    s = (((ripple ^ s) >> 2) / low) | ripple;
  }
  return best;
}

namespace {

MaskLog MakeLog(int width, const std::vector<std::vector<int>>& queries) {
  std::vector<Mask> masks;
  for (const auto& q : queries) {
    Mask mask = 0;
    for (const int a : q) mask |= Bit(a);
    masks.push_back(mask);
  }
  return MaskLog(width, std::move(masks));
}

Mask MaskOf(const std::vector<int>& attrs) {
  Mask mask = 0;
  for (const int a : attrs) mask |= Bit(a);
  return mask;
}

}  // namespace

std::string OracleSelfTest() {
  struct Case {
    const char* name;
    MaskLog log;
    Mask tuple;
    int m;
    std::vector<int> greedy_picks;
    int greedy_count;
    int optimum;
  };
  const std::vector<Case> cases = {
      // The paper's running example (Fig 1): {AC, FourDoor, PowerDoors}
      // satisfies q1..q3. Greedy takes PowerDoors (3 queries), then AC
      // (joint count 1, tied with FourDoor and PowerBrakes; AC and
      // FourDoor win on frequency, AC on index), then finds no joint
      // query and fills with FourDoor by frequency.
      {"running example",
       MakeLog(6, {{0, 1}, {0, 3}, {1, 3}, {3, 5}, {2, 4}}),
       MaskOf({0, 1, 3, 4, 5}), 3, {3, 0, 1}, 3, 3},
      // Greedy is suboptimal: it opens with attribute 0 (three-way tie on
      // frequency, lowest index) and then 2, satisfying only {0,2};
      // {2,3} satisfies the two copies of {2,3}.
      {"greedy below optimum",
       MakeLog(4, {{0, 1}, {0, 2}, {0, 3}, {2, 3}, {2, 3}}), MaskOf({0, 1, 2, 3}),
       2, {0, 2}, 1, 2},
      // m above |t| clamps to |t|; the empty query matches every tuple.
      {"budget clamp and empty query",
       MakeLog(5, {{}, {1}, {1, 2}, {4}}), MaskOf({1, 2}), 4, {1, 2}, 3, 3},
      {"zero budget", MakeLog(5, {{}, {1}, {1, 2}, {4}}), MaskOf({1, 2}), 0,
       {}, 1, 1},
      // No query mentions the tuple: the pick falls back to frequency,
      // then index.
      {"no joint query", MakeLog(3, {{2}}), MaskOf({0, 1}), 1, {0}, 0, 0},
  };
  for (const Case& c : cases) {
    const std::vector<int> picks = ReferenceGreedyPicks(c.log, c.tuple, c.m);
    if (picks != c.greedy_picks) {
      return std::string(c.name) + ": reference greedy picked other attributes";
    }
    if (Recount(c.log, ReferenceGreedy(c.log, c.tuple, c.m)) != c.greedy_count) {
      return std::string(c.name) + ": recount of the greedy selection";
    }
    if (ExhaustiveOptimum(c.log, c.tuple, c.m) != c.optimum) {
      return std::string(c.name) + ": exhaustive optimum";
    }
  }
  if (Recount(cases[0].log, MaskOf({0, 1, 3, 4, 5})) != 4) {
    return "running example: recount of the full tuple";
  }
  return "";
}

}  // namespace e2ebench
