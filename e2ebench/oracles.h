// Reference answers the benchmark checks every served answer against.
//
// They work on plain 64-bit attribute masks (bit a = attribute a) and
// share no code with the program's solvers, evaluator or kernels, so a
// fault in those cannot hide itself here. Logs wider than 64 attributes
// are out of scope for every workload of this benchmark.

#ifndef E2EBENCH_ORACLES_H_
#define E2EBENCH_ORACLES_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

using Mask = std::uint64_t;

// One catalog (a tenant's log at one epoch) as masks, plus the
// per-attribute query counts the reference greedy ranks by.
struct MaskLog {
  int width = 0;
  std::vector<Mask> queries;
  std::vector<int> frequency;  // frequency[a] = #queries mentioning a.

  MaskLog(int width, std::vector<Mask> queries);
};

// Naive recount: the number of queries q with q ⊆ selection.
int Recount(const MaskLog& log, Mask selection);

// Plain ConsumeAttrCumul (Sec IV.D) with the tie-breaks documented in
// the program's core/greedy.cc: each step takes the candidate of the
// tuple that maximises the number of queries containing the selection
// plus the candidate; ties go to the higher attribute frequency, then the
// lower index. When no query contains the selection plus any candidate,
// the rest of the budget is filled by frequency (then index). Returns the
// picks in order; their union is the reference selection, of size
// min(m, |tuple|).
std::vector<int> ReferenceGreedyPicks(const MaskLog& log, Mask tuple, int m);
Mask ReferenceGreedy(const MaskLog& log, Mask tuple, int m);

// Exhaustive optimum: the largest number of queries that one selection of
// min(m, |tuple|) attributes of the tuple satisfies. Only queries q ⊆ t
// with |q| <= min(m, |t|) can ever count, so it enumerates every
// selection of that size inside the union of those queries.
int ExhaustiveOptimum(const MaskLog& log, Mask tuple, int m);

// Runs the oracles on small hand-checked instances. Returns an empty
// string on success, else a description of the first mismatch.
std::string OracleSelfTest();

}  // namespace e2ebench

#endif  // E2EBENCH_ORACLES_H_
