#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <utility>

#include "boolean/schema.h"
#include "common/random.h"
#include "datagen/car_dataset.h"
#include "datagen/workload.h"

namespace e2ebench {

namespace {

using soc::AttributeSchema;
using soc::QueryLog;
using soc::Rng;

// Independent stream seeds from (seed, a, b) (splitmix64 finaliser).
std::uint64_t Mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + a * 0xBF58476D1CE4E5B9ull +
                    b * 0x94D049BB133111EBull + 0x2545F4914F6CDD1Dull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

QueryLog Synthetic(const AttributeSchema& schema, int queries,
                   std::uint64_t seed) {
  soc::datagen::SyntheticWorkloadOptions options;
  options.num_queries = queries;
  options.seed = seed;
  return soc::datagen::MakeSyntheticWorkload(schema, options);
}

// greedy_large_log: one tenant, 20000 synthetic queries over 64
// attributes (about 11.5k distinct), republished every round. Requests
// are ConsumeAttrCumul at m = 8 on tuples with exactly 32 of the 64
// attributes, distinct within an epoch, so every request is a solve.
constexpr int kLargeWidth = 64;
constexpr int kLargeQueries = 20000;
constexpr int kLargeRequestsPerRound = 500;

Mask HalfFullTuple(Rng& rng, int width) {
  Mask tuple = 0;
  for (const int a : rng.SampleWithoutReplacement(width, width / 2)) {
    tuple |= Mask{1} << a;
  }
  return tuple;
}

std::unique_ptr<Workload> GreedyLargeLog(std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "greedy_large_log";
  w->tenants = {"catalog"};
  // At m = 8 one B&B solve of these requests visits about 18M nodes
  // (over a minute) and MFI mining takes about a second, so the traced
  // mode calls those layers at m = 2 on the same log and tuples.
  w->exact_probe_m = 2;
  const AttributeSchema schema = AttributeSchema::Anonymous(kLargeWidth);
  const auto catalog = [seed, schema](int epoch) {
    return Synthetic(schema, kLargeQueries, Mix(seed, 1, epoch));
  };
  w->initial_logs.push_back(catalog(0));
  const auto requests = [seed](int index, int count) {
    Rng rng(Mix(seed, 2, index));
    std::set<Mask> seen;
    std::vector<PlannedRequest> out;
    while (static_cast<int>(out.size()) < count) {
      const Mask tuple = HalfFullTuple(rng, kLargeWidth);
      if (!seen.insert(tuple).second) continue;
      out.push_back({0, tuple, 8, "ConsumeAttrCumul", false});
    }
    return out;
  };
  // The warm-up serves epoch 1; every round republishes first.
  w->warmup = requests(-1, 50);
  w->round = [catalog, requests](int index) {
    Round round;
    round.publish = {0, catalog(index + 1)};
    round.requests = requests(index, kLargeRequestsPerRound);
    return round;
  };
  return w;
}

// exact_bnb: the paper's Fig 8-9 setting. 2000 synthetic queries over
// the 32 car attributes, advertised cars drawn from the 15,211-car
// dataset, BranchAndBound at m in {5, 6, 7}. Each round republishes the
// log and asks 50 distinct cars at each budget, so every (tuple, m)
// appears once per epoch and every request is a solve. Short rounds
// spread a run over many logs: B&B cost depends on the log.
//
// It depends far more on the car: a solve costs about 1.7 times as much
// for every attribute the car has, and the cars with 18 or more of the 32
// attributes, about 6% of the requests, take about 45% of the serving
// time. A plain random draw of cars lets their share, and with it the
// run's throughput and p90, move by a fifth from seed to seed. So each
// round's cars are a systematic sample of the cars ordered by attribute
// count, in a fresh seeded order within each count: every round has the
// dataset's mix of attribute counts to within one car per count. The
// rounds' start offsets follow the golden-ratio sequence from a seeded
// start, so the rare heaviest counts come up equally often in every run.
// The seed picks which cars of each count are asked, and the logs.
constexpr int kCarQueries = 2000;
constexpr int kCarsPerRound = 50;
constexpr double kGoldenFraction = 0.6180339887498949;

std::unique_ptr<Workload> ExactBnb(std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "exact_bnb";
  w->tenants = {"dealer"};
  const auto catalog = [seed](int epoch) {
    return Synthetic(soc::datagen::CarSchema(), kCarQueries,
                     Mix(seed, 1, epoch));
  };
  w->initial_logs.push_back(catalog(0));
  // The dataset itself is the paper's fixed stand-in. Its distinct cars,
  // grouped by attribute count.
  auto strata = std::make_shared<std::vector<std::vector<Mask>>>();
  {
    const soc::BooleanTable dataset = soc::datagen::GenerateCarDataset();
    std::set<Mask> distinct;
    for (int r = 0; r < dataset.num_rows(); ++r) {
      distinct.insert(ToMask(dataset.row(r)));
    }
    for (const Mask car : distinct) {
      const int count = std::popcount(car);
      if (count >= static_cast<int>(strata->size())) strata->resize(count + 1);
      (*strata)[count].push_back(car);
    }
  }
  const double start = Rng(Mix(seed, 6)).NextDouble();
  const auto requests = [seed, strata, start](int index, int num_cars) {
    Rng rng(Mix(seed, 2, index));
    std::vector<Mask> order;
    for (std::vector<Mask> stratum : *strata) {
      rng.Shuffle(stratum);
      order.insert(order.end(), stratum.begin(), stratum.end());
    }
    const double offset = start + index * kGoldenFraction;
    const double phase = offset - std::floor(offset);  // In [0, 1].
    const double step = static_cast<double>(order.size()) / num_cars;
    std::vector<PlannedRequest> out;
    for (int c = 0; c < num_cars; ++c) {
      const Mask car = order[std::min(
          order.size() - 1, static_cast<std::size_t>((phase + c) * step))];
      for (const int m : {5, 6, 7}) {
        out.push_back({0, car, m, "BranchAndBound", false});
      }
    }
    rng.Shuffle(out);
    return out;
  };
  w->warmup = requests(-1, 10);
  w->round = [catalog, requests](int index) {
    Round round;
    round.publish = {0, catalog(index + 1)};
    round.requests = requests(index, kCarsPerRound);
    return round;
  };
  return w;
}

// tenant_epochs: 16 small tenants (12-16 searched attributes, 200-320
// queries) on two shards. Tenant popularity is Zipf(1.0); each tenant has
// a fixed pool of (tuple, m) entries that its requests repeat, so the
// result cache answers most of them. Every round republishes one of the
// three hottest tenants, invalidating its entries.
//
// Each catalog also has two attributes that no query mentions (features
// nobody has searched for yet). Two of each tenant's pool tuples are made
// of those alone: they satisfy no query at any budget, so the service's
// zero-visibility gate answers them without a solver.
//
// Each pool entry belongs to one solver class, exact (Fallback,
// BranchAndBound) or heuristic (ConsumeAttrCumul, MaxFreqItemSets), and
// its requests draw their tier from that class. The result cache keys
// answers without the tier, so an exact request that followed a
// heuristic one on the same key would be answered with the heuristic's
// entry; keeping the classes apart keeps that fault out of the seeded
// mix, where how often it fires would depend on the seed. The fault is
// instead provoked once per round by the fixed probe below, so the share
// of failed operations is the same in every run.
constexpr int kTenants = 16;
constexpr int kTuplesPerTenant = 50;
constexpr int kMaxM = 4;
constexpr int kTenantRequestsPerRound = 498;
constexpr int kHotTenants = 3;
constexpr int kUnsearched = 2;
constexpr int kUnsearchedTuplesPerTenant = 2;

// The fault probe: a fixed catalog (socvis_datagen --what=synthetic-
// workload --queries=300 --attrs=14 --seed=17) and tuple on which
// ConsumeAttrCumul at m = 5 satisfies 30 queries and the optimum is 33.
// ConsumeAttrCumul asks first and caches its answer; BranchAndBound on
// the same key then gets that answer replayed.
constexpr char kProbeTenant[] = "probe";
constexpr char kProbeTuple[] = "10001010110110";
constexpr int kProbeM = 5;

struct PoolEntry {
  Mask tuple;
  int m;
  bool exact;
};

std::unique_ptr<Workload> TenantEpochs(std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "tenant_epochs";
  w->num_shards = 2;
  std::vector<int> widths;
  std::vector<int> sizes;
  for (int t = 0; t < kTenants; ++t) {
    w->tenants.push_back(std::string("t").append(std::to_string(t)));
    widths.push_back(12 + t % 5);
    sizes.push_back(200 + 20 * (t % 7));
  }
  const auto catalog = [seed, widths, sizes](int t, int epoch) {
    const QueryLog searched = Synthetic(AttributeSchema::Anonymous(widths[t]),
                                        sizes[t], Mix(seed, 10 + t, epoch));
    QueryLog log(AttributeSchema::Anonymous(widths[t] + kUnsearched));
    for (const soc::DynamicBitset& query : searched.queries()) {
      std::vector<int> attributes;
      query.ForEachSetBit([&attributes](int a) { attributes.push_back(a); });
      log.AddQueryFromIndices(attributes);
    }
    return log;
  };
  for (int t = 0; t < kTenants; ++t) w->initial_logs.push_back(catalog(t, 0));
  const int probe = kTenants;
  w->tenants.push_back(kProbeTenant);
  w->initial_logs.push_back(
      Synthetic(AttributeSchema::Anonymous(14), 300, /*seed=*/17));
  const Mask probe_tuple =
      ToMask(soc::DynamicBitset::FromString(kProbeTuple));

  auto pools = std::make_shared<std::vector<std::vector<PoolEntry>>>();
  Rng pool_rng(Mix(seed, 3));
  for (int t = 0; t < kTenants; ++t) {
    std::set<Mask> tuples;
    while (static_cast<int>(tuples.size()) < kTuplesPerTenant) {
      Mask tuple = 0;
      for (int a = 0; a < widths[t]; ++a) {
        if (pool_rng.NextBernoulli(0.55)) tuple |= Mask{1} << a;
      }
      tuples.insert(tuple);
    }
    // Nonempty subsets of the unsearched attributes, 1 to 2^k - 1.
    for (const int subset : pool_rng.SampleWithoutReplacement(
             (1 << kUnsearched) - 1, kUnsearchedTuplesPerTenant)) {
      tuples.insert(Mask(subset + 1) << widths[t]);
    }
    std::vector<PoolEntry> pool;
    for (const Mask tuple : tuples) {
      for (int m = 1; m <= kMaxM; ++m) {
        pool.push_back({tuple, m, pool_rng.NextBernoulli(0.5)});
      }
    }
    pools->push_back(std::move(pool));
  }
  const auto request = [](int t, const PoolEntry& e, Rng& rng) {
    static const char* const kExact[] = {"Fallback", "BranchAndBound"};
    static const char* const kHeuristic[] = {"ConsumeAttrCumul",
                                             "MaxFreqItemSets"};
    const int tier = static_cast<int>(rng.NextUint64(2));
    return PlannedRequest{t, e.tuple, e.m,
                          e.exact ? kExact[tier] : kHeuristic[tier], false};
  };
  {
    Rng rng(Mix(seed, 4));
    for (int t = 0; t < kTenants; ++t) {
      for (const PoolEntry& e : (*pools)[t]) {
        w->warmup.push_back(request(t, e, rng));
      }
    }
  }
  const soc::ZipfDistribution zipf(kTenants, 1.0);
  w->round = [seed, catalog, pools, request, zipf, probe,
              probe_tuple](int index) {
    Round round;
    const int hot = index % kHotTenants;
    round.publish = {hot, catalog(hot, index + 1)};
    Rng rng(Mix(seed, 5, index));
    for (int i = 0; i < kTenantRequestsPerRound; ++i) {
      const int t = zipf.Sample(rng);
      const auto& pool = (*pools)[t];
      round.requests.push_back(request(t, pool[rng.NextUint64(pool.size())], rng));
    }
    round.requests.push_back(
        {probe, probe_tuple, kProbeM, "ConsumeAttrCumul", true});
    round.requests.push_back(
        {probe, probe_tuple, kProbeM, "BranchAndBound", true});
    return round;
  };
  return w;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "greedy_large_log") return GreedyLargeLog(seed);
  if (name == "exact_bnb") return ExactBnb(seed);
  if (name == "tenant_epochs") return TenantEpochs(seed);
  return nullptr;
}

Mask ToMask(const soc::DynamicBitset& bits) {
  Mask mask = 0;
  bits.ForEachSetBit([&mask](int a) { mask |= Mask{1} << a; });
  return mask;
}

soc::DynamicBitset ToBitset(Mask mask, int width) {
  soc::DynamicBitset bits(static_cast<std::size_t>(width));
  for (int a = 0; a < width; ++a) {
    if ((mask >> a) & 1) bits.Set(static_cast<std::size_t>(a));
  }
  return bits;
}

MaskLog ToMaskLog(const soc::QueryLog& log) {
  std::vector<Mask> queries;
  queries.reserve(log.queries().size());
  for (const soc::DynamicBitset& q : log.queries()) queries.push_back(ToMask(q));
  return MaskLog(log.num_attributes(), std::move(queries));
}

}  // namespace e2ebench
