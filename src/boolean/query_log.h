// QueryLog: the paper's workload Q — a multiset of conjunctive Boolean
// queries, each a subset of the attribute set (Sec II.A).

#ifndef SOC_BOOLEAN_QUERY_LOG_H_
#define SOC_BOOLEAN_QUERY_LOG_H_

#include <string>
#include <vector>

#include "boolean/schema.h"
#include "common/bitset.h"
#include "common/status.h"

namespace soc {

class QueryLog {
 public:
  QueryLog() = default;
  explicit QueryLog(AttributeSchema schema) : schema_(std::move(schema)) {}

  const AttributeSchema& schema() const { return schema_; }
  int num_attributes() const { return schema_.size(); }
  int size() const { return static_cast<int>(queries_.size()); }
  bool empty() const { return queries_.empty(); }

  const DynamicBitset& query(int index) const { return queries_.at(index); }
  const std::vector<DynamicBitset>& queries() const { return queries_; }

  // Appends a query; its bitset size must match the schema width.
  // Empty queries (no attributes) are legal and match every tuple.
  void AddQuery(DynamicBitset query);
  void AddQueryFromIndices(const std::vector<int>& attribute_ids);

  // Per-attribute number of queries specifying the attribute (the statistic
  // driving ConsumeAttr).
  std::vector<int> AttributeFrequencies() const;

  // Number of queries whose attribute set contains every attribute in
  // `attributes` (the co-occurrence statistic driving ConsumeAttrCumul).
  int CountQueriesContainingAll(const DynamicBitset& attributes) const;

  // CSV persistence (same layout as BooleanTable).
  std::string ToCsv() const;
  static StatusOr<QueryLog> FromCsv(const std::string& text);

 private:
  AttributeSchema schema_;
  std::vector<DynamicBitset> queries_;
};

}  // namespace soc

#endif  // SOC_BOOLEAN_QUERY_LOG_H_
