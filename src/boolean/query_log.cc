#include "boolean/query_log.h"

#include "common/csv.h"

namespace soc {

void QueryLog::AddQuery(DynamicBitset query) {
  SOC_CHECK_EQ(static_cast<int>(query.size()), num_attributes());
  queries_.push_back(std::move(query));
}

void QueryLog::AddQueryFromIndices(const std::vector<int>& attribute_ids) {
  AddQuery(DynamicBitset::FromIndices(num_attributes(), attribute_ids));
}

std::vector<int> QueryLog::AttributeFrequencies() const {
  std::vector<int> freq(num_attributes(), 0);
  for (const DynamicBitset& q : queries_) {
    q.ForEachSetBit([&freq](int attr) { ++freq[attr]; });
  }
  return freq;
}

int QueryLog::CountQueriesContainingAll(const DynamicBitset& attributes) const {
  int count = 0;
  for (const DynamicBitset& q : queries_) {
    if (attributes.IsSubsetOf(q)) ++count;
  }
  return count;
}

std::string QueryLog::ToCsv() const {
  CsvTable csv;
  csv.header = schema_.names();
  for (const DynamicBitset& q : queries_) {
    std::vector<std::string> fields(num_attributes());
    for (int a = 0; a < num_attributes(); ++a) {
      fields[a] = q.Test(a) ? "1" : "0";
    }
    csv.rows.push_back(std::move(fields));
  }
  return WriteCsv(csv);
}

StatusOr<QueryLog> QueryLog::FromCsv(const std::string& text) {
  SOC_ASSIGN_OR_RETURN(CsvTable csv, ParseCsv(text, /*has_header=*/true));
  SOC_ASSIGN_OR_RETURN(AttributeSchema schema,
                       AttributeSchema::Create(csv.header));
  QueryLog log(std::move(schema));
  for (std::size_t r = 0; r < csv.rows.size(); ++r) {
    DynamicBitset q(log.num_attributes());
    for (int a = 0; a < log.num_attributes(); ++a) {
      const std::string& cell = csv.rows[r][a];
      if (cell == "1") {
        q.Set(a);
      } else if (cell != "0") {
        return InvalidArgumentError("non-Boolean cell '" + cell +
                                    "' in query " + std::to_string(r));
      }
    }
    log.AddQuery(std::move(q));
  }
  return log;
}

}  // namespace soc
