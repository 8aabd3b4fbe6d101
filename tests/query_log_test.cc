#include "boolean/query_log.h"

#include <gtest/gtest.h>

#include "paper_example.h"

namespace soc {
namespace {

TEST(QueryLogTest, PaperExampleShape) {
  QueryLog log = testdata::PaperQueryLog();
  EXPECT_EQ(log.size(), 5);
  EXPECT_EQ(log.num_attributes(), 6);
  EXPECT_FALSE(log.empty());
  EXPECT_EQ(log.query(0).SetBits(), (std::vector<int>{0, 1}));
}

TEST(QueryLogTest, AttributeFrequencies) {
  QueryLog log = testdata::PaperQueryLog();
  // AC: q1,q2; FourDoor: q1,q3; Turbo: q5; PowerDoors: q2,q3,q4;
  // AutoTrans: q5; PowerBrakes: q4.
  EXPECT_EQ(log.AttributeFrequencies(), (std::vector<int>{2, 2, 1, 3, 1, 1}));
}

TEST(QueryLogTest, CountQueriesContainingAll) {
  QueryLog log = testdata::PaperQueryLog();
  // Queries containing PowerDoors: q2, q3, q4.
  DynamicBitset power_doors = DynamicBitset::FromString("000100");
  EXPECT_EQ(log.CountQueriesContainingAll(power_doors), 3);
  // Queries containing both AC and PowerDoors: q2 only.
  DynamicBitset both = DynamicBitset::FromString("100100");
  EXPECT_EQ(log.CountQueriesContainingAll(both), 1);
  // Empty attribute set is contained in every query.
  EXPECT_EQ(log.CountQueriesContainingAll(DynamicBitset(6)), 5);
}

TEST(QueryLogTest, EmptyQueryAllowed) {
  QueryLog log(AttributeSchema::Anonymous(4));
  log.AddQuery(DynamicBitset(4));
  EXPECT_EQ(log.size(), 1);
  EXPECT_TRUE(log.query(0).None());
}

TEST(QueryLogTest, AddQueryFromIndices) {
  QueryLog log(AttributeSchema::Anonymous(4));
  log.AddQueryFromIndices({1, 3});
  EXPECT_EQ(log.query(0).ToString(), "0101");
}

TEST(QueryLogTest, CsvRoundTrip) {
  QueryLog log = testdata::PaperQueryLog();
  auto restored = QueryLog::FromCsv(log.ToCsv());
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), log.size());
  for (int i = 0; i < log.size(); ++i) {
    EXPECT_EQ(restored->query(i), log.query(i));
  }
}

}  // namespace
}  // namespace soc
