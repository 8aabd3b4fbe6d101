#include "itemsets/transaction_db.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "paper_example.h"

namespace soc::itemsets {
namespace {

// 4 transactions over 5 items.
std::vector<DynamicBitset> SmallRows() {
  return {
      DynamicBitset::FromString("11010"),
      DynamicBitset::FromString("01110"),
      DynamicBitset::FromString("11000"),
      DynamicBitset::FromString("00011"),
  };
}

TransactionDatabase MakeSmallDb() { return TransactionDatabase(SmallRows()); }

TEST(TransactionDbTest, Dimensions) {
  TransactionDatabase db = MakeSmallDb();
  EXPECT_EQ(db.num_items(), 5);
  EXPECT_EQ(db.num_transactions(), 4);
}

TEST(TransactionDbTest, VerticalColumnsMatchRows) {
  TransactionDatabase db = MakeSmallDb();
  // Item 1 appears in transactions 0, 1, 2.
  EXPECT_EQ(db.item_tids(1).SetBits(), (std::vector<int>{0, 1, 2}));
  // Item 4 appears only in transaction 3.
  EXPECT_EQ(db.item_tids(4).SetBits(), (std::vector<int>{3}));
  const std::vector<DynamicBitset> rows = SmallRows();
  for (int i = 0; i < db.num_items(); ++i) {
    for (int t = 0; t < db.num_transactions(); ++t) {
      EXPECT_EQ(db.item_tids(i).Test(t), rows[t].Test(i));
    }
  }
}

TEST(TransactionDbTest, SupportOfItemsets) {
  TransactionDatabase db = MakeSmallDb();
  EXPECT_EQ(db.Support(DynamicBitset::FromString("10000")), 2);  // {0}
  EXPECT_EQ(db.Support(DynamicBitset::FromString("11000")), 2);  // {0,1}
  EXPECT_EQ(db.Support(DynamicBitset::FromString("01100")), 1);  // {1,2}
  EXPECT_EQ(db.Support(DynamicBitset::FromString("10001")), 0);  // {0,4}
}

TEST(TransactionDbTest, EmptyItemsetSupportedByAll) {
  TransactionDatabase db = MakeSmallDb();
  EXPECT_EQ(db.Support(DynamicBitset(5)), 4);
}

TEST(TransactionDbTest, TidsIntersection) {
  TransactionDatabase db = MakeSmallDb();
  DynamicBitset tids = db.Tids(DynamicBitset::FromString("01000"));
  EXPECT_EQ(tids.SetBits(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(db.ExtensionSupport(tids, 0), 2);
  EXPECT_EQ(db.ExtensionSupport(tids, 2), 1);
  EXPECT_EQ(db.ExtensionSupport(tids, 4), 0);
}

TEST(TransactionDbTest, ItemSupports) {
  TransactionDatabase db = MakeSmallDb();
  EXPECT_EQ(db.ItemSupports(), (std::vector<int>{2, 3, 1, 3, 1}));
}

TEST(TransactionDbTest, FromComplementedQueryLog) {
  // Complementing the paper's query log: transaction q of ~Q holds the
  // attributes query q does not mention, so ~q1 = 001111.
  const QueryLog log = testdata::PaperQueryLog();
  TransactionDatabase db = TransactionDatabase::FromComplementedQueryLog(log);
  EXPECT_EQ(db.num_transactions(), 5);
  EXPECT_EQ(db.num_items(), 6);
  for (int a = 0; a < db.num_items(); ++a) {
    for (int q = 0; q < log.size(); ++q) {
      EXPECT_NE(db.item_tids(a).Test(q), log.query(q).Test(a));
    }
  }
  std::string first;
  for (int a = 0; a < db.num_items(); ++a) {
    first += db.item_tids(a).Test(0) ? '1' : '0';
  }
  EXPECT_EQ(first, "001111");
  // freq(~t) over ~Q == number of queries disjoint from ~t == number of
  // queries contained in t.
  DynamicBitset t = testdata::PaperNewTuple();
  EXPECT_EQ(db.Support(t.Complement()), 4);
}

TEST(TransactionDbTest, FromBooleanTable) {
  TransactionDatabase db =
      TransactionDatabase::FromBooleanTable(testdata::PaperDatabase());
  EXPECT_EQ(db.num_transactions(), 7);
  // FourDoor (item 1) appears in 5 cars.
  EXPECT_EQ(db.item_tids(1).Count(), 5u);
}

TEST(TransactionDbTest, ComplementOfEmptyLogKeepsItsWidth) {
  const TransactionDatabase db = TransactionDatabase::FromComplementedQueryLog(
      QueryLog(AttributeSchema::Anonymous(4)));
  EXPECT_EQ(db.num_items(), 4);
  EXPECT_EQ(db.num_transactions(), 0);
  EXPECT_EQ(db.Support(DynamicBitset::FromString("1010")), 0);
}

TEST(TransactionDbTest, EmptyDatabase) {
  TransactionDatabase db((std::vector<DynamicBitset>()));
  EXPECT_EQ(db.num_items(), 0);
  EXPECT_EQ(db.num_transactions(), 0);
  EXPECT_EQ(db.Support(DynamicBitset(0)), 0);
}

}  // namespace
}  // namespace soc::itemsets
