#include "itemsets/transaction_db.h"

namespace soc::itemsets {

TransactionDatabase::TransactionDatabase(int num_items, int num_transactions)
    : num_items_(num_items),
      num_transactions_(num_transactions),
      columns_(num_items, DynamicBitset(num_transactions)) {}

TransactionDatabase::TransactionDatabase(
    const std::vector<DynamicBitset>& transactions)
    : TransactionDatabase(
          transactions.empty()
              ? 0
              : static_cast<int>(transactions.front().size()),
          static_cast<int>(transactions.size())) {
  for (std::size_t tid = 0; tid < transactions.size(); ++tid) {
    SOC_CHECK_EQ(static_cast<int>(transactions[tid].size()), num_items_);
    transactions[tid].ForEachSetBit(
        [this, tid](int item) { columns_[item].Set(tid); });
  }
}

TransactionDatabase TransactionDatabase::FromComplementedQueryLog(
    const QueryLog& log) {
  TransactionDatabase db(log.num_attributes(), log.size());
  for (DynamicBitset& column : db.columns_) column.SetAll();
  for (int q = 0; q < log.size(); ++q) {
    log.query(q).ForEachSetBit(
        [&db, q](int attr) { db.columns_[attr].Reset(q); });
  }
  return db;
}

TransactionDatabase TransactionDatabase::FromBooleanTable(
    const BooleanTable& table) {
  return TransactionDatabase(table.rows());
}

int TransactionDatabase::Support(const DynamicBitset& itemset) const {
  SOC_CHECK_EQ(static_cast<int>(itemset.size()), num_items_);
  if (itemset.None()) return num_transactions();
  return static_cast<int>(Tids(itemset).Count());
}

DynamicBitset TransactionDatabase::Tids(const DynamicBitset& itemset) const {
  DynamicBitset tids(num_transactions());
  tids.SetAll();
  itemset.ForEachSetBit([this, &tids](int item) { tids &= columns_[item]; });
  return tids;
}

std::vector<int> TransactionDatabase::ItemSupports() const {
  std::vector<int> supports(num_items_);
  for (int i = 0; i < num_items_; ++i) {
    supports[i] = static_cast<int>(columns_[i].Count());
  }
  return supports;
}

}  // namespace soc::itemsets
