// TransactionDatabase: the Boolean table R mined for frequent itemsets
// (Sec IV.C), kept in its vertical form only: one transaction-id bitmap
// (tidset) per item. The miners are tidset-based, and the serving gate
// reads the same tidsets of ~Q (serve/preprocessing_cache.h), so no
// horizontal copy of the rows is stored.

#ifndef SOC_ITEMSETS_TRANSACTION_DB_H_
#define SOC_ITEMSETS_TRANSACTION_DB_H_

#include <vector>

#include "boolean/query_log.h"
#include "boolean/table.h"
#include "common/bitset.h"

namespace soc::itemsets {

struct FrequentItemset {
  DynamicBitset items;  // Over the item universe.
  int support = 0;

  friend bool operator==(const FrequentItemset& a, const FrequentItemset& b) {
    return a.support == b.support && a.items == b.items;
  }
};

class TransactionDatabase {
 public:
  // `transactions[i]` is the item bitset of transaction i; all must share
  // one width (the number of items).
  explicit TransactionDatabase(const std::vector<DynamicBitset>& transactions);

  // The complemented query log ~Q as a transaction database — the exact
  // input of MaxFreqItemSets-SOC-CB-QL. Built straight from the log's
  // queries: the tidset of item a is the set of queries not mentioning a.
  static TransactionDatabase FromComplementedQueryLog(const QueryLog& log);

  // A Boolean table as-is.
  static TransactionDatabase FromBooleanTable(const BooleanTable& table);

  int num_items() const { return num_items_; }
  int num_transactions() const { return num_transactions_; }

  // Transactions containing item `i` (the item's tidset).
  const DynamicBitset& item_tids(int i) const { return columns_.at(i); }

  // Number of transactions supporting `itemset` (all items present).
  // The empty itemset is supported by every transaction.
  int Support(const DynamicBitset& itemset) const;

  // Tidset of `itemset` (AND of its item columns).
  DynamicBitset Tids(const DynamicBitset& itemset) const;

  // |tids ∩ item_tids(item)|: support of an extension without materializing.
  int ExtensionSupport(const DynamicBitset& tids, int item) const {
    return static_cast<int>(tids.IntersectionCount(columns_[item]));
  }

  // Per-item supports.
  std::vector<int> ItemSupports() const;

 private:
  // `num_items` empty tidsets over `num_transactions` transactions.
  TransactionDatabase(int num_items, int num_transactions);

  int num_items_;
  int num_transactions_;
  std::vector<DynamicBitset> columns_;  // Vertical tidsets, one per item.
};

}  // namespace soc::itemsets

#endif  // SOC_ITEMSETS_TRANSACTION_DB_H_
