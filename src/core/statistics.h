#ifndef TEXTJOIN_CORE_STATISTICS_H_
#define TEXTJOIN_CORE_STATISTICS_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cost_model.h"
#include "core/federated_query.h"
#include "relational/catalog.h"
#include "relational/table_stats.h"
#include "text/searchable.h"

/// \file
/// The optimizer's statistics store (paper Section 4.2): per text-join
/// predicate selectivity and fanout (obtained by sampling, or exactly in
/// oracle mode for experiments), per text-selection match counts, and
/// relational table statistics.

namespace textjoin {

/// Statistics for a text selection predicate ('term' in field).
struct TextSelectionStats {
  double match_docs = 0.0;  ///< Documents matching the term.
  double postings = 0.0;    ///< Inverted-list postings read to evaluate it.
};

/// A text join predicate's column, resolved against the catalog.
struct TextJoinColumn {
  Table* table = nullptr;
  size_t column = 0;  ///< Index into table->schema().
  /// The predicate's StatsRegistry key: "table_name.column", whatever alias
  /// the query gave the table. Two queries that reuse one alias for
  /// different tables never share estimates; two aliases of one table do.
  std::string stats_key;
};

/// Resolves `pred.column_ref` (which must be qualified by a relation of
/// `query`) to its catalog table and column.
Result<TextJoinColumn> ResolveTextJoinColumn(const FederatedQuery& query,
                                             const Catalog& catalog,
                                             const TextJoinPredicate& pred);

/// Holds every estimate the optimizer consumes. Estimates are keyed by the
/// textual form of the predicate — text joins by the resolved column
/// (TextJoinColumn::stats_key) — so they are shared across queries (the
/// paper amortizes sampling cost this way).
class StatsRegistry {
 public:
  /// Records s_i / f_i for `stats_key in field`.
  void SetTextJoinStats(const std::string& stats_key,
                        const std::string& field, double selectivity,
                        double fanout);

  /// The recorded stats. Fails with NotFound if never set.
  Result<TextPredicateStats> GetTextJoinStats(const std::string& stats_key,
                                              const std::string& field) const;

  /// Records match count / postings for a selection term.
  void SetTextSelectionStats(const std::string& term,
                             const std::string& field, double match_docs,
                             double postings);

  Result<TextSelectionStats> GetTextSelectionStats(
      const std::string& term, const std::string& field) const;

  /// Records relational statistics for a table.
  void SetTableStats(const std::string& table_name, TableStats stats);

  Result<const TableStats*> GetTableStats(const std::string& table_name) const;

  bool HasTextJoinStats(const std::string& stats_key,
                        const std::string& field) const;

 private:
  // Selectivity/fanout only; N_i comes from table stats at use time.
  struct JoinStatsEntry {
    double selectivity;
    double fanout;
  };
  std::map<std::pair<std::string, std::string>, JoinStatsEntry> join_stats_;
  std::map<std::pair<std::string, std::string>, TextSelectionStats>
      selection_stats_;
  std::map<std::string, TableStats> table_stats_;
};

/// Fills `registry` with *exact* statistics for every text predicate of
/// `query`, by enumerating distinct column values against the engine
/// directly (oracle mode — no metered source traffic). This mirrors the
/// paper's assumption that calibrated statistics are available to the
/// optimizer; the sampling path (connector/sampler.h) provides the
/// realistic alternative.
Status ComputeExactStats(const FederatedQuery& query, const Catalog& catalog,
                         const SearchableCorpus& corpus,
                         StatsRegistry& registry);

/// The sharded-topology overload: each selection / distinct join value is
/// probed against every shard and the counts summed (docids partition
/// disjointly, so the sums equal the single-corpus numbers — exactly so
/// when the shards evaluate exhaustively).
Status ComputeExactStats(const FederatedQuery& query, const Catalog& catalog,
                         const std::vector<const SearchableCorpus*>& shards,
                         StatsRegistry& registry);

}  // namespace textjoin

#endif  // TEXTJOIN_CORE_STATISTICS_H_
