#ifndef TEXTJOIN_CORE_ENUMERATOR_H_
#define TEXTJOIN_CORE_ENUMERATOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "connector/cost_meter.h"
#include "core/federated_query.h"
#include "core/join_methods.h"
#include "core/plan.h"
#include "core/statistics.h"

/// \file
/// The modified System-R join enumerator of paper Section 6: dynamic
/// programming over join orders of {relations} ∪ {text source}, extended
/// with the four probe alternatives at each extension step:
///   (a) joinPlan(optPlan(S), R)
///   (b) joinPlan(probe(optPlan(S)), R)
///   (c) joinPlan(optPlan(S), probe(R))
///   (d) joinPlan(probe(optPlan(S)), probe(R))
/// Probe nodes must precede the foreign-join node, and the text source can
/// only be placed once every relation carrying a text join predicate is in
/// the prefix (the paper evaluates all text join predicates together at the
/// text system's position).
///
/// Because applying a probe trades cost for cardinality, plans for the same
/// subset are not totally ordered by cost. Following the paper's remark
/// that "considering probes is analogous to considering additional access
/// methods", the table keeps a small Pareto frontier over (cost, rows) per
/// subset — exactly how System R keeps plans with interesting orders — so a
/// pricier-but-smaller probed plan survives to pay off at the text join.
/// The plain left-deep plans are always enumerated, so the chosen plan is
/// never worse than the traditional one.

namespace textjoin {

/// Tuning knobs for the enumerator.
struct EnumeratorOptions {
  bool enable_probes = true;   ///< false = traditional left-deep space.
  int correlation_g = 1;       ///< g of the joint-statistics model.
  double cpu_cost_per_tuple = 1e-7;  ///< Relational work, sec/tuple.
  CostParams cost_params;      ///< Text access cost constants.
  /// Forces the foreign-join method instead of taking the cost model's
  /// cheapest — the golden-explain wall and method ablations pin each of
  /// the six Section 3 methods in turn. The forced method still uses its
  /// individually optimal probe mask (RankMethods), and optimization FAILS
  /// (kInvalidArgument) when the query's shape makes the method
  /// inapplicable — a golden must never silently pin a different method
  /// than its name claims.
  std::optional<JoinMethodKind> forced_method;
};

/// Counters describing one optimization run.
struct EnumeratorReport {
  uint64_t join_tasks = 0;       ///< 2-way join tasks considered.
  uint64_t plans_generated = 0;  ///< Candidate plans costed.
  uint64_t plans_retained = 0;   ///< Plans kept across all DP entries.
};

/// Optimizes federated conjunctive queries into PrL plans.
class Enumerator {
 public:
  /// All pointers must outlive the enumerator. `num_documents` /
  /// `max_search_terms` describe the text source (D and M).
  Enumerator(const Catalog* catalog, const StatsRegistry* stats,
             size_t num_documents, size_t max_search_terms,
             EnumeratorOptions options)
      : catalog_(catalog),
        stats_(stats),
        num_documents_(num_documents),
        max_search_terms_(max_search_terms),
        options_(options) {}

  /// Produces the least-cost plan for `query`. Requires statistics for
  /// every referenced table and text predicate to be present in the
  /// registry.
  Result<PlanNodePtr> Optimize(const FederatedQuery& query);

  /// Counters from the last Optimize call.
  const EnumeratorReport& report() const { return report_; }

 private:
  const Catalog* catalog_;
  const StatsRegistry* stats_;
  size_t num_documents_;
  size_t max_search_terms_;
  EnumeratorOptions options_;
  EnumeratorReport report_;
};

}  // namespace textjoin

#endif  // TEXTJOIN_CORE_ENUMERATOR_H_
