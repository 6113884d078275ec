#include "core/enumerator.h"

#include <algorithm>
#include <limits>

#include "common/string_util.h"
#include "core/cost_model.h"
#include "core/single_join_optimizer.h"

namespace textjoin {
namespace {

/// Theorem 5.3: a probe reducer never needs more than two probe columns.
constexpr size_t kMaxProbeColumns = 2;

/// Pareto-frontier cap per relation subset.
constexpr size_t kMaxParetoPlans = 12;

/// One relational join conjunct with the set of relations it references.
struct ClassifiedConjunct {
  const Expr* expr = nullptr;
  uint64_t relation_mask = 0;
};

/// Everything the DP needs, resolved once per Optimize call.
struct QueryContext {
  const FederatedQuery* query = nullptr;
  const Catalog* catalog = nullptr;
  const StatsRegistry* stats = nullptr;
  const EnumeratorOptions* options = nullptr;
  double num_documents = 0;
  double max_terms = 0;

  size_t n = 0;            ///< Number of stored relations.
  uint64_t text_bit = 0;   ///< Entity bit of the text source (0 if none).
  uint64_t text_required_mask = 0;  ///< Relations with text join predicates.

  std::vector<const Table*> tables;              // per relation
  std::vector<const TableStats*> table_stats;    // per relation
  std::vector<std::vector<const Expr*>> pushed;  // per relation selections
  std::vector<ClassifiedConjunct> conjuncts;

  std::vector<size_t> text_pred_relation;           // per text join pred
  std::vector<TextPredicateStats> text_pred_stats;  // s_i, f_i (no N_i)

  double selection_match_docs = 0;
  double selection_postings = 0;
  double num_selection_terms = 0;

  MethodApplicability applicability;
};

/// Finds the relation (by index) that a qualified column belongs to.
Result<size_t> RelationOfColumn(const FederatedQuery& query,
                                const std::string& ref) {
  const size_t dot = ref.find('.');
  if (dot == std::string::npos) {
    return Status::InvalidArgument("column '" + ref +
                                   "' must be qualified for optimization");
  }
  const std::string qualifier = ref.substr(0, dot);
  for (size_t i = 0; i < query.relations.size(); ++i) {
    if (EqualsIgnoreCase(query.relations[i].name(), qualifier)) return i;
  }
  return Status::NotFound("column '" + ref +
                          "' does not belong to any relation in the query");
}

/// Selectivity of a pushed-down (single relation) predicate.
double FilterSelectivity(const Expr& expr, const Schema& schema,
                         const TableStats& stats) {
  if (const auto* cmp = dynamic_cast<const ComparisonExpr*>(&expr)) {
    const auto* lcol = dynamic_cast<const ColumnRefExpr*>(&cmp->left());
    const auto* rcol = dynamic_cast<const ColumnRefExpr*>(&cmp->right());
    const ColumnRefExpr* col = lcol != nullptr ? lcol : rcol;
    if (col != nullptr && (lcol == nullptr || rcol == nullptr)) {
      Result<size_t> idx = schema.Resolve(col->ref());
      if (idx.ok()) {
        const auto* lit = dynamic_cast<const LiteralExpr*>(
            lcol != nullptr ? &cmp->right() : &cmp->left());
        // Flip the operator when the literal is on the left ("3 < col").
        CompareOp op = cmp->op();
        if (lcol == nullptr) {
          switch (op) {
            case CompareOp::kLt: op = CompareOp::kGt; break;
            case CompareOp::kLe: op = CompareOp::kGe; break;
            case CompareOp::kGt: op = CompareOp::kLt; break;
            case CompareOp::kGe: op = CompareOp::kLe; break;
            default: break;
          }
        }
        return stats.CompareSelectivity(
            op, *idx, lit != nullptr ? &lit->value() : nullptr);
      }
    }
    return 1.0 / 3.0;
  }
  if (const auto* logical = dynamic_cast<const LogicalExpr*>(&expr)) {
    switch (logical->op()) {
      case LogicalOp::kAnd: {
        double sel = 1.0;
        for (const ExprPtr& child : logical->children()) {
          sel *= FilterSelectivity(*child, schema, stats);
        }
        return sel;
      }
      case LogicalOp::kOr: {
        double sel = 0.0;
        for (const ExprPtr& child : logical->children()) {
          sel += FilterSelectivity(*child, schema, stats);
        }
        return std::min(1.0, sel);
      }
      case LogicalOp::kNot:
        return 1.0 -
               FilterSelectivity(*logical->children()[0], schema, stats);
    }
  }
  if (dynamic_cast<const LikeExpr*>(&expr) != nullptr) return 0.1;
  return 0.3;
}

/// Distinct count of a column in a base relation (0 if unresolvable).
double BaseDistinct(const QueryContext& ctx, const std::string& ref) {
  Result<size_t> rel = RelationOfColumn(*ctx.query, ref);
  if (!rel.ok()) return 0;
  const Schema schema =
      ctx.tables[*rel]->schema().WithQualifier(ctx.query->relations[*rel]
                                                   .name());
  Result<size_t> idx = schema.Resolve(ref);
  if (!idx.ok()) return 0;
  return static_cast<double>(ctx.table_stats[*rel]->NumDistinct(*idx));
}

/// Selectivity of a relational join conjunct.
double ConjunctSelectivity(const QueryContext& ctx, const Expr& expr) {
  if (const auto* cmp = dynamic_cast<const ComparisonExpr*>(&expr)) {
    const auto* lcol = dynamic_cast<const ColumnRefExpr*>(&cmp->left());
    const auto* rcol = dynamic_cast<const ColumnRefExpr*>(&cmp->right());
    if (lcol != nullptr && rcol != nullptr) {
      const double dl = std::max(1.0, BaseDistinct(ctx, lcol->ref()));
      const double dr = std::max(1.0, BaseDistinct(ctx, rcol->ref()));
      const double eq_sel = 1.0 / std::max(dl, dr);
      switch (cmp->op()) {
        case CompareOp::kEq:
          return eq_sel;
        case CompareOp::kNe:
          return 1.0 - eq_sel;
        default:
          return 1.0 / 3.0;
      }
    }
  }
  return 0.3;
}

/// Builds the Section-4 stats for a probe/foreign-join over `child`,
/// restricted to predicate indices `preds` (empty = all).
ForeignJoinStats BuildStats(const QueryContext& ctx, const PlanNode& child,
                            const std::vector<size_t>& preds) {
  ForeignJoinStats stats;
  stats.num_tuples = std::max(0.0, child.est_rows);
  stats.num_documents = ctx.num_documents;
  stats.max_terms = ctx.max_terms;
  stats.correlation_g = ctx.options->correlation_g;
  stats.need_document_fields = ctx.applicability.need_document_fields;
  stats.selection_match_docs = ctx.selection_match_docs;
  stats.selection_postings = ctx.selection_postings;
  stats.num_selection_terms = ctx.num_selection_terms;
  for (size_t i : preds) {
    TextPredicateStats ps = ctx.text_pred_stats[i];
    auto it = child.text_pred_distinct.find(i);
    ps.num_distinct = it != child.text_pred_distinct.end()
                          ? std::max(1.0, it->second)
                          : std::max(1.0, child.est_rows);
    if (child.probed_preds.count(i) != 0) {
      // Every surviving combination is known to match.
      ps.selectivity = 1.0;
    }
    stats.predicates.push_back(ps);
  }
  return stats;
}

/// Pareto insertion over (est_cost, est_rows).
void AddPlan(std::vector<std::shared_ptr<PlanNode>>& frontier,
             std::shared_ptr<PlanNode> plan, EnumeratorReport& report) {
  ++report.plans_generated;
  for (const auto& existing : frontier) {
    if (existing->est_cost <= plan->est_cost &&
        existing->est_rows <= plan->est_rows) {
      return;  // dominated
    }
  }
  frontier.erase(
      std::remove_if(frontier.begin(), frontier.end(),
                     [&](const std::shared_ptr<PlanNode>& existing) {
                       return plan->est_cost <= existing->est_cost &&
                              plan->est_rows <= existing->est_rows;
                     }),
      frontier.end());
  frontier.push_back(std::move(plan));
  if (frontier.size() > kMaxParetoPlans) {
    // Keep the cheapest plans (the plain left-deep plan is always among
    // them, preserving the never-worse guarantee).
    std::sort(frontier.begin(), frontier.end(),
              [](const auto& a, const auto& b) {
                return a->est_cost < b->est_cost;
              });
    frontier.resize(kMaxParetoPlans);
  }
}

/// Builds the scan plan (with pushed selections and estimates) for one
/// relation.
std::shared_ptr<PlanNode> BuildScan(const QueryContext& ctx, size_t r) {
  std::vector<ExprPtr> filters;
  for (const Expr* f : ctx.pushed[r]) filters.push_back(f->Clone());
  auto node = MakeScanNode(ctx.query->relations[r].table_name,
                           ctx.query->relations[r].name(),
                           ctx.tables[r]->schema(), std::move(filters));
  const TableStats& stats = *ctx.table_stats[r];
  double sel = 1.0;
  for (const Expr* f : ctx.pushed[r]) {
    sel *= FilterSelectivity(*f, node->output_schema, stats);
  }
  node->est_rows = static_cast<double>(stats.num_rows()) * sel;
  node->est_cost = ctx.options->cpu_cost_per_tuple *
                   static_cast<double>(stats.num_rows());
  for (size_t p = 0; p < ctx.text_pred_relation.size(); ++p) {
    if (ctx.text_pred_relation[p] != r) continue;
    const double d = BaseDistinct(ctx, ctx.query->text_joins[p].column_ref);
    node->text_pred_distinct[p] = std::min(d, std::max(1.0, node->est_rows));
  }
  return node;
}

/// Probe-node construction with estimates.
std::shared_ptr<PlanNode> BuildProbe(const QueryContext& ctx,
                                     PlanNodePtr child,
                                     std::vector<size_t> preds) {
  ForeignJoinStats stats = BuildStats(ctx, *child, preds);
  CostModel model(ctx.options->cost_params, stats);
  const PredicateMask mask = FullMask(preds.size());
  const double probe_cost = model.CostProbe(mask);
  const double joint_sel = model.JointSelectivity(mask);

  auto node = MakeProbeNode(child, preds);
  node->est_rows = child->est_rows * joint_sel;
  node->est_cost = child->est_cost + probe_cost;
  node->text_pred_distinct = child->text_pred_distinct;
  node->probed_preds = child->probed_preds;
  for (size_t i = 0; i < preds.size(); ++i) {
    const size_t p = preds[i];
    node->probed_preds.insert(p);
    auto it = node->text_pred_distinct.find(p);
    if (it != node->text_pred_distinct.end()) {
      it->second =
          std::max(0.0, it->second * ctx.text_pred_stats[p].selectivity);
    }
  }
  for (auto& [p, d] : node->text_pred_distinct) {
    d = std::min(d, std::max(1.0, node->est_rows));
  }
  return node;
}

/// All probe-pred subsets of size <= kMaxProbeColumns from `available`.
std::vector<std::vector<size_t>> ProbeSubsets(
    const std::vector<size_t>& available) {
  std::vector<std::vector<size_t>> subsets;
  const size_t k = available.size();
  if (k == 0) return subsets;
  for (uint32_t mask = 1; mask < (1u << k); ++mask) {
    const size_t bits = static_cast<size_t>(__builtin_popcount(mask));
    if (bits > kMaxProbeColumns) continue;
    std::vector<size_t> subset;
    for (size_t i = 0; i < k; ++i) {
      if ((mask & (1u << i)) != 0) subset.push_back(available[i]);
    }
    subsets.push_back(std::move(subset));
  }
  return subsets;
}

}  // namespace

Result<PlanNodePtr> Enumerator::Optimize(const FederatedQuery& query) {
  report_ = EnumeratorReport{};
  if (query.relations.empty()) {
    return Status::InvalidArgument("query has no stored relations");
  }
  if (query.relations.size() > 16) {
    return Status::InvalidArgument("too many relations for the enumerator");
  }

  QueryContext ctx;
  ctx.query = &query;
  ctx.catalog = catalog_;
  ctx.stats = stats_;
  ctx.options = &options_;
  ctx.num_documents = static_cast<double>(num_documents_);
  ctx.max_terms = static_cast<double>(max_search_terms_);
  ctx.n = query.relations.size();
  ctx.text_bit = query.has_text_relation ? (uint64_t{1} << ctx.n) : 0;

  // Resolve tables and their statistics.
  for (const RelationRef& rel : query.relations) {
    TEXTJOIN_ASSIGN_OR_RETURN(Table * table,
                              catalog_->GetTable(rel.table_name));
    ctx.tables.push_back(table);
    TEXTJOIN_ASSIGN_OR_RETURN(const TableStats* ts,
                              stats_->GetTableStats(rel.table_name));
    ctx.table_stats.push_back(ts);
  }

  // Classify relational predicates.
  ctx.pushed.resize(ctx.n);
  for (const ExprPtr& pred : query.relational_predicates) {
    std::vector<std::string> columns;
    pred->CollectColumns(columns);
    uint64_t relmask = 0;
    for (const std::string& ref : columns) {
      TEXTJOIN_ASSIGN_OR_RETURN(size_t rel, RelationOfColumn(query, ref));
      relmask |= uint64_t{1} << rel;
    }
    if (relmask == 0) {
      return Status::InvalidArgument("constant predicate '" +
                                     pred->ToString() +
                                     "' is not supported");
    }
    if (__builtin_popcountll(relmask) == 1) {
      ctx.pushed[static_cast<size_t>(__builtin_ctzll(relmask))].push_back(
          pred.get());
    } else {
      ctx.conjuncts.push_back({pred.get(), relmask});
    }
  }

  // Text predicates and their statistics.
  for (const TextJoinPredicate& pred : query.text_joins) {
    TEXTJOIN_ASSIGN_OR_RETURN(size_t rel,
                              RelationOfColumn(query, pred.column_ref));
    ctx.text_pred_relation.push_back(rel);
    ctx.text_required_mask |= uint64_t{1} << rel;
    TEXTJOIN_ASSIGN_OR_RETURN(
        TextPredicateStats ps,
        stats_->GetTextJoinStats(pred.column_ref, pred.field));
    ctx.text_pred_stats.push_back(ps);
  }
  if (query.has_text_relation) {
    double joint_docs = ctx.num_documents;
    for (const TextSelection& sel : query.text_selections) {
      TEXTJOIN_ASSIGN_OR_RETURN(
          TextSelectionStats ss,
          stats_->GetTextSelectionStats(sel.term, sel.field));
      joint_docs = std::min(joint_docs, ss.match_docs);
      ctx.selection_postings += ss.postings;
      ctx.num_selection_terms += 1;
    }
    ctx.selection_match_docs =
        query.text_selections.empty() ? 0.0 : joint_docs;
  }

  // Method applicability for the foreign join.
  ctx.applicability.has_selections = !query.text_selections.empty();
  ctx.applicability.need_document_fields = query.NeedsDocumentFields();
  bool needs_left = query.output_columns.empty();
  for (const std::string& ref : query.output_columns) {
    const size_t dot = ref.find('.');
    const std::string qualifier =
        dot == std::string::npos ? "" : ref.substr(0, dot);
    if (!query.has_text_relation ||
        !EqualsIgnoreCase(qualifier, query.text.alias)) {
      needs_left = true;
    }
  }
  ctx.applicability.left_columns_needed = needs_left;

  // ---- dynamic programming over entity subsets ----
  const size_t total_entities = ctx.n + (query.has_text_relation ? 1 : 0);
  const uint64_t full_mask = (uint64_t{1} << total_entities) - 1;
  std::vector<std::vector<std::shared_ptr<PlanNode>>> table(full_mask + 1);

  for (size_t r = 0; r < ctx.n; ++r) {
    AddPlan(table[uint64_t{1} << r], BuildScan(ctx, r), report_);
  }

  for (uint64_t mask = 1; mask <= full_mask; ++mask) {
    if (__builtin_popcountll(mask) < 2) continue;
    // Masks with the text source require every text-predicate relation.
    if ((mask & ctx.text_bit) != 0 &&
        (mask & ctx.text_required_mask) != ctx.text_required_mask) {
      continue;
    }
    for (size_t e = 0; e < total_entities; ++e) {
      const uint64_t ebit = uint64_t{1} << e;
      if ((mask & ebit) == 0) continue;
      const uint64_t sub = mask ^ ebit;
      if (sub == 0 || table[sub].empty()) continue;
      ++report_.join_tasks;

      const bool e_is_text = ebit == ctx.text_bit;
      if (e_is_text) {
        // Foreign join: every text-predicate relation must be in `sub`.
        if ((sub & ctx.text_required_mask) != ctx.text_required_mask) {
          continue;
        }
        for (const auto& subplan : table[sub]) {
          std::vector<size_t> all_preds(query.text_joins.size());
          for (size_t i = 0; i < all_preds.size(); ++i) all_preds[i] = i;
          ForeignJoinStats stats = BuildStats(ctx, *subplan, all_preds);
          CostModel model(options_.cost_params, stats);
          SingleJoinOptimizer optimizer(&model);
          Result<MethodChoice> choice = optimizer.Choose(ctx.applicability);
          if (options_.forced_method.has_value()) {
            // Pin the method (golden wall / ablations): take its entry —
            // with its individually optimal probe mask — from the ranked
            // applicable list, and refuse shapes it does not apply to.
            choice = Status::InvalidArgument(
                std::string("forced join method ") +
                JoinMethodName(*options_.forced_method) +
                " is not applicable to this query shape");
            for (const MethodChoice& ranked :
                 optimizer.RankMethods(ctx.applicability)) {
              if (ranked.method == *options_.forced_method) {
                choice = ranked;
                break;
              }
            }
          }
          if (!choice.ok()) return choice.status();
          auto node = MakeForeignJoinNode(subplan, query, *choice);
          node->est_rows =
              stats.num_tuples *
              model.JointFanout(FullMask(stats.predicates.size()));
          node->est_cost = subplan->est_cost + choice->predicted_cost;
          node->text_pred_distinct = subplan->text_pred_distinct;
          node->probed_preds = subplan->probed_preds;
          AddPlan(table[mask], std::move(node), report_);
        }
        continue;
      }

      // Relational join of `sub` with relation e. Gather the conjuncts
      // that become applicable exactly here.
      std::vector<const Expr*> applicable;
      for (const ClassifiedConjunct& c : ctx.conjuncts) {
        if ((c.relation_mask & ~mask) != 0) continue;      // not covered yet
        if ((c.relation_mask & ebit) == 0) continue;       // applied earlier
        if ((c.relation_mask & sub) == 0) continue;        // one-sided
        applicable.push_back(c.expr);
      }

      const auto& base_frontier = table[ebit];
      if (base_frontier.empty()) continue;
      const std::shared_ptr<PlanNode>& base_scan = base_frontier.front();

      const bool probes_allowed =
          options_.enable_probes && query.has_text_relation &&
          (sub & ctx.text_bit) == 0;

      for (const auto& subplan : table[sub]) {
        // Left-side variants: plain, plus probed variants (alternative b/d).
        std::vector<std::shared_ptr<PlanNode>> left_variants = {subplan};
        if (probes_allowed) {
          std::vector<size_t> available;
          for (size_t p = 0; p < ctx.text_pred_relation.size(); ++p) {
            if ((sub & (uint64_t{1} << ctx.text_pred_relation[p])) != 0 &&
                subplan->probed_preds.count(p) == 0) {
              available.push_back(p);
            }
          }
          for (auto& preds : ProbeSubsets(available)) {
            left_variants.push_back(BuildProbe(ctx, subplan, preds));
          }
        }
        // Right-side variants: plain scan, plus probed scans (c/d).
        std::vector<std::shared_ptr<PlanNode>> right_variants = {base_scan};
        if (probes_allowed) {
          std::vector<size_t> available;
          for (size_t p = 0; p < ctx.text_pred_relation.size(); ++p) {
            if (ctx.text_pred_relation[p] == e) available.push_back(p);
          }
          for (auto& preds : ProbeSubsets(available)) {
            right_variants.push_back(BuildProbe(ctx, base_scan, preds));
          }
        }

        for (const auto& lv : left_variants) {
          for (const auto& rv : right_variants) {
            // Hash-join keys: equi conjuncts with one column per side.
            std::vector<HashJoin::KeyPair> keys;
            std::vector<ExprPtr> conjunct_exprs;
            double sel = 1.0;
            for (const Expr* c : applicable) {
              sel *= ConjunctSelectivity(ctx, *c);
              bool used_as_key = false;
              if (const auto* cmp =
                      dynamic_cast<const ComparisonExpr*>(c)) {
                const auto* a =
                    dynamic_cast<const ColumnRefExpr*>(&cmp->left());
                const auto* b =
                    dynamic_cast<const ColumnRefExpr*>(&cmp->right());
                if (cmp->op() == CompareOp::kEq && a != nullptr &&
                    b != nullptr) {
                  const bool a_left = lv->output_schema.Resolve(a->ref()).ok();
                  const bool b_left = lv->output_schema.Resolve(b->ref()).ok();
                  if (a_left && !b_left) {
                    keys.push_back({a->ref(), b->ref()});
                    used_as_key = true;
                  } else if (b_left && !a_left) {
                    keys.push_back({b->ref(), a->ref()});
                    used_as_key = true;
                  }
                }
              }
              if (!used_as_key) conjunct_exprs.push_back(c->Clone());
            }
            const bool use_hash = !keys.empty();
            auto node = MakeRelationalJoinNode(lv, rv,
                                               std::move(conjunct_exprs),
                                               use_hash, keys);
            node->est_rows = std::max(0.0, lv->est_rows * rv->est_rows * sel);
            const double join_cpu =
                use_hash ? (lv->est_rows + rv->est_rows)
                         : (std::max(1.0, lv->est_rows) *
                            std::max(1.0, rv->est_rows));
            node->est_cost = lv->est_cost + rv->est_cost +
                             options_.cpu_cost_per_tuple *
                                 (join_cpu + node->est_rows);
            node->text_pred_distinct = lv->text_pred_distinct;
            for (const auto& [p, d] : rv->text_pred_distinct) {
              node->text_pred_distinct[p] = d;
            }
            for (auto& [p, d] : node->text_pred_distinct) {
              d = std::min(d, std::max(1.0, node->est_rows));
            }
            node->probed_preds = lv->probed_preds;
            node->probed_preds.insert(rv->probed_preds.begin(),
                                      rv->probed_preds.end());
            AddPlan(table[mask], std::move(node), report_);
          }
        }
      }
    }
  }

  uint64_t final_mask = full_mask;
  if (table[final_mask].empty()) {
    return Status::Internal("enumeration produced no plan for the query");
  }
  for (const auto& frontier : table) report_.plans_retained += frontier.size();

  const auto& frontier = table[final_mask];
  const auto best = std::min_element(
      frontier.begin(), frontier.end(), [](const auto& a, const auto& b) {
        return a->est_cost < b->est_cost;
      });
  return PlanNodePtr(*best);
}

}  // namespace textjoin
