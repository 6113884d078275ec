// Multi-join optimization walkthrough (paper Section 6 / Example 6.1):
// optimizes the Q5-style query "students who co-authored 1993 reports with
// faculty from another department" in both the traditional left-deep space
// and the extended PrL space, prints both plans, and executes the winner.
//
//   $ ./examples/optimizer_explain

#include <cstdio>

#include "connector/remote_text_source.h"
#include "core/enumerator.h"
#include "core/executor.h"
#include "core/statistics.h"
#include "workload/paper_queries.h"

namespace {

using namespace textjoin;  // Example code; the library never does this.

int Run() {
  Q5Config config;
  Result<PaperScenario> built = BuildQ5(config);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 1;
  }
  Scenario& scenario = built->scenario;
  const FederatedQuery& query = built->query;
  RemoteTextSource source(scenario.engine.get());
  std::printf("Query (paper Q5 / Example 6.1):\n  %s\n\n",
              query.ToString().c_str());

  StatsRegistry registry;
  Status stats = ComputeExactStats(query, *scenario.catalog,
                                   *scenario.engine, registry);
  if (!stats.ok()) {
    std::fprintf(stderr, "stats: %s\n", stats.ToString().c_str());
    return 1;
  }
  for (const TextJoinPredicate& pred : query.text_joins) {
    auto column = ResolveTextJoinColumn(query, *scenario.catalog, pred);
    auto s = registry.GetTextJoinStats(column->stats_key, pred.field);
    std::printf("  stats %-28s s=%.3f f=%.3f\n", pred.ToString().c_str(),
                s->selectivity, s->fanout);
  }
  std::printf("\n");

  const CostParams params;
  for (const bool enable_probes : {false, true}) {
    EnumeratorOptions options;
    options.enable_probes = enable_probes;
    Enumerator enumerator(scenario.catalog.get(), &registry,
                          scenario.engine->num_documents(),
                          scenario.engine->max_search_terms(), options);
    Result<PlanNodePtr> plan = enumerator.Optimize(query);
    if (!plan.ok()) {
      std::fprintf(stderr, "optimize: %s\n",
                   plan.status().ToString().c_str());
      return 1;
    }
    std::printf("=== %s space ===\n",
                enable_probes ? "PrL (left-deep + probe nodes)"
                              : "traditional left-deep");
    std::printf("%s", (*plan)->ToString(query).c_str());
    std::printf("enumeration: %llu join tasks, %llu plans costed\n",
                static_cast<unsigned long long>(
                    enumerator.report().join_tasks),
                static_cast<unsigned long long>(
                    enumerator.report().plans_generated));

    source.ResetMeter();
    PlanExecutor executor(scenario.catalog.get(), &source);
    Result<ExecutionResult> result = executor.Execute(**plan, query);
    if (!result.ok()) {
      std::fprintf(stderr, "execute: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("measured: %.2f simulated seconds, %zu result rows (%s)\n\n",
                source.meter().SimulatedSeconds(params),
                result->rows.size(), source.meter().ToString().c_str());
  }
  return 0;
}

}  // namespace

int main() { return Run(); }
