#include "sql/federation_service.h"

#include "connector/sampler.h"
#include "sql/parser.h"

namespace textjoin {

namespace {

/// Fingerprint of the per-shard document counts (FNV-1a over the counts).
/// The corpus watch compares fingerprints instead of one total, so growth
/// in ANY single shard bumps the cache epoch — even when offset by
/// shrinkage elsewhere. For a single backend this degenerates to watching
/// the one document count, as before.
size_t CorpusFingerprint(const BackendTopology& topology) {
  uint64_t h = 1469598103934665603ull;
  for (const BackendTopology::Shard& shard : topology.shards) {
    const uint64_t count = shard.replicas[0].corpus->num_documents();
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (count >> (byte * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  // SIZE_MAX is the "not yet observed" sentinel; avoid colliding with it.
  const size_t fp = static_cast<size_t>(h);
  return fp == static_cast<size_t>(-1) ? 0 : fp;
}

}  // namespace

Status FederationService::EnsureStatistics(const FederatedQuery& query,
                                           uint64_t pinned_epoch) {
  if (options_.oracle_stats) {
    // Exact statistics computed engine-side (no metered traffic); cheap
    // enough to recompute per query, and idempotent. Probes go to replica
    // 0 of every shard and the counts are summed — docids partition
    // disjointly, so the sums equal the single-corpus numbers. Mutable
    // corpora are read at the query's pinned epoch so the statistics
    // describe exactly the corpus the plan will execute against.
    std::vector<std::shared_ptr<const SearchableCorpus>> pinned;
    std::vector<const SearchableCorpus*> shards;
    shards.reserve(backend_->num_shards());
    for (const BackendTopology::Shard& shard : backend_->topology().shards) {
      const SearchableCorpus* corpus = shard.replicas[0].corpus;
      if (corpus->mutable_corpus()) {
        pinned.push_back(corpus->SnapshotAt(pinned_epoch));
        corpus = pinned.back().get();
      }
      shards.push_back(corpus);
    }
    return ComputeExactStats(query, *catalog_, shards, registry_);
  }
  // Sampling mode (paper Section 4.2): probe the source for predicates we
  // have not seen before; table stats are computed locally. All traffic
  // goes through stats_source_ — the bare router, so sampling sees the
  // whole sharded corpus without touching breakers or limiter permits —
  // and its meter is the stats meter. Under a live corpus the long-lived
  // bare router is frozen at construction time, so mint a fresh one
  // pinned at this query's epoch; it charges the same stats meter.
  ShardedTextSource* sampler_source = stats_source_.get();
  std::unique_ptr<ShardedTextSource> pinned_source;
  if (options_.live.has_value()) {
    pinned_source = backend_->MakeBareSource(pinned_epoch);
    pinned_source->SetMeter(&stats_source_->charging_meter());
    sampler_source = pinned_source.get();
  }
  for (const RelationRef& rel : query.relations) {
    if (!registry_.GetTableStats(rel.table_name).ok()) {
      TEXTJOIN_ASSIGN_OR_RETURN(Table * table,
                                catalog_->GetTable(rel.table_name));
      registry_.SetTableStats(rel.table_name, TableStats::Analyze(*table));
    }
  }
  for (const TextJoinPredicate& pred : query.text_joins) {
    if (registry_.HasTextJoinStats(pred.column_ref, pred.field)) continue;
    const size_t dot = pred.column_ref.find('.');
    if (dot == std::string::npos) {
      return Status::InvalidArgument("text join column '" + pred.column_ref +
                                     "' must be qualified");
    }
    TEXTJOIN_ASSIGN_OR_RETURN(
        const RelationRef* rel,
        query.FindRelation(pred.column_ref.substr(0, dot)));
    TEXTJOIN_ASSIGN_OR_RETURN(Table * table,
                              catalog_->GetTable(rel->table_name));
    TEXTJOIN_ASSIGN_OR_RETURN(
        size_t col,
        table->schema().WithQualifier(rel->name()).Resolve(pred.column_ref));
    TEXTJOIN_ASSIGN_OR_RETURN(
        PredicateStatsEstimate est,
        EstimatePredicateStats(*table, col, *sampler_source, pred.field,
                               options_.sample_size, rng_));
    registry_.SetTextJoinStats(pred.column_ref, pred.field, est.selectivity,
                               est.fanout);
  }
  for (const TextSelection& sel : query.text_selections) {
    if (registry_.GetTextSelectionStats(sel.term, sel.field).ok()) continue;
    // One short-form search measures the selection exactly.
    TextQueryPtr probe = TextQuery::Term(sel.field, sel.term);
    TEXTJOIN_ASSIGN_OR_RETURN(std::vector<std::string> docids,
                              sampler_source->Search(*probe));
    // Postings estimate: result size is a lower bound on list length; use
    // it (the cost term is tiny under c_p).
    registry_.SetTextSelectionStats(sel.term, sel.field,
                                    static_cast<double>(docids.size()),
                                    static_cast<double>(docids.size()));
  }
  return Status::OK();
}

Result<PlanNodePtr> FederationService::Plan(const FederatedQuery& query,
                                            uint64_t pinned_epoch) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  TEXTJOIN_RETURN_IF_ERROR(EnsureStatistics(query, pinned_epoch));
  const BackendTopology& topology = backend_->topology();
  // The planner's corpus size is the PINNED size for mutable corpora —
  // the same universe execution will see.
  size_t total_documents = 0;
  for (const BackendTopology::Shard& shard : topology.shards) {
    const SearchableCorpus* corpus = shard.replicas[0].corpus;
    total_documents += corpus->mutable_corpus()
                           ? corpus->SnapshotAt(pinned_epoch)->num_documents()
                           : corpus->num_documents();
  }
  Enumerator enumerator(catalog_, &registry_, total_documents,
                        topology.max_search_terms(), options_.enumerator);
  return enumerator.Optimize(query);
}

Result<QueryOutcome> FederationService::Run(const std::string& sql) {
  return Run(sql, RunOptions{});
}

Result<QueryOutcome> FederationService::Run(const std::string& sql,
                                            const RunOptions& run) {
  // One per-query token is THE cancellation path: the client's RunOptions
  // token links into it, deadline expiry arms it, and Drain() fires it
  // with kShutdown. Registered before any work so a drain that starts
  // while we parse still reaches this query.
  CancelToken token = CancelToken::Make();
  CancelToken::Registration client_link;
  if (run.cancel.valid()) client_link = run.cancel.LinkChild(token);
  uint64_t query_id = 0;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (draining_) {
      return Status::Unavailable("service draining; new queries refused");
    }
    query_id = next_query_id_++;
    active_.emplace(query_id, token);
  }
  // Unregister on EVERY exit path; the notify wakes a waiting Drain().
  struct ActiveGuard {
    FederationService* service;
    uint64_t id;
    ~ActiveGuard() {
      {
        std::lock_guard<std::mutex> lock(service->lifecycle_mu_);
        service->active_.erase(id);
      }
      service->lifecycle_cv_.notify_all();
    }
  } unregister{this, query_id};
  // Ambient for this thread: statistics sampling, planning, and the
  // executor's inline stages all observe the token.
  CancelScope cancel_scope(token);

  // Live mode: pin the corpus version NOW, before statistics or planning
  // touch the corpus. Everything downstream — oracle probes, sampling,
  // the planner's document count, the router's replica snapshots, the
  // cache's validity gate — reads exactly this epoch, so a query never
  // observes a torn corpus no matter how writers race it.
  const uint64_t pinned_epoch = options_.live.has_value()
                                    ? options_.live->clock->published()
                                    : kUnpinnedEpoch;

  TEXTJOIN_ASSIGN_OR_RETURN(FederatedQuery query, ParseQuery(sql, options_.text));
  TEXTJOIN_ASSIGN_OR_RETURN(PlanNodePtr plan, Plan(query, pinned_epoch));

  // Query deadline: per-call override, else the service default, else
  // none. Computed and checked on deadline_clock everywhere (the one
  // injectable query-deadline clock). Expiry arms the SAME token, so
  // deadline aborts and client aborts take one cooperative path.
  const std::chrono::microseconds budget =
      run.deadline.value_or(options_.default_deadline);
  const auto& deadline_clock = options_.deadline_clock;
  const auto now = [&deadline_clock] {
    return deadline_clock ? deadline_clock() : std::chrono::steady_clock::now();
  };
  const auto deadline_tp = budget.count() > 0
                               ? now() + budget
                               : std::chrono::steady_clock::time_point::max();
  if (deadline_tp != std::chrono::steady_clock::time_point::max()) {
    token.SetDeadline(deadline_tp, deadline_clock);
  }
  const int priority = run.priority.value_or(0);
  const TenantId tenant = run.tenant.value_or(options_.default_tenant);
  TEXTJOIN_RETURN_IF_ERROR(token.Check());

  // Admission: bounded queueing for an execution slot; sheds queries whose
  // remaining deadline cannot cover the plan's estimated cost, and sheds
  // queued entries immediately when their token fires. The ticket holds
  // the slot for the rest of this call.
  AdmissionTicket ticket;
  if (admission_ != nullptr) {
    TEXTJOIN_ASSIGN_OR_RETURN(
        ticket,
        admission_->Admit(plan->est_cost, deadline_tp, priority, token,
                          tenant));
  }

  // A private router per call isolates its logical meter: the outcome's
  // delta is exact even when other Run()s execute concurrently. The router
  // rebuilds the chain per replica from the ChainSpec —
  //   meter -> [replica decorator] -> [chaos/test decorator] ->
  //   [resilient] -> [limiter] -> mux -> [hedging] -> router
  // — with the shared breakers/limiters/hedge controllers from backend_,
  // and the cross-query cache goes OUTERMOST, above the router, so a hit
  // skips scatter, hedging, retries, breakers and the meter entirely. For
  // a single backend this chain is layer-for-layer the pre-topology one.
  // Declaration order matters: reverse destruction tears the stack down
  // outside-in, and each shard's ~HedgedTextSource (inside the router)
  // waits out straggling hedge losers before the layers they call die.
  const uint64_t opens_before = backend_->breaker_opens_total();
  std::unique_ptr<ShardedTextSource> router =
      backend_->MakeQuerySource(options_.execution_source_decorator,
                                pinned_epoch);
  router->set_failure_mode(options_.failure_mode);
  TextSource* exec_source = router.get();
  std::unique_ptr<CachingTextSource> caching;
  if (cache_ != nullptr) {
    // Corpus-change watch: a different per-shard document-count
    // fingerprint than last observed means cached results may be stale —
    // drop everything. (Changes that keep the counts need an explicit
    // InvalidateCache().) Bypassed in live mode: the CorpusWriter pushes
    // SURGICAL invalidations for every write, and a whole-store flush on
    // every count change would defeat them.
    if (!options_.live.has_value()) {
      const size_t corpus = CorpusFingerprint(backend_->topology());
      const size_t previous = last_corpus_size_.exchange(corpus);
      if (previous != static_cast<size_t>(-1) && previous != corpus) {
        cache_->AdvanceEpoch();
      }
    }
    caching = std::make_unique<CachingTextSource>(exec_source, cache_, tenant,
                                                  pinned_epoch);
    exec_source = caching.get();
  }
  ExecutorOptions exec_options;
  exec_options.parallelism = options_.parallelism;
  exec_options.failure_mode = options_.failure_mode;
  exec_options.deadline = deadline_tp;
  exec_options.clock = deadline_clock;
  exec_options.cancel = token;
  PlanExecutor executor(catalog_, exec_source, exec_options, pool_.get());
  QueryOutcome outcome;
  TEXTJOIN_ASSIGN_OR_RETURN(
      outcome.rows, executor.Execute(*plan, query, &outcome.profile,
                                     &outcome.degradation));
  if (options_.chain.resilience.has_value()) {
    const ResilienceStats stats = router->resilience_stats();
    outcome.degradation.retries = stats.retries;
    outcome.degradation.deadline_hits = stats.deadline_hits;
    outcome.degradation.breaker_rejections = stats.breaker_rejections;
    outcome.degradation.breaker_opens =
        options_.chain.resilience->enable_breaker
            ? backend_->breaker_opens_total() - opens_before
            : stats.breaker_opens;
  }
  if (caching != nullptr) outcome.cache = caching->activity();
  // The overload account: the executor already wrote the shed and
  // cancelled operations; add the per-query decorator activity, the shared
  // controllers' current state and the admission wait. ExplainAnalyze
  // renders it as the `| overload` line.
  OverloadActivity& overload = outcome.profile.overload;
  if (options_.chain.limiter.has_value()) {
    overload.limiter_waits = router->limiter_activity().waits;
    overload.limit = backend_->limit_total();
  }
  if (options_.chain.hedging.has_value()) {
    router->Quiesce();  // Straggling losers still charge the waste meter.
    const HedgeActivity activity = router->hedge_activity();
    overload.hedges = activity.hedges;
    overload.hedge_wins = activity.hedge_wins;
    overload.hedges_suppressed = activity.suppressed;
    overload.hedge_waste = activity.waste;
    overload.hedge_losers_cancelled = activity.losers_cancelled;
  }
  overload.admission_wait_seconds = ticket.wait_seconds();
  // Which corpus version this query read; all-zero (and unrendered) for
  // frozen topologies.
  outcome.profile.corpus = router->corpus_pin();
  if (!backend_->topology().single()) {
    // Per-shard physical attribution — and the honest account of shard
    // contributions a best-effort broadcast dropped.
    outcome.profile.shards = router->activity();
    const uint64_t dropped = outcome.profile.shards.dropped_shards;
    if (dropped > 0) {
      outcome.degradation.skipped_operations += dropped;
      outcome.degradation.complete = false;
    }
  }
  outcome.meter_delta = router->meter();
  outcome.chosen_plan = plan->ToString(query);
  outcome.plan = std::move(plan);
  cumulative_.Add(outcome.meter_delta);
  return outcome;
}

// ---------------------------------------------------------------------------
// QueryHandle / Launch / Drain

/// The handle's shared half: the worker thread and its (write-once)
/// outcome. The join in Await()/~QueryHandle is the synchronization point
/// for `result`, so no further locking is needed.
struct FederationService::QueryHandle::Shared {
  std::thread thread;
  std::optional<Result<QueryOutcome>> result;
};

FederationService::QueryHandle::~QueryHandle() {
  if (shared_ != nullptr && shared_->thread.joinable()) {
    shared_->thread.join();
  }
}

void FederationService::QueryHandle::Cancel(std::string reason) {
  token_.Cancel(CancelReason::kClient, std::move(reason));
}

Result<QueryOutcome> FederationService::QueryHandle::Await() {
  if (shared_ == nullptr) {
    return Status::InvalidArgument("Await on an empty QueryHandle");
  }
  if (shared_->thread.joinable()) shared_->thread.join();
  if (!shared_->result.has_value()) {
    return Status::InvalidArgument("QueryHandle already awaited");
  }
  Result<QueryOutcome> result = *std::move(shared_->result);
  shared_->result.reset();
  return result;
}

FederationService::QueryHandle FederationService::Launch(const std::string& sql,
                                                         RunOptions run) {
  QueryHandle handle;
  handle.token_ = CancelToken::Make();
  // An external RunOptions token keeps working: it fans into the handle's.
  if (run.cancel.valid()) handle.link_ = run.cancel.LinkChild(handle.token_);
  run.cancel = handle.token_;
  handle.shared_ = std::make_shared<QueryHandle::Shared>();
  std::shared_ptr<QueryHandle::Shared> shared = handle.shared_;
  handle.shared_->thread = std::thread(
      [this, shared, sql, run] { shared->result.emplace(Run(sql, run)); });
  return handle;
}

FederationService::DrainReport FederationService::Drain(
    std::chrono::microseconds budget) {
  std::unique_lock<std::mutex> lock(lifecycle_mu_);
  draining_ = true;  // From here on, Run()/Launch() refuse with kUnavailable.
  DrainReport report;
  report.in_flight = active_.size();
  // Give in-flight queries the budget to finish on their own. Real clock:
  // draining is an operational action, not part of any simulated workload.
  const auto deadline = std::chrono::steady_clock::now() + budget;
  lifecycle_cv_.wait_until(lock, deadline, [this] { return active_.empty(); });
  report.finished = report.in_flight - active_.size();
  if (!active_.empty()) {
    // Hard-cancel the stragglers through their own tokens — the same
    // cooperative path client aborts take — then wait for them to unwind
    // (they must release permits, tickets and pool jobs on the way out).
    report.cancelled = active_.size();
    for (auto& [id, token] : active_) {
      token.Cancel(CancelReason::kShutdown,
                   "service drain budget exhausted; query cancelled");
    }
    lifecycle_cv_.wait(lock, [this] { return active_.empty(); });
  }
  // With no queries left in flight, stop folding segments. (Stop is
  // idempotent; the worker never touches lifecycle_mu_.)
  if (merge_worker_ != nullptr) merge_worker_->Stop();
  return report;
}

Result<std::string> FederationService::Explain(const std::string& sql) {
  const uint64_t pinned_epoch = options_.live.has_value()
                                    ? options_.live->clock->published()
                                    : kUnpinnedEpoch;
  TEXTJOIN_ASSIGN_OR_RETURN(FederatedQuery query, ParseQuery(sql, options_.text));
  TEXTJOIN_ASSIGN_OR_RETURN(PlanNodePtr plan, Plan(query, pinned_epoch));
  return query.ToString() + "\n" + plan->ToString(query);
}

}  // namespace textjoin
