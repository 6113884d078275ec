#ifndef TEXTJOIN_SQL_FEDERATION_SERVICE_H_
#define TEXTJOIN_SQL_FEDERATION_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "connector/overload.h"
#include "connector/remote_text_source.h"
#include "connector/resilience.h"
#include "connector/sharding.h"
#include "connector/text_cache.h"
#include "core/admission.h"
#include "connector/corpus_writer.h"
#include "core/enumerator.h"
#include "core/executor.h"
#include "core/statistics.h"
#include "text/live_corpus.h"

/// \file
/// The one-stop facade over the whole pipeline: SQL text in, rows out.
/// Wires together the parser, statistics acquisition (sampling per paper
/// Section 4.2, or oracle mode for experiments), the PrL enumerator, the
/// plan executor, and the access meter — over ONE text backend or a
/// sharded, replicated topology of them (connector/sharding.h).

namespace textjoin {

/// Everything one Run() call produced, as a value: the materialized rows,
/// the text-source charges attributable to THIS call (not a cumulative
/// counter the caller must diff), the chosen plan, and the per-node
/// execution profile. Outcomes are self-contained — two concurrent calls
/// never see each other's charges.
struct QueryOutcome {
  ExecutionResult rows;

  /// Text-source charges of this execution only — the LOGICAL charges
  /// under a sharded topology, byte-identical to the single-backend meter
  /// for the same rows. Sampling charges (when oracle_stats is false) are
  /// excluded; they live in stats_meter().
  AccessMeter meter_delta;

  /// EXPLAIN rendering of the plan that was executed.
  std::string chosen_plan;

  /// Per-node actuals (rows + meter deltas), keyed by nodes of `plan`.
  /// Pipeline-backed nodes (foreign join, probe) additionally carry a
  /// per-stage breakdown (NodeProfile::stages) which ExplainAnalyze
  /// renders as indented stage lines under the node. The query-wide
  /// accounts live here too: `profile.overload` (hedge races — whose waste
  /// is NOT in meter_delta — limiter queueing, deadline sheds, admission
  /// wait) and `profile.shards` (per-shard-replica physical attribution,
  /// multi-shard topologies only).
  ExecutionProfile profile;

  /// The executed plan; owning it here keeps `profile`'s keys valid for
  /// as long as the outcome lives (e.g. for ExplainAnalyze rendering).
  PlanNodePtr plan;

  /// The honest account of this execution's degradation: retries and
  /// breaker activity absorbed by the resilience layer, plus whatever a
  /// non-fail-fast failure mode skipped. `degradation.complete` is the
  /// headline — when true, `rows` is exactly the fault-free answer.
  DegradationReport degradation;

  /// This query's cross-query cache traffic (all zero when caching is off
  /// or the cache was cold for every operation). `meter_delta` counts
  /// upstream calls actually made; the operations the cache absorbed are
  /// here, reported separately.
  CacheActivity cache;
};

/// A federation of one relational catalog and an external text corpus —
/// either a single engine or a BackendTopology of N shards x R replicas
/// routed by a ShardedTextSource.
///
/// Run() is safe to call from multiple threads concurrently: statistics
/// acquisition and planning are serialized internally, and each execution
/// charges a private per-call meter before folding into the cumulative one.
class FederationService {
 public:
  /// Live-corpus mode (DESIGN.md §16): the topology's corpora are mutable
  /// LiveCorpus instances fed by a CorpusWriter sharing `clock`. Every
  /// query pins clock->published() at admission and reads exactly that
  /// corpus version end to end — router snapshots, statistics, the
  /// document-count the planner sees, and the cache's pin gate all use
  /// the same epoch.
  struct LiveServiceOptions {
    /// The write-epoch authority shared with the CorpusWriter. Required.
    EpochClock* clock = nullptr;
    /// Corpora the owned merge worker folds (typically
    /// CorpusWriter::AllCorpora()). Ignored unless start_merge_worker.
    std::vector<LiveCorpus*> merge_corpora;
    /// Own and start a SegmentMergeWorker over merge_corpora; it is
    /// stopped by Drain() (after in-flight queries finish) and by the
    /// destructor.
    bool start_merge_worker = false;
    MergeWorkerOptions merge_worker;
  };

  struct Options {
    /// How the engine appears as a relation (alias + fields).
    TextRelationDecl text;

    /// Where the corpus lives. Empty (the default) means a single backend:
    /// the engine passed to the constructor, as a topology of one shard,
    /// one replica — byte-identical to the pre-topology behavior. A
    /// multi-shard topology scatter-gathers searches and routes fetches by
    /// docid hash (see connector/sharding.h and workload/sharded_corpus.h
    /// for building one).
    BackendTopology topology;

    /// The per-query decorator chain, one composable spec (presence of an
    /// optional = layer engaged): `chain.cache` is the logical, outermost
    /// layer above the router; `chain.hedging` is per shard (duplicates
    /// race ACROSS replicas); `chain.limiter` and `chain.resilience` (with
    /// its nested breaker) are per replica, so one sick replica fails over
    /// without poisoning the rest. Controllers (breakers, limiters, hedge
    /// state) are service-wide and persist across queries.
    ChainSpec chain;

    /// Service admission queue (presence = enabled): bounded queueing for
    /// an execution slot, priority-ordered, shedding queries whose
    /// remaining deadline cannot cover their estimated cost. A query gate,
    /// not a chain layer — hence not part of `chain`.
    std::optional<AdmissionOptions> admission_control;

    /// THE query-deadline clock: deadlines are computed and checked on it
    /// everywhere (admission shedding, executor-level shedding; an
    /// `admission_control` without a clock of its own runs on this one).
    /// Null = steady_clock. Inject for deterministic deadline tests.
    SteadyClockFn deadline_clock;

    /// true: compute exact statistics engine-side (free, experiment mode).
    /// false: sample the text source per Section 4.2; sampling charges go
    /// to stats_meter() and are amortized across queries.
    bool oracle_stats = true;
    size_t sample_size = 50;        ///< Values probed per predicate.

    /// Number of concurrent text-source operations per query; 1 = serial.
    /// Parallelism never changes results or meter totals, only wall-clock
    /// time (see DESIGN.md, "Concurrency model").
    int parallelism = 1;

    EnumeratorOptions enumerator;   ///< Plan-space knobs.

    /// What execution does when an operation fails even after the
    /// resilience layer gave up (see FailureMode). Fail-fast reproduces
    /// the historical behavior; best-effort returns partial results with
    /// an honest QueryOutcome::degradation report. Under a sharded
    /// topology, best-effort additionally lets a broadcast search drop a
    /// whole shard whose every replica failed transiently.
    FailureMode failure_mode = FailureMode::kFailFast;

    /// Test/chaos hook: wraps each REPLICA's execution source (after the
    /// meter and the topology's own per-replica decorator, before
    /// resilience). Returning null leaves the replica unwrapped. The
    /// returned decorators live for the duration of the Run() call.
    std::function<std::unique_ptr<TextSource>(TextSource*)>
        execution_source_decorator;

    /// A cache to share with other services/sessions (the multi-session
    /// setting: one cache, many federations over the same corpus). When
    /// set, it wins over `chain.cache` (which would build a private one).
    std::shared_ptr<TextCache> shared_cache;

    /// Default per-query deadline (0 = none), overridable per Run() call
    /// via RunOptions. The deadline bounds the whole query: admission sheds
    /// it when it cannot be met, and execution sheds the remaining source
    /// operations once it passes (on `deadline_clock`).
    std::chrono::microseconds default_deadline{0};

    /// Live-corpus mode: presence means the topology mutates while
    /// serving. Queries pin the clock's published frontier; the
    /// corpus-size cache watch is bypassed (writers invalidate
    /// surgically through CorpusWriter instead).
    std::optional<LiveServiceOptions> live;

    /// Tenant queries run as when RunOptions does not say otherwise
    /// (DESIGN.md §15). Empty — the default — is the shared default
    /// tenant: untenanted deployments behave exactly as before. The
    /// tenant selects the admission fairness/quota bucket and the cache
    /// partition insertions are charged to.
    TenantId default_tenant;
  };

  /// Per-call overrides of the service-wide defaults.
  struct RunOptions {
    std::optional<std::chrono::microseconds> deadline;
    /// Admission-queue priority (higher runs first); unset = 0.
    std::optional<int> priority;
    /// The tenant this query runs as (admission fairness bucket + cache
    /// partition); unset = the service's default_tenant.
    std::optional<TenantId> tenant;
    /// Client abort handle: make one with CancelToken::Make(), pass it
    /// here, and Cancel() it from any thread to abort the query
    /// cooperatively — queued admission waits shed immediately, pending
    /// pipeline units drain without running, in-flight source waits
    /// (retry backoff, limiter queues, injected latency) wake, and the
    /// query returns kCancelled. A null (default) token never fires.
    /// Deadline expiry and service drain arm the SAME per-query token
    /// internally, so all three converge on one cancellation path.
    CancelToken cancel;
  };

  /// A query started with Launch(): cancel it, await its outcome. Move-only;
  /// destroying an un-awaited handle blocks until the query finished
  /// (cancel first for a fast exit).
  class QueryHandle {
   public:
    QueryHandle() = default;
    QueryHandle(QueryHandle&&) = default;
    QueryHandle& operator=(QueryHandle&&) = default;
    ~QueryHandle();

    /// Fires the query's token with kClient. Idempotent; safe from any
    /// thread, including after the query finished.
    void Cancel(std::string reason = "client abort");

    /// Blocks until the query finished and returns its outcome (or its
    /// error — kCancelled after Cancel(), kUnavailable when refused by a
    /// draining service). Valid once per handle.
    Result<QueryOutcome> Await();

   private:
    friend class FederationService;
    struct Shared;
    CancelToken token_;
    CancelToken::Registration link_;
    std::shared_ptr<Shared> shared_;
  };

  /// What Drain() did to the queries that were in flight when it started.
  struct DrainReport {
    size_t in_flight = 0;  ///< Queries active when the drain began.
    size_t finished = 0;   ///< Of those, completed inside the budget.
    size_t cancelled = 0;  ///< Stragglers hard-cancelled at the budget.
  };

  /// All pointers must outlive the service. `engine` may be null when
  /// `options.topology` is set (it is ignored then); with an empty
  /// topology it becomes the single backend.
  FederationService(const Catalog* catalog, const SearchableCorpus* engine,
                    Options options)
      : catalog_(catalog),
        options_(std::move(options)),
        rng_(kSamplingSeed) {
    TEXTJOIN_CHECK(!options_.topology.empty() || engine != nullptr,
                   "FederationService needs an engine or a topology");
    BackendTopology topology = options_.topology.empty()
                                   ? BackendTopology::Single(engine)
                                   : options_.topology;
    ShardedBackendOptions backend_options;
    backend_options.chain = options_.chain;
    backend_ = std::make_unique<ShardedBackend>(std::move(topology),
                                                std::move(backend_options));
    stats_source_ = backend_->MakeBareSource();
    if (options_.parallelism > 1) {
      pool_ = std::make_unique<ThreadPool>(options_.parallelism - 1);
    }
    if (options_.shared_cache != nullptr) {
      cache_ = options_.shared_cache;
    } else if (options_.chain.cache.has_value()) {
      cache_ = std::make_shared<TextCache>(*options_.chain.cache);
    }
    if (options_.admission_control.has_value()) {
      AdmissionOptions admission = *options_.admission_control;
      if (!admission.clock && options_.deadline_clock) {
        admission.clock = options_.deadline_clock;
      }
      admission_ = std::make_unique<AdmissionController>(admission);
    }
    if (options_.live.has_value()) {
      TEXTJOIN_CHECK(options_.live->clock != nullptr,
                     "live mode needs an EpochClock");
      if (options_.live->start_merge_worker) {
        merge_worker_ = std::make_unique<SegmentMergeWorker>(
            options_.live->merge_corpora, options_.live->merge_worker);
        merge_worker_->Start();
      }
    }
  }

  FederationService(const FederationService&) = delete;
  FederationService& operator=(const FederationService&) = delete;

  /// Parses, optimizes, and executes `sql`, returning a self-contained
  /// QueryOutcome. Statistics for predicates not yet known are acquired on
  /// first use and cached across queries.
  Result<QueryOutcome> Run(const std::string& sql);

  /// Run() with per-call deadline/priority overrides. A query shed by
  /// admission control returns an error outcome: kUnavailable when the
  /// admission queue was full, kDeadlineExceeded when its deadline had
  /// passed (or could not cover the plan's estimated cost). A cancelled
  /// query (run.cancel, deadline-armed token, or service drain) returns
  /// kCancelled without publishing a torn row set.
  Result<QueryOutcome> Run(const std::string& sql, const RunOptions& run);

  /// Starts `sql` on a dedicated thread and returns immediately with a
  /// handle that can Cancel() it mid-flight and Await() its outcome — the
  /// asynchronous face of Run() (which stays synchronous).
  QueryHandle Launch(const std::string& sql, RunOptions run = {});

  /// Graceful drain: stop admitting new queries (Run/Launch return
  /// kUnavailable from now on), give in-flight queries `budget` of real
  /// time to finish, then hard-cancel the stragglers (kShutdown through
  /// each query's token) and wait for them to unwind. Idempotent; safe
  /// to call concurrently with Run (a second drain observes whatever the
  /// first left). The service stays usable for introspection (meters,
  /// stats) afterwards — only query admission is closed.
  DrainReport Drain(std::chrono::microseconds budget);

  /// Drain with a zero budget: refuse new queries and hard-cancel
  /// everything in flight immediately.
  DrainReport Shutdown() { return Drain(std::chrono::microseconds{0}); }

  /// True once Drain()/Shutdown() began: new queries are being refused.
  bool draining() const {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    return draining_;
  }

  /// Parses and optimizes `sql`, returning the EXPLAIN rendering of the
  /// chosen plan (no execution, no meter charges beyond statistics).
  Result<std::string> Explain(const std::string& sql);

  /// Cumulative execution charges across every Run() so far.
  AccessMeter meter() const { return cumulative_.Snapshot(); }
  void ResetMeter() { cumulative_.Reset(); }

  /// Charges incurred acquiring statistics (sampling mode only).
  AccessMeter stats_meter() const { return stats_source_->meter(); }

  /// The backend: topology plus the service-wide per-(shard, replica)
  /// breakers / limiters and per-shard hedge controllers.
  ShardedBackend* backend() const { return backend_.get(); }

  /// Single-backend conveniences: the (0, 0) replica's controllers (the
  /// only ones in a topology of one). Null when the layer is off.
  CircuitBreaker* breaker() const { return backend_->breaker(0, 0); }
  AdaptiveLimiter* limiter() const { return backend_->limiter(0, 0); }
  HedgeController* hedge() const { return backend_->hedge(0); }
  AdmissionController* admission() const { return admission_.get(); }

  /// The cross-query cache this service consults (shared or private);
  /// null when caching is off. Stats() aggregates every session using it.
  TextCache* cache() const { return cache_.get(); }

  /// The owned background segment merger; null unless live mode asked for
  /// one. Stopped by Drain() and the destructor.
  SegmentMergeWorker* merge_worker() const { return merge_worker_.get(); }

  /// Drops every cache entry and advances the epoch — for corpus changes
  /// the automatic document-count watch cannot see (in-place edits).
  /// No-op when caching is off.
  void InvalidateCache() {
    if (cache_ != nullptr) cache_->AdvanceEpoch();
  }

  /// The statistics cache (exposed for inspection/preloading). Not
  /// synchronized — do not touch while Run() is in flight elsewhere.
  StatsRegistry& stats() { return registry_; }

 private:
  /// Ensures the registry covers every predicate of `query`, reading the
  /// corpus at `pinned_epoch` (mutable corpora only; kUnpinnedEpoch =
  /// latest). Caller holds stats_mu_.
  Status EnsureStatistics(const FederatedQuery& query, uint64_t pinned_epoch);

  /// Statistics + enumeration under stats_mu_, against the corpus as of
  /// `pinned_epoch`.
  Result<PlanNodePtr> Plan(const FederatedQuery& query, uint64_t pinned_epoch);

  const Catalog* catalog_;
  Options options_;

  /// The topology plus shared per-replica controllers; every Run() mints
  /// its router from this.
  std::unique_ptr<ShardedBackend> backend_;

  /// Serializes statistics acquisition and planning (registry_, rng_).
  std::mutex stats_mu_;
  /// Bare (chain-less) router; its own meter IS the stats meter.
  std::unique_ptr<ShardedTextSource> stats_source_;
  StatsRegistry registry_;
  /// Sampling draws are seeded, so sampled statistics (and the plans built
  /// on them) repeat exactly from run to run.
  static constexpr uint64_t kSamplingSeed = 42;
  Rng rng_;

  /// Folded per-call deltas; commutative, so concurrent Run()s agree.
  AtomicAccessMeter cumulative_;

  /// Shared helper threads for parallel execution (null when serial).
  std::unique_ptr<ThreadPool> pool_;

  /// Admission gate; null when admission_control is absent.
  std::unique_ptr<AdmissionController> admission_;

  /// Owned background segment merger (live mode with start_merge_worker);
  /// stopped by Drain() once in-flight queries finished, and by ~unique_ptr.
  std::unique_ptr<SegmentMergeWorker> merge_worker_;

  /// Query lifecycle: the drain gate plus the registry of in-flight query
  /// tokens (id -> token), so Drain() can hard-cancel stragglers. Guarded
  /// by lifecycle_mu_; lifecycle_cv_ signals every unregister.
  mutable std::mutex lifecycle_mu_;
  std::condition_variable lifecycle_cv_;
  bool draining_ = false;
  uint64_t next_query_id_ = 0;
  std::map<uint64_t, CancelToken> active_;

  /// The cross-query cache (private or shared per Options). Null when off.
  std::shared_ptr<TextCache> cache_;

  /// Corpus-change watch: the TOTAL document count across every shard
  /// observed by the last Run() — aggregated, so a single-shard corpus
  /// swap still bumps the epoch. SIZE_MAX until first observed (no
  /// spurious invalidation on startup).
  std::atomic<size_t> last_corpus_size_{static_cast<size_t>(-1)};
};

}  // namespace textjoin

#endif  // TEXTJOIN_SQL_FEDERATION_SERVICE_H_
