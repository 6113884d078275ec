#include "connector/sharding.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "common/cancel.h"

namespace textjoin {

// ---------------------------------------------------------------------------
// BackendTopology

size_t BackendTopology::max_search_terms() const {
  size_t terms = 0;
  bool first = true;
  for (const Shard& shard : shards) {
    if (shard.replicas.empty() || shard.replicas[0].corpus == nullptr) {
      continue;
    }
    const size_t t = shard.replicas[0].corpus->max_search_terms();
    terms = first ? t : std::min(terms, t);
    first = false;
  }
  return terms;
}

int BackendTopology::max_concurrency() const {
  int cap = 0;
  for (const Shard& shard : shards) {
    for (const Replica& replica : shard.replicas) {
      if (replica.corpus == nullptr) continue;
      const int c = replica.corpus->max_concurrency();
      if (c > 0 && (cap == 0 || c < cap)) cap = c;
    }
  }
  return cap;
}

Status BackendTopology::Validate() const {
  if (shards.empty()) {
    return Status::InvalidArgument("topology has no shards");
  }
  for (size_t s = 0; s < shards.size(); ++s) {
    const Shard& shard = shards[s];
    if (shard.replicas.empty()) {
      return Status::InvalidArgument("shard " + std::to_string(s) +
                                     " has no replicas");
    }
    for (size_t r = 0; r < shard.replicas.size(); ++r) {
      if (shard.replicas[r].corpus == nullptr) {
        return Status::InvalidArgument("shard " + std::to_string(s) +
                                       " replica " + std::to_string(r) +
                                       " has no corpus");
      }
    }
    const size_t docs = shard.replicas[0].corpus->num_documents();
    for (size_t r = 1; r < shard.replicas.size(); ++r) {
      if (shard.replicas[r].corpus->num_documents() != docs) {
        return Status::InvalidArgument(
            "replicas of shard " + std::to_string(s) +
            " disagree on document count (replication must be exact)");
      }
    }
  }
  if (shards.size() > 1 && !global_ordinal) {
    return Status::InvalidArgument(
        "multi-shard topology needs a global_ordinal function to merge "
        "scattered search results deterministically");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ShardReplicaActivity

std::string ShardReplicaActivity::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "s%zu.r%zu ops=%llu errors=%llu failovers=%llu retries=%llu ",
                shard, replica, static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(failovers),
                static_cast<unsigned long long>(resilience.retries));
  return std::string(buf) + meter.ToString();
}

namespace {

/// Counters the failover mux maintains per replica (lives in the
/// ReplicaRuntime so atomics never move).
struct ReplicaCounters {
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> failovers{0};
};

/// The physical endpoint: one replica corpus behind the TextSource
/// interface. Every successful engine call charges the replica's physical
/// meter in full (honest per-replica attribution, hedge duplicates
/// included) AND the router's logical meter — postings and short docs only;
/// the router itself adds the single logical invocation per search, so
/// failover re-attempts never inflate the logical invocation count. Inside
/// a hedge attempt the logical charge is diverted, in full, to the waste
/// meter — exactly RemoteTextSource's contract.
class ShardReplicaSource final : public TextSource {
 public:
  ShardReplicaSource(const SearchableCorpus* corpus,
                     const ShardedTextSource* router,
                     AtomicAccessMeter* physical)
      : corpus_(corpus), router_(router), physical_(physical) {}

  Result<std::vector<std::string>> Search(
      const TextQuery& query) const override {
    Result<EngineSearchResult> result = corpus_->Search(query);
    if (!result.ok()) return result.status();
    const uint64_t postings = result->postings_processed;
    const uint64_t shorts = result->docs.size();
    physical_->ChargeSearch(postings, shorts);
    if (AtomicAccessMeter* waste = HedgeWasteMeter()) {
      waste->ChargeSearch(postings, shorts);
    } else {
      AtomicAccessMeter& logical = router_->charging_meter();
      logical.ChargePostings(postings);
      logical.ChargeShortDocs(shorts);
    }
    std::vector<std::string> docids;
    docids.reserve(result->docs.size());
    for (DocNum num : result->docs) {
      docids.push_back(corpus_->GetDocument(num).docid);
    }
    return docids;
  }

  Result<Document> Fetch(const std::string& docid) const override {
    Result<DocNum> num = corpus_->FindDocid(docid);
    if (!num.ok()) return num.status();
    physical_->ChargeLongDoc();
    if (AtomicAccessMeter* waste = HedgeWasteMeter()) {
      waste->ChargeLongDoc();
    } else {
      router_->charging_meter().ChargeLongDoc();
    }
    return corpus_->GetDocument(*num);
  }

  size_t max_search_terms() const override {
    return corpus_->max_search_terms();
  }
  size_t num_documents() const override { return corpus_->num_documents(); }
  int max_concurrency() const override { return corpus_->max_concurrency(); }

 private:
  const SearchableCorpus* corpus_;
  const ShardedTextSource* router_;
  AtomicAccessMeter* physical_;
};

/// The per-shard replica mux: tries replicas in order, failing over on
/// transient errors only (a permanent error — bad query, missing docid —
/// would fail identically everywhere). A hedge duplicate starts at replica
/// 1, so the race PR 5 introduced becomes a race across SERVERS: the
/// primary and its hedge never double-tap the same sick replica.
class ReplicaFailoverSource final : public TextSource {
 public:
  ReplicaFailoverSource(std::vector<TextSource*> replicas,
                        std::vector<ReplicaCounters*> counters)
      : replicas_(std::move(replicas)), counters_(std::move(counters)) {}

  Result<std::vector<std::string>> Search(
      const TextQuery& query) const override {
    return Dispatch<std::vector<std::string>>(
        [&query](const TextSource& replica) { return replica.Search(query); });
  }

  Result<Document> Fetch(const std::string& docid) const override {
    return Dispatch<Document>(
        [&docid](const TextSource& replica) { return replica.Fetch(docid); });
  }

  size_t max_search_terms() const override {
    return replicas_[0]->max_search_terms();
  }
  size_t num_documents() const override {
    return replicas_[0]->num_documents();
  }
  int max_concurrency() const override {
    int cap = 0;
    for (const TextSource* replica : replicas_) {
      const int c = replica->max_concurrency();
      if (c > 0 && (cap == 0 || c < cap)) cap = c;
    }
    return cap;
  }

 private:
  template <typename T, typename Op>
  Result<T> Dispatch(const Op& op) const {
    const size_t n = replicas_.size();
    const size_t start = (n > 1 && InHedgeAttempt()) ? 1 : 0;
    Status last = Status::Unavailable("no replica answered");
    for (size_t i = 0; i < n; ++i) {
      const size_t r = (start + i) % n;
      counters_[r]->ops.fetch_add(1, std::memory_order_relaxed);
      if (i > 0) {
        counters_[r]->failovers.fetch_add(1, std::memory_order_relaxed);
      }
      Result<T> result = op(*replicas_[r]);
      if (result.ok()) return result;
      counters_[r]->errors.fetch_add(1, std::memory_order_relaxed);
      if (!IsTransientError(result.status().code())) return result;
      last = result.status();
    }
    return last;
  }

  std::vector<TextSource*> replicas_;
  std::vector<ReplicaCounters*> counters_;
};

}  // namespace

// ---------------------------------------------------------------------------
// ShardedTextSource runtimes

/// Everything one replica needs for one query: its physical endpoint and
/// the per-replica slice of the chain. `top` is the outermost layer the
/// mux dispatches to.
struct ShardedTextSource::ReplicaRuntime {
  ReplicaCounters counters;
  AtomicAccessMeter physical;
  /// For a mutable replica corpus: the immutable per-epoch view captured
  /// at router mint time, which the endpoint reads instead of the live
  /// corpus — one corpus version per query, end to end. Null for frozen
  /// corpora.
  std::shared_ptr<const SearchableCorpus> snapshot;
  /// The corpus the endpoint actually reads (snapshot.get() or the
  /// topology's frozen corpus).
  const SearchableCorpus* corpus = nullptr;
  std::unique_ptr<ShardReplicaSource> endpoint;
  std::unique_ptr<TextSource> replica_decorated;
  std::unique_ptr<TextSource> query_decorated;
  std::unique_ptr<ResilientTextSource> resilient;
  std::unique_ptr<LimitedTextSource> limited;
  TextSource* top = nullptr;
};

/// One shard's replicas plus the cross-replica layers. `hedged` is
/// declared last so it is destroyed first — its destructor blocks until
/// straggling hedge losers finished against the mux below it.
struct ShardedTextSource::ShardRuntime {
  std::vector<std::unique_ptr<ReplicaRuntime>> replicas;
  std::unique_ptr<ReplicaFailoverSource> mux;
  std::unique_ptr<HedgedTextSource> hedged;
  TextSource* top = nullptr;
};

ShardedTextSource::ShardedTextSource(
    const ShardedBackend& backend,
    const std::function<std::unique_ptr<TextSource>(TextSource*)>&
        query_decorator,
    bool bare, uint64_t pinned_epoch)
    : backend_(backend) {
  const BackendTopology& topology = backend.topology();
  const ChainSpec& chain = backend.chain();
  shards_.reserve(topology.shards.size());
  for (size_t s = 0; s < topology.shards.size(); ++s) {
    const BackendTopology::Shard& shard = topology.shards[s];
    auto shard_rt = std::make_unique<ShardRuntime>();
    std::vector<TextSource*> tops;
    std::vector<ReplicaCounters*> counters;
    for (size_t r = 0; r < shard.replicas.size(); ++r) {
      auto rt = std::make_unique<ReplicaRuntime>();
      rt->corpus = shard.replicas[r].corpus;
      if (rt->corpus->mutable_corpus()) {
        // Pin the replica to ONE corpus version for this router's whole
        // lifetime. Search resolves document numbers to docids against the
        // same view it searched — no torn reads however writers race us.
        rt->snapshot = rt->corpus->SnapshotAt(pinned_epoch);
        rt->corpus = rt->snapshot.get();
      }
      rt->endpoint = std::make_unique<ShardReplicaSource>(
          rt->corpus, this, &rt->physical);
      TextSource* top = rt->endpoint.get();
      if (!bare) {
        if (shard.replicas[r].decorator) {
          rt->replica_decorated = shard.replicas[r].decorator(top);
          top = rt->replica_decorated.get();
        }
        if (query_decorator) {
          rt->query_decorated = query_decorator(top);
          top = rt->query_decorated.get();
        }
        if (chain.resilience.has_value()) {
          rt->resilient = std::make_unique<ResilientTextSource>(
              top, *chain.resilience, backend.breaker(s, r));
          top = rt->resilient.get();
        }
        if (chain.limiter.has_value()) {
          rt->limited =
              std::make_unique<LimitedTextSource>(top, backend.limiter(s, r));
          top = rt->limited.get();
        }
      }
      rt->top = top;
      tops.push_back(top);
      counters.push_back(&rt->counters);
      shard_rt->replicas.push_back(std::move(rt));
    }
    shard_rt->mux = std::make_unique<ReplicaFailoverSource>(
        std::move(tops), std::move(counters));
    TextSource* shard_top = shard_rt->mux.get();
    if (!bare && chain.hedging.has_value()) {
      // The duplicate goes to replica 1 when one exists, so spare capacity
      // is judged against the replica that would actually serve it.
      const size_t dup = shard.replicas.size() > 1 ? 1 : 0;
      AdaptiveLimiter* suppression =
          chain.limiter.has_value() ? backend.limiter(s, dup) : nullptr;
      shard_rt->hedged = std::make_unique<HedgedTextSource>(
          shard_top, backend.hedge(s), suppression);
      shard_top = shard_rt->hedged.get();
    }
    shard_rt->top = shard_top;
    shards_.push_back(std::move(shard_rt));
  }
}

ShardedTextSource::~ShardedTextSource() = default;

Result<std::vector<std::string>> ShardedTextSource::Search(
    const TextQuery& query) const {
  if (shards_.size() == 1) {
    Result<std::vector<std::string>> result = shards_[0]->top->Search(query);
    if (result.ok()) charging_meter().ChargeInvocation();
    return result;
  }
  return ScatterSearch(query);
}

Result<std::vector<std::string>> ShardedTextSource::ScatterSearch(
    const TextQuery& query) const {
  broadcasts_.fetch_add(1, std::memory_order_relaxed);
  const size_t n = shards_.size();
  std::vector<std::optional<Result<std::vector<std::string>>>> parts(n);
  // The scatter lambdas run on pool workers with no ambient token of their
  // own: re-install the caller's. Under kFailFast the shards additionally
  // share an abort token (a child of the query token, so client aborts
  // still fan out): the first shard error cancels it, and sibling shards
  // stop cooperatively instead of running a scatter nobody can use.
  CancelToken query_token = CurrentCancelToken();
  const bool fail_fast_abort = failure_mode_ == FailureMode::kFailFast && n > 1;
  CancelToken abort_token;
  CancelToken::Registration link;
  if (fail_fast_abort) {
    abort_token = CancelToken::Make();
    if (query_token.valid()) link = query_token.LinkChild(abort_token);
  }
  ParallelFor(backend_.scatter_pool(), n, [&](size_t s) {
    CancelScope scope(fail_fast_abort ? abort_token : query_token);
    parts[s].emplace(shards_[s]->top->Search(query));
    if (fail_fast_abort && !parts[s]->ok() &&
        parts[s]->status().code() != StatusCode::kCancelled) {
      abort_token.Cancel(CancelReason::kClient,
                         "scatter aborted: shard " + std::to_string(s) +
                             " failed under fail-fast");
    }
  });

  // Deterministic failure semantics: the logical operation fails with the
  // lowest-index shard's REAL error — a sibling whose only failure is the
  // injected scatter abort (kCancelled) never masks the root cause. Under
  // kBestEffort a shard whose every replica failed TRANSIENTLY is dropped
  // from the merge instead — recorded below so DegradationReport stays
  // honest about the missing rows.
  size_t dropped = 0;
  const Status* failure = nullptr;
  const Status* cancelled = nullptr;
  for (size_t s = 0; s < n; ++s) {
    const Status& status = parts[s]->status();
    if (status.ok()) continue;
    if (status.code() == StatusCode::kCancelled) {
      if (cancelled == nullptr) cancelled = &status;
      continue;
    }
    if (failure_mode_ == FailureMode::kBestEffort &&
        IsTransientError(status.code())) {
      ++dropped;
      continue;
    }
    if (failure == nullptr) failure = &status;
  }
  if (failure != nullptr) return *failure;
  if (cancelled != nullptr) return *cancelled;
  if (dropped == n && n > 0) return parts[0]->status();
  if (dropped > 0) {
    dropped_shards_.fetch_add(dropped, std::memory_order_relaxed);
    incomplete_.store(true, std::memory_order_relaxed);
  }

  // Merge by global document ordinal: docids partition disjointly across
  // shards and each shard returns them in local corpus order, so sorting
  // by ordinal reproduces the single-backend order exactly.
  const auto& ordinal_of = backend_.topology().global_ordinal;
  std::vector<std::pair<int64_t, std::string>> merged;
  for (size_t s = 0; s < n; ++s) {
    if (!parts[s]->ok()) continue;
    for (std::string& docid : parts[s]->value()) {
      const int64_t ordinal = ordinal_of(docid);
      merged.emplace_back(ordinal, std::move(docid));
    }
  }
  std::sort(merged.begin(), merged.end());
  std::vector<std::string> docids;
  docids.reserve(merged.size());
  for (auto& entry : merged) docids.push_back(std::move(entry.second));
  charging_meter().ChargeInvocation();
  return docids;
}

Result<Document> ShardedTextSource::Fetch(const std::string& docid) const {
  size_t s = 0;
  if (shards_.size() > 1) {
    const auto& partitioner = backend_.topology().partitioner;
    s = partitioner ? partitioner(docid)
                    : ShardForDocid(docid, shards_.size());
    if (s >= shards_.size()) s %= shards_.size();
    routed_fetches_.fetch_add(1, std::memory_order_relaxed);
  }
  return shards_[s]->top->Fetch(docid);
}

size_t ShardedTextSource::max_search_terms() const {
  size_t terms = 0;
  bool first = true;
  for (const auto& shard : shards_) {
    const size_t t = shard->top->max_search_terms();
    terms = first ? t : std::min(terms, t);
    first = false;
  }
  return terms;
}

size_t ShardedTextSource::num_documents() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->top->num_documents();
  return n;
}

int ShardedTextSource::max_concurrency() const {
  int cap = 0;
  for (const auto& shard : shards_) {
    const int c = shard->top->max_concurrency();
    if (c > 0 && (cap == 0 || c < cap)) cap = c;
  }
  return cap;
}

CorpusPinInfo ShardedTextSource::corpus_pin() const {
  CorpusPinInfo info;
  for (const auto& shard : shards_) {
    if (shard->replicas.empty()) continue;
    const CorpusPinInfo p = shard->replicas[0]->corpus->pin_info();
    if (!p.mutable_corpus) continue;
    info.mutable_corpus = true;
    info.epoch = std::max(info.epoch, p.epoch);
    info.delta_docs += p.delta_docs;
    info.visible_docs += p.visible_docs;
  }
  return info;
}

void ShardedTextSource::Quiesce() const {
  for (const auto& shard : shards_) {
    if (shard->hedged != nullptr) shard->hedged->Quiesce();
  }
}

ShardActivity ShardedTextSource::activity() const {
  ShardActivity out;
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (size_t r = 0; r < shards_[s]->replicas.size(); ++r) {
      const ReplicaRuntime& rt = *shards_[s]->replicas[r];
      ShardReplicaActivity a;
      a.shard = s;
      a.replica = r;
      a.meter = rt.physical.Snapshot();
      a.ops = rt.counters.ops.load(std::memory_order_relaxed);
      a.errors = rt.counters.errors.load(std::memory_order_relaxed);
      a.failovers = rt.counters.failovers.load(std::memory_order_relaxed);
      if (rt.resilient != nullptr) a.resilience = rt.resilient->stats();
      out.replicas.push_back(std::move(a));
    }
  }
  out.broadcasts = broadcasts_.load(std::memory_order_relaxed);
  out.routed_fetches = routed_fetches_.load(std::memory_order_relaxed);
  out.dropped_shards = dropped_shards_.load(std::memory_order_relaxed);
  out.complete = !incomplete_.load(std::memory_order_relaxed);
  return out;
}

ResilienceStats ShardedTextSource::resilience_stats() const {
  ResilienceStats out;
  for (const auto& shard : shards_) {
    for (const auto& replica : shard->replicas) {
      if (replica->resilient == nullptr) continue;
      const ResilienceStats stats = replica->resilient->stats();
      out.retries += stats.retries;
      out.exhausted += stats.exhausted;
      out.deadline_hits += stats.deadline_hits;
      out.breaker_rejections += stats.breaker_rejections;
      out.breaker_opens += stats.breaker_opens;
    }
  }
  return out;
}

LimiterActivity ShardedTextSource::limiter_activity() const {
  LimiterActivity out;
  for (const auto& shard : shards_) {
    for (const auto& replica : shard->replicas) {
      if (replica->limited == nullptr) continue;
      const LimiterActivity activity = replica->limited->activity();
      out.acquires += activity.acquires;
      out.waits += activity.waits;
    }
  }
  return out;
}

HedgeActivity ShardedTextSource::hedge_activity() const {
  HedgeActivity out;
  for (const auto& shard : shards_) {
    if (shard->hedged == nullptr) continue;
    const HedgeActivity activity = shard->hedged->activity();
    out.hedges += activity.hedges;
    out.hedge_wins += activity.hedge_wins;
    out.suppressed += activity.suppressed;
    out.losers_cancelled += activity.losers_cancelled;
    out.waste += activity.waste;
  }
  return out;
}

// ---------------------------------------------------------------------------
// ShardedBackend

ShardedBackend::ShardedBackend(BackendTopology topology,
                               ShardedBackendOptions options)
    : topology_(std::move(topology)), options_(std::move(options)) {
  const Status valid = topology_.Validate();
  TEXTJOIN_CHECK(valid.ok(), "%s", valid.ToString().c_str());
  const ChainSpec& chain = options_.chain;
  breakers_.resize(topology_.shards.size());
  limiters_.resize(topology_.shards.size());
  hedges_.resize(topology_.shards.size());
  for (size_t s = 0; s < topology_.shards.size(); ++s) {
    const size_t replicas = topology_.shards[s].replicas.size();
    breakers_[s].resize(replicas);
    limiters_[s].resize(replicas);
    for (size_t r = 0; r < replicas; ++r) {
      if (chain.resilience.has_value() && chain.resilience->enable_breaker) {
        breakers_[s][r] = std::make_unique<CircuitBreaker>(
            chain.resilience->breaker, chain.resilience->clock);
      }
      if (chain.limiter.has_value()) {
        limiters_[s][r] = std::make_unique<AdaptiveLimiter>(*chain.limiter);
      }
    }
    if (chain.hedging.has_value()) {
      hedges_[s] = std::make_unique<HedgeController>(*chain.hedging);
    }
  }
  if (topology_.shards.size() > 1) {
    // The calling thread participates, so N-way scatter wants N-1 workers.
    scatter_pool_ = std::make_unique<ThreadPool>(
        static_cast<int>(topology_.shards.size()) - 1);
  }
}

ShardedBackend::~ShardedBackend() = default;

CircuitBreaker* ShardedBackend::breaker(size_t shard, size_t replica) const {
  return breakers_[shard][replica].get();
}

AdaptiveLimiter* ShardedBackend::limiter(size_t shard, size_t replica) const {
  return limiters_[shard][replica].get();
}

HedgeController* ShardedBackend::hedge(size_t shard) const {
  return hedges_[shard].get();
}

uint64_t ShardedBackend::breaker_opens_total() const {
  uint64_t opens = 0;
  for (const auto& shard : breakers_) {
    for (const auto& breaker : shard) {
      if (breaker != nullptr) opens += breaker->times_opened();
    }
  }
  return opens;
}

uint64_t ShardedBackend::breaker_rejections_total() const {
  uint64_t rejections = 0;
  for (const auto& shard : breakers_) {
    for (const auto& breaker : shard) {
      if (breaker != nullptr) rejections += breaker->rejections();
    }
  }
  return rejections;
}

int ShardedBackend::limit_total() const {
  int limit = 0;
  for (const auto& shard : limiters_) {
    for (const auto& limiter : shard) {
      if (limiter != nullptr) limit += limiter->limit();
    }
  }
  return limit;
}

std::unique_ptr<ShardedTextSource> ShardedBackend::MakeQuerySource(
    const std::function<std::unique_ptr<TextSource>(TextSource*)>& decorator,
    uint64_t pinned_epoch) const {
  return std::unique_ptr<ShardedTextSource>(
      new ShardedTextSource(*this, decorator, /*bare=*/false, pinned_epoch));
}

std::unique_ptr<ShardedTextSource> ShardedBackend::MakeBareSource(
    uint64_t pinned_epoch) const {
  return std::unique_ptr<ShardedTextSource>(
      new ShardedTextSource(*this, nullptr, /*bare=*/true, pinned_epoch));
}

}  // namespace textjoin
