// Serving benchmark: drives FederationService::Run end to end over three
// workloads (paper_mix, remote_cached, live_churn — see README.md for why
// each exists) and prints one JSON line of metrics.
//
//   serve_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--spans <path>] [--mode run|transparency]
//
// Every run executes a FIXED-COUNT operation sequence generated up front
// from --seed (ops = nominal rate x --seconds), so two runs with the same
// seed issue exactly the same SQL, writes and merge passes. The service
// only ever sees the generated SQL strings and documents.
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// ledger, measured in a separate traced pass with timing wrappers around
// the calls into each module (sql, core, connector, text), plus the
// untraced pass it is compared against (trace.overhead_frac).
//
// Correctness: every distinct query's expected rows come from a serial,
// chain-free, single-backend service forced to tuple substitution over a
// frozen TextEngine; live_churn checks the reads that follow each merge
// pass against a frozen engine holding the documents the driver knows are
// visible then. Rows are compared as sorted multisets, outside every timed
// window. A wrong answer fails the run (exit 1, "correct": false).

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "connector/corpus_writer.h"
#include "connector/text_cache.h"
#include "probes.h"
#include "sql/federation_service.h"
#include "sql/parser.h"
#include "text/engine.h"
#include "text/live_corpus.h"
#include "workload/paper_queries.h"
#include "workload/scenario.h"
#include "workload/sharded_corpus.h"
#include "workload/university.h"

namespace servebench {
namespace {

using namespace textjoin;

// ---------------------------------------------------------------------------
// Workload constants (documented in README.md)

/// Ops per second of --seconds, over all replicates of a run together;
/// sized so one run takes about --seconds on a 4-core x86 VM. Fixed counts
/// (not a timer) keep every count exact.
constexpr double kPaperMixOpsPerSecond = 900;
constexpr double kRemoteOpsPerSecond = 450;
constexpr double kLiveOpsPerSecond = 1100;

/// An untraced run is this many replicates: each builds a fresh deployment
/// (data generation + service construction + warm-up, timed as setup_s)
/// and runs the whole sequence once. Reported timings and setup_s are
/// medians over the replicates, so a burst of interference on a shared
/// machine moves at most one replicate, and live_churn's history-dependent
/// cost restarts with every replicate.
constexpr int kReplicates = 7;

constexpr int kPaperMixClients = 2;

// remote_cached
constexpr size_t kRemoteTopics = 400;      ///< Literal pool.
/// Topics K with K % kRemoteWideEvery == kRemoteWideOffset (Zipf ranks 17,
/// 37, 57, ...) are wide: 40 matching docs, 24 by known authors, instead of
/// 6 and 3. They take about 3% of the draws and need several fetch rounds,
/// so p99 lands in the middle of their latency band, not on the ~1% of
/// queries a shared host delays by milliseconds when it wakes a sleeping
/// thread late. Few rounds keep that band itself from depending on how
/// often the host does so.
constexpr size_t kRemoteWideEvery = 20;
constexpr size_t kRemoteWideOffset = 17;
constexpr double kRemoteZipfTheta = 1.0;
constexpr int kRemoteDelayUs = 900;        ///< Per Search/Fetch.
constexpr size_t kRemoteCacheBytes = 24 << 10;
constexpr int kRemoteParallelism = 4;

// live_churn
constexpr size_t kLiveReadsPerWrite = 8;
constexpr size_t kLiveWritesPerMerge = 16;
constexpr size_t kLiveDocuments = 3000;

constexpr size_t kSpanCapacity = 200000;

// ---------------------------------------------------------------------------
// Deterministic sequence randomness (splitmix64; independent of the
// standard library's distribution implementations).

class SeqRng {
 public:
  explicit SeqRng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 7) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

class Zipf {
 public:
  Zipf(size_t n, double theta) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_.push_back(total);
    }
  }
  size_t Draw(SeqRng& rng) const {
    const double u = rng.Unit() * cdf_.back();
    return static_cast<size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) -
                               cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// The operation sequence

enum class OpKind { kRead, kInsert, kUpdate, kDelete, kMerge };

struct Op {
  OpKind kind = OpKind::kRead;
  size_t query = 0;      ///< Reads: index into Sequence::queries.
  Document doc;          ///< Insert / update payload.
  std::string docid;     ///< Delete target.
  int64_t expect = -1;   ///< Reads: index into Sequence::expected; -1 none.
};

struct QuerySpec {
  std::string sql;
  size_t service = 0;  ///< Index into Deployment::services.
  bool doc_side = false;  ///< Outputs text-side columns only (see above).
};

struct Sequence {
  std::vector<QuerySpec> queries;  ///< Distinct reads.
  std::vector<size_t> warmup;      ///< Query indices run during warm-up.
  std::vector<Op> ops;             ///< The measured sequence.
  /// Expected rows (sorted RowToString multisets).
  std::vector<std::vector<std::string>> expected;
};

/// Rows as a sorted multiset of their renderings. A query that outputs
/// only text-side columns is a doc-side semi-join, whose answer is the SET
/// of matching documents: SJ returns each docid once while pair-wise
/// methods such as TS repeat it per matching tuple (the semantics the
/// library's own optimizer and property tests compare by). Such answers
/// are compared as sets.
std::vector<std::string> CanonicalRows(const std::vector<Row>& rows,
                                       bool as_set) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(RowToString(row));
  std::sort(out.begin(), out.end());
  if (as_set) out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Deployments

enum class Workload { kPaperMix, kRemoteCached, kLiveChurn };

struct WorkloadInfo {
  const char* name;
  Workload kind;
  int clients;
  double ops_per_second;
};

const WorkloadInfo kWorkloads[] = {
    {"paper_mix", Workload::kPaperMix, kPaperMixClients, kPaperMixOpsPerSecond},
    {"remote_cached", Workload::kRemoteCached, 1, kRemoteOpsPerSecond},
    {"live_churn", Workload::kLiveChurn, 1, kLiveOpsPerSecond},
};

/// Everything one measured pass runs against. Members are destroyed in
/// reverse order: the services first, then what they point into.
struct Deployment {
  bool traced = false;
  bool serial = false;  ///< Force parallelism 1 (transparency check only).
  TextLedger text_ledger;
  SourceLedger source_ledger;
  RemoteDelay delay;

  std::vector<std::unique_ptr<Catalog>> catalogs;
  std::vector<std::unique_ptr<TextEngine>> engines;
  std::vector<TextRelationDecl> decls;  ///< Per service.
  std::unique_ptr<ShardedCorpus> sharded;
  std::unique_ptr<LiveCorpus> live;
  EpochClock clock;
  std::shared_ptr<TextCache> live_cache;
  std::unique_ptr<CorpusWriter> writer;
  std::unique_ptr<SegmentMergeWorker> merger;
  std::vector<std::unique_ptr<TracedCorpus>> wrappers;
  std::vector<std::unique_ptr<FederationService>> services;

  /// Wraps `corpus` in a timing wrapper when traced.
  const SearchableCorpus* Probe(const SearchableCorpus* corpus) {
    if (!traced) return corpus;
    wrappers.push_back(std::make_unique<TracedCorpus>(corpus, &text_ledger));
    return wrappers.back().get();
  }
};

#define BENCH_CHECK_OK(expr)                                              \
  do {                                                                    \
    auto _status = (expr);                                                \
    if (!_status.ok()) {                                                  \
      std::fprintf(stderr, "serve_bench: %s failed: %s\n", #expr,         \
                   _status.ToString().c_str());                           \
      std::exit(2);                                                       \
    }                                                                     \
  } while (0)

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "serve_bench: %s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(*result);
}

// --- paper_mix -------------------------------------------------------------

/// The paper's Q1–Q5 as SQL. `%s` is the varied selection literal; Q4 and
/// Q5 have none to vary (Q4's area filter has one value by construction,
/// Q5's relational conjunct is a column comparison).
struct PaperShape {
  const char* sql;
  std::vector<std::string> literals;
  bool doc_side = false;
};

std::vector<PaperShape> PaperShapes() {
  return {
      {"select * from student, mercury where student.area = '%s' and "
       "'beliefupdate' in mercury.title and student.name in mercury.author",
       {"area_v0", "area_v1", "area_v2"}},
      {"select mercury.docid from student, mercury where student.advisor = "
       "'%s' and 'textretrieval' in mercury.title and student.name in "
       "mercury.author",
       {"advisor_v0", "advisor_v1", "advisor_v2", "advisor_v3", "advisor_v4",
        "advisor_v5"},
       /*doc_side=*/true},
      {"select project.member, project.name, mercury.docid from project, "
       "mercury where project.sponsor = '%s' and project.name in "
       "mercury.title and project.member in mercury.author",
       {"sponsor_v0", "sponsor_v1", "sponsor_v2"}},
      {"select student.name, mercury.docid from student, mercury where "
       "student.area = '%s' and student.advisor in mercury.author and "
       "student.name in mercury.author",
       {"area_v0"}},
      {"select student.name, faculty.name, mercury.docid from student, "
       "faculty, mercury where faculty.dept != student.dept and 'year1993' "
       "in mercury.year and student.name in mercury.author and faculty.name "
       "in mercury.author",
       {""}},
  };
}

std::string Format(const char* pattern, const std::string& literal) {
  std::string out = pattern;
  const size_t at = out.find("%s");
  if (at != std::string::npos) out.replace(at, 2, literal);
  return out;
}

void BuildPaperMix(Deployment& d) {
  std::vector<PaperScenario> scenarios;
  scenarios.push_back(Unwrap(BuildQ1(Q1Config{}), "BuildQ1"));
  scenarios.push_back(Unwrap(BuildQ2(Q2Config{}), "BuildQ2"));
  scenarios.push_back(Unwrap(BuildQ3(Q3Config{}), "BuildQ3"));
  scenarios.push_back(Unwrap(BuildQ4(Q4Config{}), "BuildQ4"));
  scenarios.push_back(Unwrap(BuildQ5(Q5Config{}), "BuildQ5"));
  for (PaperScenario& ps : scenarios) {
    d.catalogs.push_back(std::move(ps.scenario.catalog));
    d.engines.push_back(std::move(ps.scenario.engine));
    d.decls.push_back(ps.scenario.text);
    FederationService::Options options;
    options.text = ps.scenario.text;
    options.parallelism = 1;
    d.services.push_back(std::make_unique<FederationService>(
        d.catalogs.back().get(), d.Probe(d.engines.back().get()), options));
  }
}

Sequence PaperMixSequence(uint64_t seed, size_t count) {
  Sequence seq;
  std::vector<std::vector<size_t>> by_shape;
  const std::vector<PaperShape> shapes = PaperShapes();
  for (size_t s = 0; s < shapes.size(); ++s) {
    by_shape.emplace_back();
    for (const std::string& literal : shapes[s].literals) {
      by_shape[s].push_back(seq.queries.size());
      seq.warmup.push_back(seq.queries.size());
      seq.queries.push_back(
          {Format(shapes[s].sql, literal), s, shapes[s].doc_side});
    }
  }
  // Equal shares of every shape (so the latency percentiles always fall
  // in the same shape's band), shuffled; literals drawn uniformly.
  SeqRng rng(seed);
  std::vector<size_t> shape_of(count);
  for (size_t i = 0; i < count; ++i) shape_of[i] = i % shapes.size();
  for (size_t i = count; i > 1; --i) {
    std::swap(shape_of[i - 1], shape_of[rng.Below(i)]);
  }
  for (size_t i = 0; i < count; ++i) {
    const std::vector<size_t>& choices = by_shape[shape_of[i]];
    Op op;
    op.query = choices[rng.Below(choices.size())];
    op.expect = static_cast<int64_t>(op.query);
    seq.ops.push_back(std::move(op));
  }
  return seq;
}

// --- remote_cached ---------------------------------------------------------

std::string RemoteSql(size_t topic) {
  return "select student.name, mercury.docid, mercury.title from student, "
         "mercury where student.year = 'year_v0' and 'topic" +
         std::to_string(topic) +
         "' in mercury.title and student.name in mercury.author";
}

void BuildRemoteCached(Deployment& d) {
  ScenarioConfig config;
  config.relations = {{"student", 400, {{"year", 4}}}};
  config.predicates = {{"student", "name", "author", 300, 0.3, 0.5}};
  for (size_t t = 0; t < kRemoteTopics; ++t) {
    const bool wide = t % kRemoteWideEvery == kRemoteWideOffset;
    config.selections.push_back({"topic" + std::to_string(t), "title",
                                 wide ? 40u : 6u, /*joint_with_predicate=*/0,
                                 /*joint_docs=*/wide ? 24u : 3u});
  }
  config.num_documents = 20000;
  config.text_alias = "mercury";
  config.seed = 2024;
  Scenario scenario = Unwrap(BuildScenario(config), "BuildScenario");
  ShardedCorpusConfig shard_config;
  shard_config.num_shards = 2;
  shard_config.num_replicas = 1;
  d.sharded = std::make_unique<ShardedCorpus>(
      Unwrap(SplitCorpus(*scenario.engine, shard_config), "SplitCorpus"));
  d.catalogs.push_back(std::move(scenario.catalog));
  d.engines.push_back(std::move(scenario.engine));  // Oracle corpus.
  d.decls.push_back(scenario.text);

  BackendTopology topology = d.sharded->topology;
  SourceLedger* ledger = d.traced ? &d.source_ledger : nullptr;
  const RemoteDelay* delay = &d.delay;
  for (BackendTopology::Shard& shard : topology.shards) {
    for (BackendTopology::Replica& replica : shard.replicas) {
      replica.corpus = d.Probe(replica.corpus);
      replica.decorator = [delay, ledger](TextSource* inner) {
        return std::make_unique<RemoteReplica>(inner, delay, ledger);
      };
    }
  }
  FederationService::Options options;
  options.text = scenario.text;
  options.topology = std::move(topology);
  options.parallelism = d.serial ? 1 : kRemoteParallelism;
  options.oracle_stats = false;
  CacheOptions cache;
  cache.byte_budget = kRemoteCacheBytes;
  options.chain.cache = cache;
  options.chain.resilience = ResilienceOptions{};
  // The limiter's floor is the query parallelism: its window reacts to
  // wall-clock round trips, and letting it throttle below what one query
  // issues would make latency depend on timer noise.
  AdaptiveLimiterOptions limiter;
  limiter.min_limit = kRemoteParallelism;
  options.chain.limiter = limiter;
  d.services.push_back(std::make_unique<FederationService>(
      d.catalogs.back().get(), nullptr, std::move(options)));
}

Sequence RemoteSequence(uint64_t seed, size_t count) {
  Sequence seq;
  for (size_t t = 0; t < kRemoteTopics; ++t) {
    seq.queries.push_back({RemoteSql(t), 0});
  }
  SeqRng rng(seed);
  const Zipf zipf(kRemoteTopics, kRemoteZipfTheta);
  // Topic r has Zipf rank r for every seed: the hot set is the same, only
  // the draws differ, so seeds do not change how much work a run does.
  std::vector<bool> seen(kRemoteTopics, false);
  for (size_t i = 0; i < count; ++i) {
    Op op;
    op.query = zipf.Draw(rng);
    op.expect = static_cast<int64_t>(op.query);
    if (!seen[op.query]) {
      seen[op.query] = true;
      seq.warmup.push_back(op.query);
    }
    seq.ops.push_back(std::move(op));
  }
  return seq;
}

// --- live_churn ------------------------------------------------------------

const char* const kLiveTopics[] = {
    "query optimization", "text retrieval",  "belief update",
    "concurrency control", "caching", "replication",
    "information filtering", "semantic indexing"};

std::string LiveSql(const std::string& topic, int year) {
  return "select student.name, student.advisor, mercury.docid, "
         "mercury.title from student, mercury where student.year > " +
         std::to_string(year) + " and '" + topic +
         "' in mercury.title and student.name in mercury.author";
}

void BuildLiveChurn(Deployment& d) {
  UniversityConfig config;
  config.num_documents = kLiveDocuments;
  UniversityWorkload workload = Unwrap(BuildUniversity(config), "university");
  d.catalogs.push_back(std::move(workload.catalog));
  d.decls.push_back(workload.text);
  d.live = std::make_unique<LiveCorpus>();
  d.live_cache = std::make_shared<TextCache>();
  d.writer = std::make_unique<CorpusWriter>(
      std::vector<std::vector<LiveCorpus*>>{{d.live.get()}}, &d.clock,
      d.live_cache);
  for (const Document& doc : workload.engine->documents()) {
    BENCH_CHECK_OK(d.writer->Seed(doc));
  }
  d.engines.push_back(std::move(workload.engine));  // Epoch-0 oracle corpus.
  d.live->MergePass();  // Fold the seed chunk: start from a merged corpus.
  // Merges run synchronously from the op sequence; the worker is never
  // started, so no timer decides what a query searches.
  d.merger = std::make_unique<SegmentMergeWorker>(d.writer->AllCorpora());

  BackendTopology topology;
  topology.shards.push_back({{{d.Probe(d.live.get()), nullptr}}});
  topology.partitioner = d.writer->PartitionFn();
  topology.global_ordinal = d.writer->OrdinalFn();
  FederationService::Options options;
  options.text = workload.text;
  options.topology = std::move(topology);
  options.live.emplace();
  options.live->clock = &d.clock;
  options.shared_cache = d.live_cache;
  options.parallelism = 1;
  d.services.push_back(std::make_unique<FederationService>(
      d.catalogs.back().get(), nullptr, std::move(options)));
}

Sequence LiveSequenceShape(uint64_t seed, size_t count) {
  Sequence seq;
  for (const char* topic : kLiveTopics) {
    for (int year = 1; year <= 4; ++year) {
      seq.warmup.push_back(seq.queries.size());
      seq.queries.push_back({LiveSql(topic, year), 0});
    }
  }
  // Fixed positions: every (kLiveReadsPerWrite + 1)-th op is a write, and
  // a merge pass follows every kLiveWritesPerMerge-th write. Write kinds
  // and payloads are filled in by FillLiveWrites once the corpus exists.
  SeqRng rng(seed);
  size_t writes = 0;
  for (size_t i = 0; i < count; ++i) {
    Op op;
    if (i % (kLiveReadsPerWrite + 1) == kLiveReadsPerWrite) {
      op.kind = OpKind::kInsert;  // Placeholder kind; see FillLiveWrites.
      seq.ops.push_back(std::move(op));
      if (++writes % kLiveWritesPerMerge == 0) {
        Op merge;
        merge.kind = OpKind::kMerge;
        seq.ops.push_back(std::move(merge));
      }
      continue;
    }
    op.query = rng.Below(seq.queries.size());
    seq.ops.push_back(std::move(op));
  }
  return seq;
}

// ---------------------------------------------------------------------------
// The oracle: serial, chain-free, single backend, tuple substitution.

class Oracle {
 public:
  Oracle(const Catalog* catalog, const SearchableCorpus* corpus,
         const TextRelationDecl& decl) {
    FederationService::Options options;
    options.text = decl;
    options.parallelism = 1;
    options.enumerator.forced_method = JoinMethodKind::kTS;
    service_ = std::make_unique<FederationService>(catalog, corpus, options);
  }
  std::vector<std::string> Rows(const QuerySpec& spec) {
    const std::string& sql = spec.sql;
    Result<QueryOutcome> outcome = service_->Run(sql);
    if (!outcome.ok()) {
      std::fprintf(stderr, "serve_bench: oracle failed on %s: %s\n",
                   sql.c_str(), outcome.status().ToString().c_str());
      std::exit(2);
    }
    return CanonicalRows(outcome->rows.rows, spec.doc_side);
  }

 private:
  std::unique_ptr<FederationService> service_;
};

/// Expected rows of every read of a frozen-corpus workload.
void ComputeFrozenExpectations(const Deployment& d, Sequence& seq) {
  std::vector<bool> used(seq.queries.size(), false);
  for (const Op& op : seq.ops) used[op.query] = true;
  seq.expected.assign(seq.queries.size(), {});
  std::vector<std::unique_ptr<Oracle>> oracles;
  for (size_t s = 0; s < d.engines.size(); ++s) {
    oracles.push_back(std::make_unique<Oracle>(
        d.catalogs[s].get(), d.engines[s].get(), d.decls[s]));
  }
  for (size_t q = 0; q < seq.queries.size(); ++q) {
    if (used[q]) {
      seq.expected[q] = oracles[seq.queries[q].service]->Rows(seq.queries[q]);
    }
  }
}

/// Fills live_churn's writes from the seeded corpus, and the expected rows
/// of the reads at epoch 0 and after each merge pass (up to the next
/// write). The driver's model of the visible documents is exact because
/// every write is valid by construction (inserts use fresh docids,
/// updates and deletes pick a live one).
void FillLiveWrites(const Deployment& d, uint64_t seed, Sequence& seq) {
  SeqRng rng(seed ^ 0x5EEDF00Dull);
  std::unordered_map<std::string, Document> visible;
  std::vector<std::string> live_ids;
  std::unordered_map<std::string, size_t> slot_of;
  std::vector<std::string> authors;
  {
    std::map<std::string, bool> author_set;
    for (const Document& doc : d.engines[0]->documents()) {
      visible.emplace(doc.docid, doc);
      slot_of[doc.docid] = live_ids.size();
      live_ids.push_back(doc.docid);
      for (const std::string& a : doc.FieldValues("author")) {
        author_set[a] = true;
      }
    }
    for (const auto& [a, unused] : author_set) authors.push_back(a);
  }
  auto remove_live = [&](const std::string& docid) {
    const size_t slot = slot_of[docid];
    slot_of[live_ids.back()] = slot;
    std::swap(live_ids[slot], live_ids.back());
    live_ids.pop_back();
    slot_of.erase(docid);
    visible.erase(docid);
  };
  auto make_doc = [&](const std::string& docid) {
    Document doc;
    doc.docid = docid;
    doc.fields["title"] = {std::string(kLiveTopics[rng.Below(8)]) +
                           (rng.Below(2) == 0 ? " revisited" : " techniques")};
    std::vector<std::string> by = {authors[rng.Below(authors.size())]};
    if (rng.Below(2) == 0) by.push_back(authors[rng.Below(authors.size())]);
    doc.fields["author"] = std::move(by);
    doc.fields["year"] = {std::to_string(1990 + rng.Below(6))};
    return doc;
  };

  std::unique_ptr<Oracle> oracle = std::make_unique<Oracle>(
      d.catalogs[0].get(), d.engines[0].get(), d.decls[0]);
  std::unique_ptr<TextEngine> frozen;  // Kept alive for `oracle`.
  std::map<size_t, int64_t> memo;  // query -> expected index, this state.
  bool checking = true;            // Epoch 0 reads are checked.
  size_t next_docid = 0;
  for (Op& op : seq.ops) {
    switch (op.kind) {
      case OpKind::kRead:
        if (checking) {
          auto it = memo.find(op.query);
          if (it == memo.end()) {
            seq.expected.push_back(oracle->Rows(seq.queries[op.query]));
            it = memo.emplace(op.query, seq.expected.size() - 1).first;
          }
          op.expect = it->second;
        }
        break;
      case OpKind::kMerge: {
        std::vector<const Document*> docs;
        for (const auto& [id, doc] : visible) docs.push_back(&doc);
        std::sort(docs.begin(), docs.end(),
                  [](const Document* a, const Document* b) {
                    return a->docid < b->docid;
                  });
        oracle.reset();
        frozen = std::make_unique<TextEngine>();
        for (const Document* doc : docs) {
          (void)Unwrap(frozen->AddDocument(*doc), "AddDocument");
        }
        oracle = std::make_unique<Oracle>(d.catalogs[0].get(), frozen.get(),
                                          d.decls[0]);
        memo.clear();
        checking = true;
        break;
      }
      default: {
        checking = false;
        const size_t pick = rng.Below(10);
        if (pick < 4 || live_ids.size() < 100) {
          op.kind = OpKind::kInsert;
          op.doc = make_doc("W-" + std::to_string(next_docid++));
          slot_of[op.doc.docid] = live_ids.size();
          live_ids.push_back(op.doc.docid);
          visible[op.doc.docid] = op.doc;
        } else if (pick < 7) {
          op.kind = OpKind::kUpdate;
          op.doc = make_doc(live_ids[rng.Below(live_ids.size())]);
          visible[op.doc.docid] = op.doc;
        } else {
          op.kind = OpKind::kDelete;
          op.docid = live_ids[rng.Below(live_ids.size())];
          remove_live(op.docid);
        }
        break;
      }
    }
  }
}

/// Fills `seq.expected` (and live_churn's writes) from a built deployment.
void ComputeExpectations(const Deployment& d, Workload kind, uint64_t seed,
                         Sequence& seq) {
  if (kind == Workload::kLiveChurn) {
    FillLiveWrites(d, seed, seq);
  } else {
    ComputeFrozenExpectations(d, seq);
  }
}

// ---------------------------------------------------------------------------
// Setup

Workload KindOf(const std::string& name, const WorkloadInfo** info) {
  for (const WorkloadInfo& w : kWorkloads) {
    if (name == w.name) {
      *info = &w;
      return w.kind;
    }
  }
  std::fprintf(stderr, "serve_bench: unknown workload '%s'\n", name.c_str());
  std::exit(2);
}

Sequence MakeSequence(Workload kind, uint64_t seed, size_t count) {
  switch (kind) {
    case Workload::kPaperMix:
      return PaperMixSequence(seed, count);
    case Workload::kRemoteCached:
      return RemoteSequence(seed, count);
    case Workload::kLiveChurn:
      return LiveSequenceShape(seed, count);
  }
  return {};
}

/// Data generation, service construction and warm-up (every warm-up query
/// once; remote_cached runs it with the remote delay off).
std::unique_ptr<Deployment> Setup(Workload kind, bool traced,
                                  const Sequence& seq, bool serial = false) {
  auto d = std::make_unique<Deployment>();
  d->traced = traced;
  d->serial = serial;
  switch (kind) {
    case Workload::kPaperMix:
      BuildPaperMix(*d);
      break;
    case Workload::kRemoteCached:
      BuildRemoteCached(*d);
      break;
    case Workload::kLiveChurn:
      BuildLiveChurn(*d);
      break;
  }
  d->delay.delay_us.store(0);
  for (size_t q : seq.warmup) {
    const QuerySpec& spec = seq.queries[q];
    BENCH_CHECK_OK(d->services[spec.service]->Run(spec.sql).status());
  }
  d->delay.delay_us.store(kind == Workload::kRemoteCached ? kRemoteDelayUs : 0);
  return d;
}

// ---------------------------------------------------------------------------
// Execution

/// What one read did. Traced fields stay zero in untraced passes.
struct ReadRecord {
  bool ok = false;
  double latency = 0.0;    ///< Run(), seconds.
  double modeled = 0.0;    ///< meter_delta under CostParams{}.
  std::vector<Row> rows;   ///< Kept only for checked reads.
  // Traced pass only.
  double parse = 0.0, explain = 0.0;
  uint64_t parse_allocs = 0, explain_allocs = 0, run_allocs = 0;
  uint64_t explain_searches = 0;
  double stage[7] = {0, 0, 0, 0, 0, 0, 0};
  uint64_t delta_docs = 0;
};

struct WriteRecord {
  OpKind kind = OpKind::kInsert;
  bool ok = false;
  double latency = 0.0;
};

struct MergeRecord {
  double seconds = 0.0;
  size_t folded = 0;
};

struct PassResult {
  double seconds = 0.0;      ///< Wall time of the measured window.
  double cpu_seconds = 0.0;  ///< Process CPU time of the window.
  uint64_t allocs = 0;
  std::vector<ReadRecord> reads;  ///< Indexed like ops (reads only filled).
  std::vector<WriteRecord> writes;
  std::vector<MergeRecord> merges;
  CacheStats cache_before, cache_after;
  bool has_cache = false;
};

void ExecuteRead(Deployment& d, const Sequence& seq, const Op& op,
                 size_t index, bool single_client, ReadRecord& rec) {
  const QuerySpec& spec = seq.queries[op.query];
  FederationService& service = *d.services[spec.service];
  if (!d.traced) {
    const double start = NowSeconds();
    Result<QueryOutcome> outcome = service.Run(spec.sql);
    rec.latency = NowSeconds() - start;
    rec.ok = outcome.ok() && outcome->degradation.complete;
    if (outcome.ok()) {
      rec.modeled = outcome->meter_delta.SimulatedSeconds(CostParams{});
      if (op.expect >= 0) rec.rows = std::move(outcome->rows.rows);
    }
    return;
  }
  Tracer::SetQuery(static_cast<int64_t>(index), single_client);
  SpanScope op_span("op.read");
  // Planning (and parsing) run on the calling thread, so thread-local
  // allocation and search counts attribute them exactly even with two
  // clients. The separate parse runs after Explain so both see equally
  // warm caches.
  {
    SpanScope span("sql.plan");
    const uint64_t searches0 = ThreadSearchCount();
    const uint64_t a0 = ThreadAllocCount();
    const double t0 = NowSeconds();
    Result<std::string> explained = service.Explain(spec.sql);
    rec.explain = NowSeconds() - t0;
    rec.explain_allocs = ThreadAllocCount() - a0;
    rec.explain_searches = ThreadSearchCount() - searches0;
    BENCH_CHECK_OK(explained.status());
  }
  {
    SpanScope span("sql.parse");
    const uint64_t a0 = ThreadAllocCount();
    const double t0 = NowSeconds();
    Result<FederatedQuery> parsed = ParseQuery(spec.sql, d.decls[spec.service]);
    rec.parse = NowSeconds() - t0;
    rec.parse_allocs = ThreadAllocCount() - a0;
    BENCH_CHECK_OK(parsed.status());
  }
  SpanScope span("core.run");
  const uint64_t a0 = single_client ? AllocCount() : ThreadAllocCount();
  const double start = NowSeconds();
  Result<QueryOutcome> outcome = service.Run(spec.sql);
  rec.latency = NowSeconds() - start;
  rec.run_allocs = (single_client ? AllocCount() : ThreadAllocCount()) - a0;
  rec.ok = outcome.ok() && outcome->degradation.complete;
  if (!outcome.ok()) return;
  rec.modeled = outcome->meter_delta.SimulatedSeconds(CostParams{});
  for (const auto& [node, profile] : outcome->profile.nodes) {
    for (const pipeline::StageStats& stage : profile.stages.stages) {
      rec.stage[static_cast<int>(stage.desc.kind)] += stage.wall_seconds;
    }
  }
  rec.delta_docs = outcome->profile.corpus.delta_docs;
  if (op.expect >= 0) rec.rows = std::move(outcome->rows.rows);
}

void ExecuteWrite(Deployment& d, const Op& op, WriteRecord& rec) {
  SpanScope span(op.kind == OpKind::kInsert   ? "connector.writer.insert"
                 : op.kind == OpKind::kUpdate ? "connector.writer.update"
                                              : "connector.writer.delete");
  rec.kind = op.kind;
  const double start = NowSeconds();
  Result<uint64_t> epoch =
      op.kind == OpKind::kInsert   ? d.writer->Insert(op.doc)
      : op.kind == OpKind::kUpdate ? d.writer->Update(op.doc)
                                   : d.writer->Delete(op.docid);
  rec.latency = NowSeconds() - start;
  rec.ok = epoch.ok();
}

/// One op of a single-client sequence.
void ExecuteOp(Deployment& d, const Sequence& seq, size_t i,
               PassResult& pass) {
  const Op& op = seq.ops[i];
  if (op.kind == OpKind::kRead) {
    ExecuteRead(d, seq, op, i, true, pass.reads[i]);
    return;
  }
  if (d.traced) Tracer::SetQuery(static_cast<int64_t>(i), true);
  if (op.kind == OpKind::kMerge) {
    SpanScope span("text.live.merge");
    const double t0 = NowSeconds();
    const size_t folded = d.merger->RunOnePass();
    pass.merges.push_back({NowSeconds() - t0, folded});
  } else {
    pass.writes.emplace_back();
    ExecuteWrite(d, op, pass.writes.back());
  }
}

PassResult RunPass(Deployment& d, const Sequence& seq, int clients) {
  PassResult pass;
  pass.reads.resize(seq.ops.size());
  TextCache* cache = d.services[0]->cache();
  pass.has_cache = cache != nullptr;
  if (cache != nullptr) pass.cache_before = cache->Stats();
  const uint64_t allocs0 = AllocCount();
  const double cpu0 = ProcessCpuSeconds();
  const double start = NowSeconds();
  if (clients == 1) {
    for (size_t i = 0; i < seq.ops.size(); ++i) ExecuteOp(d, seq, i, pass);
  } else {
    // Closed loop: each client takes the next op when its previous one
    // completed. Only reads occur in multi-client workloads.
    std::atomic<size_t> cursor{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < clients; ++t) {
      threads.emplace_back([&] {
        for (size_t i = cursor.fetch_add(1); i < seq.ops.size();
             i = cursor.fetch_add(1)) {
          ExecuteRead(d, seq, seq.ops[i], i, false, pass.reads[i]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  pass.seconds = NowSeconds() - start;
  pass.cpu_seconds = ProcessCpuSeconds() - cpu0;
  pass.allocs = AllocCount() - allocs0;
  if (cache != nullptr) pass.cache_after = cache->Stats();
  return pass;
}

/// Compares every checked read with its expectation and marks wrong
/// answers as not ok (they then count as failed).
void CheckPass(const Sequence& seq, PassResult& pass) {
  size_t wrong = 0;
  for (size_t i = 0; i < seq.ops.size(); ++i) {
    ReadRecord& rec = pass.reads[i];
    const Op& op = seq.ops[i];
    if (op.kind != OpKind::kRead || !rec.ok || op.expect < 0) continue;
    const QuerySpec& spec = seq.queries[op.query];
    if (CanonicalRows(rec.rows, spec.doc_side) != seq.expected[op.expect]) {
      if (wrong == 0) {
        std::fprintf(stderr, "serve_bench: wrong answer at op %zu: %s\n", i,
                     spec.sql.c_str());
      }
      rec.ok = false;
      ++wrong;
    }
    std::vector<Row>().swap(rec.rows);
  }
  if (wrong > 0) {
    std::fprintf(stderr, "serve_bench: %zu wrong answers\n", wrong);
  }
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile at `q`, lowered so that at least ten samples
/// lie beyond it. Reports the quantile actually used in `*used`.
double TailPercentile(std::vector<double> v, double q, double* used) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double q_eff = std::max(0.0, std::min(q, 1.0 - 10.0 / n));
  *used = q_eff;
  size_t rank = static_cast<size_t>(std::ceil(q_eff * n));
  rank = std::max<size_t>(rank, 1);
  return v[std::min(rank, v.size()) - 1];
}

struct Totals {
  size_t reads = 0, reads_ok = 0, writes = 0, writes_ok = 0;
  std::vector<double> write_latency;
  double modeled = 0.0;
};

Totals Summarize(const Sequence& seq, const PassResult& pass) {
  Totals t;
  for (size_t i = 0; i < seq.ops.size(); ++i) {
    if (seq.ops[i].kind != OpKind::kRead) continue;
    const ReadRecord& rec = pass.reads[i];
    ++t.reads;
    if (!rec.ok) continue;
    ++t.reads_ok;
    t.modeled += rec.modeled;
  }
  for (const WriteRecord& w : pass.writes) {
    ++t.writes;
    if (w.ok) ++t.writes_ok;
    t.write_latency.push_back(w.latency);
  }
  return t;
}

/// Timing figures of one measured pass.
struct Timing {
  double p50 = 0.0, p99 = 0.0, qps = 0.0, cpu_per_query = 0.0;
  double tail_quantile = 0.0;  ///< The quantile `p99` actually reports.
};

Timing PassTiming(const Sequence& seq, const PassResult& pass) {
  std::vector<double> latency;
  size_t reads = 0;
  for (size_t i = 0; i < seq.ops.size(); ++i) {
    if (seq.ops[i].kind != OpKind::kRead) continue;
    ++reads;
    if (pass.reads[i].ok) latency.push_back(pass.reads[i].latency);
  }
  Timing timing;
  timing.p50 = Median(latency);
  timing.p99 = TailPercentile(latency, 0.99, &timing.tail_quantile);
  timing.qps = static_cast<double>(latency.size()) / pass.seconds;
  timing.cpu_per_query = pass.cpu_seconds / std::max<double>(1.0, reads);
  std::fprintf(stderr,
               "pass: reads=%zu p50=%.4f ms p%.2f=%.4f ms qps=%.1f "
               "cpu=%.4f ms/query\n",
               reads, timing.p50 * 1e3, timing.tail_quantile * 100,
               timing.p99 * 1e3, timing.qps, timing.cpu_per_query * 1e3);
  return timing;
}

/// End-to-end metrics over kReplicates replicates: timings and setup are
/// medians over the replicates, counts are totals over all of them.
std::vector<Metric> EndToEnd(const Totals& t, const std::vector<Timing>& runs,
                             uint64_t allocs,
                             const std::vector<double>& setup_seconds) {
  std::vector<double> p50, p99, qps, cpu;
  for (const Timing& r : runs) {
    p50.push_back(r.p50);
    p99.push_back(r.p99);
    qps.push_back(r.qps);
    cpu.push_back(r.cpu_per_query);
  }
  const double queries = std::max<double>(1.0, t.reads);
  return {
      {"setup_s", Median(setup_seconds), "s"},
      {"query_p50_ms", Median(p50) * 1e3, "ms"},
      {"query_p99_ms", Median(p99) * 1e3, "ms"},
      {"query_qps", Median(qps), "1/s"},
      {"cpu_ms_per_query", Median(cpu) * 1e3, "ms"},
      {"allocs_per_query", static_cast<double>(allocs) / queries, "count"},
      {"modeled_text_s_per_query",
       t.modeled / std::max<double>(1.0, t.reads_ok), "s"},
      {"ok_frac", static_cast<double>(t.reads_ok) / queries, "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

const char* const kStageMetric[7] = {
    "core.pipeline.distinct_keys_us", "core.pipeline.probe_filter_us",
    "core.pipeline.query_build_us",   "core.pipeline.search_dispatch_us",
    "core.pipeline.fetch_us",         "core.pipeline.match_us",
    "core.pipeline.assemble_us"};

std::vector<Metric> PerLayer(const Deployment& d, const Sequence& seq,
                             const PassResult& pass, const Totals& t,
                             double untraced_qps) {
  const double queries = std::max<double>(1.0, t.reads);
  double parse = 0, parse_allocs = 0, plan = 0, plan_allocs = 0;
  double stats_searches = 0, exec = 0, exec_allocs = 0, run = 0;
  double stage[7] = {0, 0, 0, 0, 0, 0, 0};
  double delta_docs = 0;
  for (size_t i = 0; i < seq.ops.size(); ++i) {
    if (seq.ops[i].kind != OpKind::kRead) continue;
    const ReadRecord& r = pass.reads[i];
    parse += r.parse;
    parse_allocs += static_cast<double>(r.parse_allocs);
    plan += r.explain - r.parse;
    plan_allocs += static_cast<double>(r.explain_allocs) -
                   static_cast<double>(r.parse_allocs);
    stats_searches += static_cast<double>(r.explain_searches);
    exec += r.latency - r.explain;
    exec_allocs += static_cast<double>(r.run_allocs) -
                   static_cast<double>(r.explain_allocs);
    run += r.latency;
    for (int s = 0; s < 7; ++s) stage[s] += r.stage[s];
    delta_docs += static_cast<double>(r.delta_docs);
  }
  double stage_total = 0;
  for (double s : stage) stage_total += s;

  const LayerCounter& search = d.text_ledger.search;
  const double text_calls = static_cast<double>(search.calls.load());
  // Searches made by the separate Explain() call are not part of Run().
  const double run_text_calls = text_calls - stats_searches;

  double hit_ratio = 0, evictions = 0, surgical = 0;
  if (pass.has_cache) {
    const CacheStats& a = pass.cache_before;
    const CacheStats& b = pass.cache_after;
    const double hits = static_cast<double>(
        (b.search_hits + b.fetch_hits + b.probe_hits) -
        (a.search_hits + a.fetch_hits + a.probe_hits));
    const double misses = static_cast<double>(
        (b.search_misses + b.fetch_misses + b.probe_misses) -
        (a.search_misses + a.fetch_misses + a.probe_misses));
    hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    evictions = static_cast<double>(b.evictions - a.evictions) / queries;
    surgical = t.writes == 0 ? 0.0
                             : static_cast<double>(b.surgical_invalidations -
                                                   a.surgical_invalidations) /
                                   static_cast<double>(t.writes);
  }
  double writer_us[3] = {0, 0, 0};
  double writer_n[3] = {0, 0, 0};
  for (const WriteRecord& w : pass.writes) {
    const int k = w.kind == OpKind::kInsert   ? 0
                  : w.kind == OpKind::kUpdate ? 1
                                              : 2;
    writer_us[k] += w.latency * 1e6;
    writer_n[k] += 1;
  }
  double merge_ms = 0, folded = 0;
  for (const MergeRecord& m : pass.merges) {
    merge_ms += m.seconds * 1e3;
    folded += static_cast<double>(m.folded);
  }
  const double merges = std::max<double>(1.0, pass.merges.size());
  double q99 = 0.0;
  const double write_p99 = TailPercentile(t.write_latency, 0.99, &q99);
  const double traced_qps = PassTiming(seq, pass).qps;

  std::vector<Metric> m = {
      {"sql.parse_us", parse * 1e6 / queries, "us"},
      {"sql.parse_allocs", parse_allocs / queries, "count"},
      {"sql.plan_us", plan * 1e6 / queries, "us"},
      {"sql.plan_allocs", plan_allocs / queries, "count"},
      {"core.stats_text_searches_per_query", stats_searches / queries,
       "count"},
      {"core.exec_us", exec * 1e6 / queries, "us"},
      {"core.exec_allocs", exec_allocs / queries, "count"},
  };
  for (int s = 0; s < 7; ++s) {
    m.push_back({kStageMetric[s], stage[s] * 1e6 / queries, "us"});
  }
  m.push_back({"core.unattributed_frac",
               run > 0 ? (exec - stage_total) / run : 0.0, "ratio"});
  const SourceLedger& src = d.source_ledger;
  m.push_back({"connector.source.search_calls_per_query",
               static_cast<double>(src.search.calls.load()) / queries,
               "count"});
  m.push_back({"connector.source.fetch_calls_per_query",
               static_cast<double>(src.fetch.calls.load()) / queries, "count"});
  m.push_back({"connector.source.search_us", src.search.MeanMicros(), "us"});
  m.push_back({"connector.source.fetch_us", src.fetch.MeanMicros(), "us"});
  m.push_back({"connector.remote_wait_us_per_query",
               static_cast<double>(src.wait_nanos.load()) / 1e3 / queries,
               "us"});
  m.push_back({"connector.text_cache.hit_ratio", hit_ratio, "ratio"});
  m.push_back({"connector.text_cache.evictions_per_query", evictions,
               "count"});
  m.push_back({"connector.text_cache.surgical_invalidations_per_write",
               surgical, "count"});
  m.push_back({"connector.writer.insert_us",
               writer_n[0] > 0 ? writer_us[0] / writer_n[0] : 0.0, "us"});
  m.push_back({"connector.writer.update_us",
               writer_n[1] > 0 ? writer_us[1] / writer_n[1] : 0.0, "us"});
  m.push_back({"connector.writer.delete_us",
               writer_n[2] > 0 ? writer_us[2] / writer_n[2] : 0.0, "us"});
  m.push_back({"connector.writer.write_p50_ms",
               Median(t.write_latency) * 1e3, "ms"});
  m.push_back({"connector.writer.write_p99_ms", write_p99 * 1e3, "ms"});
  m.push_back({"text.search_us", search.MeanMicros(), "us"});
  m.push_back({"text.search_calls_per_query", run_text_calls / queries,
               "count"});
  m.push_back({"text.postings_per_search",
               text_calls > 0 ? static_cast<double>(search.items.load()) /
                                    text_calls
                              : 0.0,
               "count"});
  m.push_back({"text.search_allocs_per_call",
               text_calls > 0 ? static_cast<double>(search.allocs.load()) /
                                    text_calls
                              : 0.0,
               "count"});
  m.push_back({"text.live.snapshot_us", d.text_ledger.snapshot.MeanMicros(),
               "us"});
  m.push_back({"text.live.delta_docs_at_query", delta_docs / queries,
               "count"});
  m.push_back({"text.live.merge_ms", merge_ms / merges, "ms"});
  m.push_back({"text.live.docs_folded_per_pass", folded / merges, "count"});
  m.push_back({"trace.overhead_frac",
               untraced_qps > 0 ? 1.0 - traced_qps / untraced_qps : 0.0,
               "ratio"});
  return m;
}

void ResetLedgers(Deployment& d) {
  for (LayerCounter* c : {&d.text_ledger.search, &d.text_ledger.snapshot,
                          &d.source_ledger.search, &d.source_ledger.fetch}) {
    c->calls = 0;
    c->nanos = 0;
    c->items = 0;
    c->allocs = 0;
  }
  d.source_ledger.wait_nanos = 0;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.15g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Modes

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string mode = "run";
  std::string spans;
};

/// One replicate: a fresh setup (timed), expectations when asked for, one
/// measured pass of the sequence, and its check.
struct Measured {
  std::unique_ptr<Deployment> deployment;
  double setup_seconds = 0.0;
  PassResult pass;
  Totals totals;
};

Measured MeasureOnce(Workload kind, const WorkloadInfo& info, bool traced,
                     Sequence& seq, uint64_t seed, bool need_expectations) {
  Measured m;
  const double t0 = NowSeconds();
  m.deployment = Setup(kind, traced, seq);
  m.setup_seconds = NowSeconds() - t0;
  if (need_expectations) ComputeExpectations(*m.deployment, kind, seed, seq);
  ResetLedgers(*m.deployment);
  if (traced) Tracer::Get().Enable(kSpanCapacity);  // Spans of the pass only.
  m.pass = RunPass(*m.deployment, seq, info.clients);
  CheckPass(seq, m.pass);
  m.totals = Summarize(seq, m.pass);
  return m;
}

int RunMode(const Args& args) {
  const WorkloadInfo* info = nullptr;
  const Workload kind = KindOf(args.workload, &info);
  const size_t count = static_cast<size_t>(std::llround(
      info->ops_per_second * std::max(1, args.seconds) / kReplicates));
  Sequence seq = MakeSequence(kind, args.seed, count);

  if (!args.trace) {
    std::vector<double> setup;
    std::vector<Timing> runs;
    Totals all;
    uint64_t allocs = 0;
    for (int r = 0; r < kReplicates; ++r) {
      const Measured m =
          MeasureOnce(kind, *info, false, seq, args.seed, r == 0);
      setup.push_back(m.setup_seconds);
      runs.push_back(PassTiming(seq, m.pass));
      all.reads += m.totals.reads;
      all.reads_ok += m.totals.reads_ok;
      all.writes += m.totals.writes;
      all.writes_ok += m.totals.writes_ok;
      all.modeled += m.totals.modeled;
      allocs += m.pass.allocs;
    }
    const size_t failed =
        (all.reads - all.reads_ok) + (all.writes - all.writes_ok);
    std::fprintf(stderr, "%d replicates of %zu ops: reads=%zu writes=%zu\n",
                 kReplicates, seq.ops.size(), all.reads, all.writes);
    PrintResult(failed == 0, all.reads + all.writes, failed,
                EndToEnd(all, runs, allocs, setup));
    return failed == 0 ? 0 : 1;
  }

  // Traced run: an untraced pass for the overhead baseline, then the
  // traced pass that fills the ledger.
  Measured plain = MeasureOnce(kind, *info, false, seq, args.seed, true);
  const double untraced_qps = PassTiming(seq, plain.pass).qps;
  const size_t plain_failed = (plain.totals.reads - plain.totals.reads_ok) +
                              (plain.totals.writes - plain.totals.writes_ok);
  plain.deployment.reset();
  Measured traced = MeasureOnce(kind, *info, true, seq, args.seed, false);
  const Totals& t = traced.totals;
  const size_t failed =
      plain_failed + (t.reads - t.reads_ok) + (t.writes - t.writes_ok);
  if (!args.spans.empty()) {
    if (!Tracer::Get().WriteJsonLines(args.spans)) {
      std::fprintf(stderr, "serve_bench: cannot write %s\n",
                   args.spans.c_str());
    }
  }
  std::fprintf(stderr, "spans kept=%zu dropped=%" PRIu64 "\n",
               Tracer::Get().kept(), Tracer::Get().dropped());
  PrintResult(failed == 0, plain.totals.reads + plain.totals.writes +
                               t.reads + t.writes,
              failed, PerLayer(*traced.deployment, seq, traced.pass, t,
                               untraced_qps));
  return failed == 0 ? 0 : 1;
}

/// Transparency check: the same op sequence against an untraced and a
/// traced deployment, in lockstep on one thread, must give byte-identical
/// rows (in order) and identical meter deltas for every read. Both run
/// serially: with parallel fetches the byte-budgeted cache's LRU order
/// follows which fetch completes first, so later hits (and meter deltas)
/// can differ even between two unwrapped deployments.
int TransparencyMode(const Args& args) {
  const WorkloadInfo* info = nullptr;
  const Workload kind = KindOf(args.workload, &info);
  Sequence seq = MakeSequence(kind, args.seed, 400);
  std::unique_ptr<Deployment> plain = Setup(kind, false, seq, true);
  std::unique_ptr<Deployment> traced = Setup(kind, true, seq, true);
  if (kind == Workload::kLiveChurn) FillLiveWrites(*plain, args.seed, seq);
  plain->delay.delay_us.store(0);
  traced->delay.delay_us.store(0);
  size_t reads = 0, mismatches = 0;
  for (size_t i = 0; i < seq.ops.size(); ++i) {
    const Op& op = seq.ops[i];
    if (op.kind == OpKind::kMerge) {
      plain->merger->RunOnePass();
      traced->merger->RunOnePass();
      continue;
    }
    if (op.kind != OpKind::kRead) {
      WriteRecord a, b;
      ExecuteWrite(*plain, op, a);
      ExecuteWrite(*traced, op, b);
      if (!a.ok || !b.ok) ++mismatches;
      continue;
    }
    const QuerySpec& spec = seq.queries[op.query];
    Result<QueryOutcome> a = plain->services[spec.service]->Run(spec.sql);
    Result<QueryOutcome> b = traced->services[spec.service]->Run(spec.sql);
    ++reads;
    bool same = a.ok() && b.ok() &&
                a->rows.rows.size() == b->rows.rows.size() &&
                a->meter_delta == b->meter_delta;
    for (size_t r = 0; same && r < a->rows.rows.size(); ++r) {
      same = RowToString(a->rows.rows[r]) == RowToString(b->rows.rows[r]);
    }
    if (!same) {
      if (mismatches == 0) {
        std::fprintf(stderr, "transparency: op %zu differs: %s\n", i,
                     spec.sql.c_str());
      }
      ++mismatches;
    }
  }
  std::printf("transparency %s: reads=%zu mismatches=%zu\n",
              args.workload.c_str(), reads, mismatches);
  return mismatches == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--mode") {
      args->mode = value;
    } else if (key == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload <paper_mix|remote_cached|"
                 "live_churn> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <path>] [--mode run|transparency]\n");
    return 2;
  }
  servebench::UseExactSleeps();
  if (args.mode == "transparency") return servebench::TransparencyMode(args);
  return servebench::RunMode(args);
}
