#include "connector/sharding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "connector/chaos.h"
#include "connector/remote_text_source.h"
#include "connector/resilience.h"
#include "core/executor.h"
#include "core/join_methods.h"
#include "sql/federation_service.h"
#include "sql/parser.h"
#include "tests/test_util.h"
#include "workload/sharded_corpus.h"

namespace textjoin {
namespace {

using textjoin::testing::MakeDoc;
using textjoin::testing::MakeSmallEngine;
using textjoin::testing::MakeStudentTable;
using textjoin::testing::MercuryDecl;

/// A corpus big enough that a 4-way split leaves real work on every shard.
/// Titles and authors overlap the student relation so the paper's example
/// query produces a healthy join result.
std::unique_ptr<TextEngine> MakeMediumEngine() {
  auto engine = std::make_unique<TextEngine>();
  const std::vector<std::string> authors = {"Radhika", "Gravano", "Kao",
                                            "Smith",   "Yan",     "Garcia",
                                            "Ullman",  "Widom"};
  const std::vector<std::string> titles = {
      "Belief update in knowledge bases", "Text retrieval systems survey",
      "Belief revision and update",       "Query optimization for text",
      "Distributed systems overview",     "Information filtering",
      "Belief networks for retrieval",    "Parallel query execution"};
  for (int i = 0; i < 48; ++i) {
    Document doc = MakeDoc("doc" + std::to_string(i), titles[i % titles.size()],
                           {authors[i % authors.size()],
                            authors[(i * 3 + 1) % authors.size()]},
                           i % 2 == 0 ? "1994" : "1993");
    auto added = engine->AddDocument(std::move(doc));
    TEXTJOIN_CHECK(added.ok(), "%s", added.status().ToString().c_str());
  }
  return engine;
}

/// Hedge on every operation with no timer wait (the PR 5 test shape) — in
/// a replicated topology the duplicate races a DIFFERENT replica.
HedgeOptions ForceHedge() {
  HedgeOptions options;
  options.min_samples = 0;
  options.min_delay = std::chrono::microseconds(0);
  options.max_delay = std::chrono::microseconds(0);
  options.pool_threads = 4;
  return options;
}

std::function<std::unique_ptr<TextSource>(TextSource*)> DeadReplica(
    StatusCode code = StatusCode::kUnavailable) {
  return [code](TextSource* inner) -> std::unique_ptr<TextSource> {
    ChaosOptions chaos;
    chaos.failure_period = 1;  // Every call fails: a dead server.
    chaos.failure_code = code;
    return std::make_unique<ChaosTextSource>(inner, chaos);
  };
}

// ---------------------------------------------------------------------------
// Partitioning and topology

TEST(ShardForDocidTest, StableInRangeAndSpreads) {
  std::vector<size_t> hits(4, 0);
  for (int i = 0; i < 200; ++i) {
    const std::string docid = "doc" + std::to_string(i);
    const size_t shard = ShardForDocid(docid, 4);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(shard, ShardForDocid(docid, 4));
    hits[shard]++;
  }
  for (size_t shard = 0; shard < 4; ++shard) EXPECT_GT(hits[shard], 0u);
  EXPECT_EQ(ShardForDocid("anything", 1), 0u);
  EXPECT_EQ(ShardForDocid("anything", 0), 0u);
}

TEST(SplitCorpusTest, PartitionsByHashAndRecordsGlobalOrdinals) {
  auto full = MakeMediumEngine();
  ShardedCorpusConfig config;
  config.num_shards = 4;
  config.num_replicas = 2;
  auto split = SplitCorpus(*full, config);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  size_t total = 0;
  for (size_t s = 0; s < 4; ++s) {
    total += split->engines[s]->num_documents();
    for (const Document& doc : split->engines[s]->documents()) {
      EXPECT_EQ(ShardForDocid(doc.docid, 4), s) << doc.docid;
    }
  }
  EXPECT_EQ(total, full->num_documents());
  // A document's global ordinal is its DocNum in the unsharded corpus.
  int64_t expected = 0;
  for (const Document& doc : full->documents()) {
    EXPECT_EQ(split->ordinals->at(doc.docid), expected++);
  }
  EXPECT_TRUE(split->topology.Validate().ok());
  EXPECT_EQ(split->topology.num_shards(), 4u);
  EXPECT_EQ(split->topology.num_replicas(), 8u);
  EXPECT_EQ(split->topology.total_documents(), full->num_documents());
  EXPECT_EQ(split->topology.max_search_terms(), full->max_search_terms());

  ShardedCorpusConfig zero_shards;
  zero_shards.num_shards = 0;
  EXPECT_FALSE(SplitCorpus(*full, zero_shards).ok());
  ShardedCorpusConfig zero_replicas;
  zero_replicas.num_replicas = 0;
  EXPECT_FALSE(SplitCorpus(*full, zero_replicas).ok());
}

TEST(BackendTopologyTest, ValidateRejectsMalformedTopologies) {
  auto engine_a = MakeSmallEngine();
  auto engine_b = MakeMediumEngine();

  BackendTopology empty;
  EXPECT_FALSE(empty.Validate().ok());

  BackendTopology no_replicas;
  no_replicas.shards.push_back({});
  EXPECT_FALSE(no_replicas.Validate().ok());

  BackendTopology null_corpus;
  null_corpus.shards.push_back({{BackendTopology::Replica{nullptr, nullptr}}});
  EXPECT_FALSE(null_corpus.Validate().ok());

  // Replicas of one shard must hold the same documents.
  BackendTopology mismatched;
  mismatched.shards.push_back(
      {{BackendTopology::Replica{engine_a.get(), nullptr},
        BackendTopology::Replica{engine_b.get(), nullptr}}});
  EXPECT_FALSE(mismatched.Validate().ok());

  // Multi-shard topologies need the merge key.
  BackendTopology no_ordinal;
  no_ordinal.shards.push_back(
      {{BackendTopology::Replica{engine_a.get(), nullptr}}});
  no_ordinal.shards.push_back(
      {{BackendTopology::Replica{engine_b.get(), nullptr}}});
  EXPECT_FALSE(no_ordinal.Validate().ok());

  EXPECT_TRUE(BackendTopology::Single(engine_a.get()).Validate().ok());
}

// ---------------------------------------------------------------------------
// Router: merging, routing, fast paths, failure semantics

TEST(ShardedRouterTest, BroadcastMergesIntoSingleBackendOrder) {
  auto full = MakeMediumEngine();
  full->set_exhaustive_eval(true);
  ShardedCorpusConfig config;
  config.num_shards = 4;
  config.exhaustive_eval = true;
  auto split = SplitCorpus(*full, config);
  ASSERT_TRUE(split.ok());
  ShardedBackend backend(split->topology);
  auto router = backend.MakeBareSource();

  RemoteTextSource reference(full.get());
  for (const char* term : {"belief", "text", "systems", "retrieval"}) {
    TextQueryPtr query = TextQuery::Term("title", term);
    auto sharded = router->Search(*query);
    auto single = reference.Search(*query);
    ASSERT_TRUE(sharded.ok() && single.ok()) << term;
    EXPECT_EQ(*sharded, *single) << term;  // Exact docid order.
  }
  // The logical meter is byte-identical to the single backend's.
  EXPECT_EQ(router->meter(), reference.meter())
      << "\n  sharded: " << router->meter().ToString()
      << "\n  single:  " << reference.meter().ToString();

  // Fetch routes by docid hash to the owning shard — every document of
  // the full corpus must be reachable.
  for (const Document& doc : full->documents()) {
    auto fetched = router->Fetch(doc.docid);
    ASSERT_TRUE(fetched.ok()) << doc.docid;
    EXPECT_EQ(fetched->docid, doc.docid);
  }
  const ShardActivity activity = router->activity();
  EXPECT_EQ(activity.broadcasts, 4u);
  EXPECT_EQ(activity.routed_fetches, full->num_documents());
  EXPECT_TRUE(activity.complete);
  EXPECT_EQ(router->num_documents(), full->num_documents());
  EXPECT_EQ(router->max_search_terms(), full->max_search_terms());
}

TEST(ShardedRouterTest, SingleShardTopologyUsesTheDirectPath) {
  auto full = MakeSmallEngine();
  ShardedBackend backend(BackendTopology::Single(full.get()));
  auto router = backend.MakeBareSource();
  TextQueryPtr query = TextQuery::Term("title", "belief");
  auto result = router->Search(*query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
  EXPECT_EQ(router->activity().broadcasts, 0u);  // No scatter for one shard.
  EXPECT_EQ(backend.scatter_pool(), nullptr);
}

TEST(ShardedRouterTest, TransientReplicaFailureFailsOverWithinTheShard) {
  auto full = MakeMediumEngine();
  full->set_exhaustive_eval(true);
  ShardedCorpusConfig config;
  config.num_shards = 4;
  config.num_replicas = 2;
  config.exhaustive_eval = true;
  auto split = SplitCorpus(*full, config);
  ASSERT_TRUE(split.ok());
  split->topology.shards[2].replicas[0].decorator = DeadReplica();
  ShardedBackend backend(split->topology);
  auto router = backend.MakeQuerySource();

  RemoteTextSource reference(full.get());
  TextQueryPtr query = TextQuery::Term("title", "belief");
  auto sharded = router->Search(*query);
  auto single = reference.Search(*query);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(*sharded, *single);
  EXPECT_EQ(router->meter(), reference.meter());

  const ShardActivity activity = router->activity();
  ASSERT_EQ(activity.replicas.size(), 8u);
  const ShardReplicaActivity& dead = activity.replicas[2 * 2 + 0];
  const ShardReplicaActivity& survivor = activity.replicas[2 * 2 + 1];
  EXPECT_GT(dead.errors, 0u);
  EXPECT_EQ(dead.meter, AccessMeter{});  // Died before reaching the engine.
  EXPECT_GT(survivor.failovers, 0u);
  EXPECT_TRUE(activity.complete);
}

TEST(ShardedRouterTest, FailFastReturnsTheLowestFailedShardsError) {
  auto full = MakeMediumEngine();
  ShardedCorpusConfig config;
  config.num_shards = 4;
  auto split = SplitCorpus(*full, config);
  ASSERT_TRUE(split.ok());
  split->topology.shards[1].replicas[0].decorator =
      DeadReplica(StatusCode::kInternal);
  split->topology.shards[3].replicas[0].decorator =
      DeadReplica(StatusCode::kUnavailable);
  ShardedBackend backend(split->topology);
  auto router = backend.MakeQuerySource();
  TextQueryPtr query = TextQuery::Term("title", "belief");
  // Deterministic regardless of scatter scheduling: the lowest failed
  // shard's error is the broadcast's error, every time.
  for (int round = 0; round < 4; ++round) {
    auto result = router->Search(*query);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInternal) << round;
  }
}

TEST(ShardedRouterTest, BestEffortDropsDeadShardsAndReportsHonestly) {
  auto full = MakeMediumEngine();
  full->set_exhaustive_eval(true);
  ShardedCorpusConfig config;
  config.num_shards = 4;
  config.num_replicas = 2;
  config.exhaustive_eval = true;
  auto split = SplitCorpus(*full, config);
  ASSERT_TRUE(split.ok());
  // BOTH replicas of shard 1 are dead: failover cannot save it.
  split->topology.shards[1].replicas[0].decorator = DeadReplica();
  split->topology.shards[1].replicas[1].decorator = DeadReplica();
  ShardedBackend backend(split->topology);
  auto router = backend.MakeQuerySource();
  router->set_failure_mode(FailureMode::kBestEffort);

  RemoteTextSource reference(full.get());
  TextQueryPtr query = TextQuery::Term("title", "belief");
  auto sharded = router->Search(*query);
  auto single = reference.Search(*query);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_TRUE(single.ok());
  // The surviving shards' contributions, in order — nothing more.
  std::vector<std::string> expected;
  for (const std::string& docid : *single) {
    if (ShardForDocid(docid, 4) != 1) expected.push_back(docid);
  }
  EXPECT_EQ(*sharded, expected);
  const ShardActivity activity = router->activity();
  EXPECT_GT(activity.dropped_shards, 0u);
  EXPECT_FALSE(activity.complete);
}

// ---------------------------------------------------------------------------
// The chaos grid: six join methods x parallelism x one injected fault,
// against an N=4 x R=2 deployment. Rows AND the aggregate logical meter
// must be byte-identical to the single-backend reference — the sick
// replica is absorbed by failover / breaker bypass / cross-replica
// hedging without poisoning the account.

enum class ChaosLeg { kNone, kKillReplica, kOpenBreaker, kLagReplica };

const char* LegName(ChaosLeg leg) {
  switch (leg) {
    case ChaosLeg::kNone:
      return "none";
    case ChaosLeg::kKillReplica:
      return "kill";
    case ChaosLeg::kOpenBreaker:
      return "breaker";
    case ChaosLeg::kLagReplica:
      return "lag";
  }
  return "?";
}

struct MethodCase {
  JoinMethodKind method;
  PredicateMask mask;
};

ForeignJoinSpec MakeGridSpec(const Table& table, JoinMethodKind method) {
  ForeignJoinSpec spec;
  spec.left_schema = table.schema();
  spec.text = MercuryDecl();
  spec.selections = {{"belief", "title"}};
  spec.joins = {{"student.name", "author"}, {"student.advisor", "author"}};
  if (method == JoinMethodKind::kSJ) {
    spec.left_columns_needed = false;
    spec.need_document_fields = false;
  }
  return spec;
}

struct RunOutput {
  std::vector<std::string> rows;
  AccessMeter meter;
  DegradationReport degradation;
  ShardActivity activity;
  HedgeActivity hedge;
  bool ok = false;
};

class ShardedChaosGridTest
    : public ::testing::TestWithParam<std::tuple<int, ChaosLeg>> {};

TEST_P(ShardedChaosGridTest, RowsAndMeterMatchTheSingleBackend) {
  const auto& [parallelism, leg] = GetParam();
  const std::vector<MethodCase> cases = {
      {JoinMethodKind::kTS, 0},     {JoinMethodKind::kRTP, 0},
      {JoinMethodKind::kSJ, 0},     {JoinMethodKind::kSJRTP, 0},
      {JoinMethodKind::kPTS, 0b01}, {JoinMethodKind::kPRTP, 0b10},
  };
  auto full = MakeMediumEngine();
  // Exhaustive evaluation makes postings charges exactly additive across
  // shards (eval.h) — required for byte-identity of the meters.
  full->set_exhaustive_eval(true);
  auto table = MakeStudentTable();

  // The reference: the single backend, serial, fault-free.
  auto run_reference = [&](const MethodCase& mc) {
    RemoteTextSource metered(full.get());
    AtomicDegradation sink;
    FaultPolicy policy;
    policy.degradation = &sink;
    auto result = ExecuteForeignJoin(mc.method, MakeGridSpec(*table, mc.method),
                                     table->rows(), metered, mc.mask, nullptr,
                                     policy);
    RunOutput out;
    out.ok = result.ok();
    if (result.ok()) {
      for (const Row& row : result->rows) out.rows.push_back(RowToString(row));
    }
    out.meter = metered.meter();
    out.degradation = sink.Snapshot();
    return out;
  };

  auto run_sharded = [&](const MethodCase& mc) {
    ShardedCorpusConfig config;
    config.num_shards = 4;
    config.num_replicas = 2;
    config.exhaustive_eval = true;
    auto split = SplitCorpus(*full, config);
    TEXTJOIN_CHECK(split.ok(), "%s", split.status().ToString().c_str());
    if (leg == ChaosLeg::kKillReplica) {
      split->topology.shards[1].replicas[0].decorator = DeadReplica();
    } else if (leg == ChaosLeg::kLagReplica) {
      // One slow replica; with force-hedging the duplicate races the fast
      // sibling. NOT a resilience deadline: a post-hoc deadline discards
      // work that already charged, breaking meter identity.
      split->topology.shards[2].replicas[0].decorator =
          [](TextSource* inner) -> std::unique_ptr<TextSource> {
        ChaosOptions chaos;
        chaos.search_latency = std::chrono::microseconds(2000);
        chaos.fetch_latency = std::chrono::microseconds(2000);
        return std::make_unique<ChaosTextSource>(inner, chaos);
      };
    }
    ShardedBackendOptions backend_options;
    backend_options.chain.resilience.emplace();
    backend_options.chain.resilience->retry.max_attempts = 2;
    backend_options.chain.resilience->sleeper =
        [](std::chrono::microseconds) {};
    backend_options.chain.resilience->enable_breaker =
        leg == ChaosLeg::kOpenBreaker;
    backend_options.chain.resilience->breaker.cooldown = std::chrono::hours(1);
    if (leg == ChaosLeg::kLagReplica) {
      backend_options.chain.hedging = ForceHedge();
    }
    ShardedBackend backend(split->topology, backend_options);
    if (leg == ChaosLeg::kOpenBreaker) {
      // Trip replica (1,0)'s breaker by hand: its sibling must absorb the
      // whole shard, and the rejections must not leak into the meters.
      CircuitBreaker* breaker = backend.breaker(1, 0);
      TEXTJOIN_CHECK(breaker != nullptr, "breaker layer not engaged");
      for (int i = 0; i < 8; ++i) breaker->RecordFailure();
      TEXTJOIN_CHECK(breaker->state() == CircuitBreaker::State::kOpen,
                     "breaker did not open");
    }
    auto router = backend.MakeQuerySource();
    AtomicDegradation sink;
    FaultPolicy policy;
    policy.degradation = &sink;
    std::unique_ptr<ThreadPool> pool;
    if (parallelism > 1) pool = std::make_unique<ThreadPool>(parallelism - 1);
    auto result = ExecuteForeignJoin(mc.method, MakeGridSpec(*table, mc.method),
                                     table->rows(), *router, mc.mask,
                                     pool.get(), policy);
    router->Quiesce();  // Hedge losers must settle before reading meters.
    RunOutput out;
    out.ok = result.ok();
    if (result.ok()) {
      for (const Row& row : result->rows) out.rows.push_back(RowToString(row));
    }
    out.meter = router->meter();
    out.degradation = sink.Snapshot();
    out.activity = router->activity();
    out.hedge = router->hedge_activity();
    return out;
  };

  for (const MethodCase& mc : cases) {
    const RunOutput reference = run_reference(mc);
    const RunOutput sharded = run_sharded(mc);
    const std::string label = std::string(JoinMethodName(mc.method)) +
                              " par=" + std::to_string(parallelism) +
                              " leg=" + LegName(leg);
    ASSERT_TRUE(reference.ok) << label;
    ASSERT_TRUE(sharded.ok) << label;
    EXPECT_EQ(sharded.rows, reference.rows) << label;
    EXPECT_EQ(sharded.meter, reference.meter)
        << label << "\n  sharded: " << sharded.meter.ToString()
        << "\n  single:  " << reference.meter.ToString();
    EXPECT_TRUE(sharded.degradation.complete) << label;
    EXPECT_EQ(sharded.degradation.skipped_operations, 0u) << label;
    EXPECT_TRUE(sharded.activity.complete) << label;
    EXPECT_EQ(sharded.activity.dropped_shards, 0u) << label;

    ASSERT_EQ(sharded.activity.replicas.size(), 8u) << label;
    auto replica = [&](size_t s, size_t r) -> const ShardReplicaActivity& {
      return sharded.activity.replicas[s * 2 + r];
    };
    switch (leg) {
      case ChaosLeg::kNone:
        break;
      case ChaosLeg::kKillReplica:
        EXPECT_GT(replica(1, 0).errors, 0u) << label;
        EXPECT_EQ(replica(1, 0).meter, AccessMeter{}) << label;
        EXPECT_GT(replica(1, 1).failovers, 0u) << label;
        break;
      case ChaosLeg::kOpenBreaker:
        EXPECT_GT(replica(1, 0).resilience.breaker_rejections, 0u) << label;
        EXPECT_EQ(replica(1, 0).meter, AccessMeter{}) << label;
        EXPECT_GT(replica(1, 1).failovers, 0u) << label;
        break;
      case ChaosLeg::kLagReplica:
        EXPECT_GT(sharded.hedge.hedges, 0u) << label;
        EXPECT_GT(replica(2, 1).ops, 0u) << label;
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ShardedChaosGridTest,
    ::testing::Combine(::testing::Values(1, 4, 8),
                       ::testing::Values(ChaosLeg::kNone,
                                         ChaosLeg::kKillReplica,
                                         ChaosLeg::kOpenBreaker,
                                         ChaosLeg::kLagReplica)));

TEST(ShardedChaosTest, WholeShardDownDegradesHonestlyUnderBestEffort) {
  auto full = MakeMediumEngine();
  full->set_exhaustive_eval(true);
  auto table = MakeStudentTable();
  ShardedCorpusConfig config;
  config.num_shards = 4;
  config.num_replicas = 2;
  config.exhaustive_eval = true;
  auto split = SplitCorpus(*full, config);
  ASSERT_TRUE(split.ok());
  split->topology.shards[1].replicas[0].decorator = DeadReplica();
  split->topology.shards[1].replicas[1].decorator = DeadReplica();
  ShardedBackend backend(split->topology);
  auto router = backend.MakeQuerySource();
  router->set_failure_mode(FailureMode::kBestEffort);

  AtomicDegradation sink;
  FaultPolicy policy;
  policy.mode = FailureMode::kBestEffort;
  policy.degradation = &sink;
  auto result =
      ExecuteForeignJoin(JoinMethodKind::kTS,
                         MakeGridSpec(*table, JoinMethodKind::kTS),
                         table->rows(), *router, 0, nullptr, policy);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Whatever came back is a subset of the fault-free answer...
  RemoteTextSource reference(full.get());
  auto full_result =
      ExecuteForeignJoin(JoinMethodKind::kTS,
                         MakeGridSpec(*table, JoinMethodKind::kTS),
                         table->rows(), reference, 0, nullptr, {});
  ASSERT_TRUE(full_result.ok());
  std::multiset<std::string> full_rows, partial_rows;
  for (const Row& row : full_result->rows) full_rows.insert(RowToString(row));
  for (const Row& row : result->rows) partial_rows.insert(RowToString(row));
  EXPECT_TRUE(std::includes(full_rows.begin(), full_rows.end(),
                            partial_rows.begin(), partial_rows.end()));
  // ...and the loss is on the record, not papered over.
  const ShardActivity activity = router->activity();
  EXPECT_GT(activity.dropped_shards, 0u);
  EXPECT_FALSE(activity.complete);
}

// ---------------------------------------------------------------------------
// Service level: topology-first Options

const char* const kServiceSql =
    "select student.name, mercury.docid from student, mercury "
    "where 'belief' in mercury.title and student.name in mercury.author";

TEST(ShardedServiceTest, ColdAndWarmRunsMatchTheSingleBackendService) {
  auto full = MakeMediumEngine();
  full->set_exhaustive_eval(true);
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());

  auto make_options = [] {
    FederationService::Options options;
    options.text = MercuryDecl();
    options.chain.cache.emplace();
    return options;
  };
  FederationService single(&catalog, full.get(), make_options());

  ShardedCorpusConfig config;
  config.num_shards = 4;
  config.num_replicas = 2;
  config.exhaustive_eval = true;
  auto split = SplitCorpus(*full, config);
  ASSERT_TRUE(split.ok());
  auto sharded_options = make_options();
  sharded_options.topology = split->topology;
  FederationService sharded(&catalog, nullptr, sharded_options);

  for (const bool warm : {false, true}) {
    const char* phase = warm ? "warm" : "cold";
    auto single_outcome = single.Run(kServiceSql);
    auto sharded_outcome = sharded.Run(kServiceSql);
    ASSERT_TRUE(single_outcome.ok()) << single_outcome.status().ToString();
    ASSERT_TRUE(sharded_outcome.ok()) << sharded_outcome.status().ToString();
    std::vector<std::string> single_rows, sharded_rows;
    for (const Row& row : single_outcome->rows.rows) {
      single_rows.push_back(RowToString(row));
    }
    for (const Row& row : sharded_outcome->rows.rows) {
      sharded_rows.push_back(RowToString(row));
    }
    EXPECT_EQ(sharded_rows, single_rows) << phase;
    EXPECT_EQ(sharded_outcome->meter_delta, single_outcome->meter_delta)
        << phase << "\n  sharded: " << sharded_outcome->meter_delta.ToString()
        << "\n  single:  " << single_outcome->meter_delta.ToString();
    EXPECT_EQ(sharded_outcome->chosen_plan, single_outcome->chosen_plan)
        << phase;
    EXPECT_TRUE(sharded_outcome->degradation.complete) << phase;
    if (warm) {
      EXPECT_GT(sharded_outcome->cache.TotalHits(), 0u);
      EXPECT_EQ(sharded_outcome->cache.TotalHits(),
                single_outcome->cache.TotalHits());
    } else {
      // Cold run: attribution covers all 4 shards x 2 replicas.
      EXPECT_EQ(sharded_outcome->profile.shards.replicas.size(), 8u);
      EXPECT_GT(sharded_outcome->profile.shards.broadcasts, 0u);
    }
  }
}

TEST(ShardedServiceTest, ExplainAnalyzeRendersShardAttribution) {
  auto full = MakeMediumEngine();
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  ShardedCorpusConfig config;
  config.num_shards = 4;
  config.num_replicas = 2;
  auto split = SplitCorpus(*full, config);
  ASSERT_TRUE(split.ok());
  FederationService::Options options;
  options.text = MercuryDecl();
  options.topology = split->topology;
  FederationService service(&catalog, nullptr, options);

  auto outcome = service.Run(kServiceSql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  auto query = ParseQuery(kServiceSql, MercuryDecl());
  ASSERT_TRUE(query.ok());
  const std::string text =
      ExplainAnalyze(*outcome->plan, *query, outcome->profile);
  EXPECT_NE(text.find("| shard s0.r0"), std::string::npos) << text;
  EXPECT_NE(text.find("| shard s3.r1"), std::string::npos) << text;
}

TEST(ShardedServiceTest, WholeShardOutageYieldsHonestServiceDegradation) {
  auto full = MakeMediumEngine();
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  ShardedCorpusConfig config;
  config.num_shards = 4;
  config.num_replicas = 2;
  auto split = SplitCorpus(*full, config);
  ASSERT_TRUE(split.ok());
  split->topology.shards[2].replicas[0].decorator = DeadReplica();
  split->topology.shards[2].replicas[1].decorator = DeadReplica();
  FederationService::Options options;
  options.text = MercuryDecl();
  options.topology = split->topology;
  options.failure_mode = FailureMode::kBestEffort;
  options.chain.resilience.emplace();
  options.chain.resilience->retry.max_attempts = 2;
  options.chain.resilience->enable_breaker = false;
  options.chain.resilience->sleeper = [](std::chrono::microseconds) {};
  FederationService service(&catalog, nullptr, options);

  auto outcome = service.Run(kServiceSql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(outcome->degradation.complete);
  EXPECT_GT(outcome->profile.shards.dropped_shards, 0u);
  EXPECT_FALSE(outcome->profile.shards.complete);
}

// Regression (the cross-shard epoch bug): the cache's corpus watch must
// aggregate per-shard document counts — growth in ONE shard has to bump
// the epoch, or warm queries serve stale rows that miss the new document.
TEST(ShardedServiceTest, CacheEpochWatchesAggregateShardCounts) {
  auto full = MakeMediumEngine();
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  ShardedCorpusConfig config;
  config.num_shards = 4;
  auto split = SplitCorpus(*full, config);
  ASSERT_TRUE(split.ok());
  FederationService::Options options;
  options.text = MercuryDecl();
  options.topology = split->topology;
  options.chain.cache.emplace();
  FederationService service(&catalog, nullptr, options);

  ASSERT_TRUE(service.Run(kServiceSql).ok());
  auto warm = service.Run(kServiceSql);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(warm->cache.TotalHits(), 0u);

  // A matching document lands on its hash shard; only that one shard's
  // count changes. The next Run must see it, not the stale cache.
  Document doc =
      MakeDoc("zz-new", "Belief update in sharded corpora", {"Radhika"});
  const size_t owner = ShardForDocid("zz-new", 4);
  ASSERT_TRUE(split->engines[owner]->AddDocument(std::move(doc)).ok());
  auto fresh = service.Run(kServiceSql);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  bool saw_new_document = false;
  for (const Row& row : fresh->rows.rows) {
    if (RowToString(row).find("zz-new") != std::string::npos) {
      saw_new_document = true;
    }
  }
  EXPECT_TRUE(saw_new_document);
  ASSERT_NE(service.cache(), nullptr);
  EXPECT_GT(service.cache()->Stats().invalidations, 0u);
}

}  // namespace
}  // namespace textjoin
