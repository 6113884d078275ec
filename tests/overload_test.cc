#include "connector/overload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "connector/chaos.h"
#include "connector/remote_text_source.h"
#include "connector/resilience.h"
#include "core/admission.h"
#include "core/enumerator.h"
#include "core/executor.h"
#include "core/join_methods.h"
#include "core/pipeline.h"
#include "core/statistics.h"
#include "sql/federation_service.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace textjoin {
namespace {

using pipeline::StageKind;
using pipeline::StageScheduler;
using textjoin::testing::FakeClock;
using textjoin::testing::MakeSmallEngine;
using textjoin::testing::MakeStudentTable;
using textjoin::testing::MercuryDecl;

// ---------------------------------------------------------------------------
// Test sources

/// Always fails with a transient error; counts the calls it absorbed.
class FailingSource final : public TextSource {
 public:
  Result<std::vector<std::string>> Search(const TextQuery&) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("injected outage");
  }
  Result<Document> Fetch(const std::string&) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("injected outage");
  }
  size_t max_search_terms() const override { return 70; }
  size_t num_documents() const override { return 0; }

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  mutable std::atomic<uint64_t> calls_{0};
};

/// Delays every PRIMARY call (outside a hedge attempt) by a real sleep, so
/// a raced duplicate — which skips the sleep — deterministically wins.
class SlowPrimarySource final : public TextSourceDecorator {
 public:
  SlowPrimarySource(TextSource* inner, std::chrono::milliseconds delay)
      : TextSourceDecorator(inner), delay_(delay) {}

  Result<std::vector<std::string>> Search(
      const TextQuery& query) const override {
    if (!InHedgeAttempt()) std::this_thread::sleep_for(delay_);
    return inner_->Search(query);
  }
  Result<Document> Fetch(const std::string& docid) const override {
    if (!InHedgeAttempt()) std::this_thread::sleep_for(delay_);
    return inner_->Fetch(docid);
  }

 private:
  std::chrono::milliseconds delay_;
};

// ---------------------------------------------------------------------------
// Hedge-attempt scope

TEST(HedgeAttemptScopeTest, NestsAndRestores) {
  EXPECT_FALSE(InHedgeAttempt());
  EXPECT_EQ(HedgeWasteMeter(), nullptr);
  AtomicAccessMeter outer_meter, inner_meter;
  {
    HedgeAttemptScope outer(&outer_meter);
    EXPECT_TRUE(InHedgeAttempt());
    EXPECT_EQ(HedgeWasteMeter(), &outer_meter);
    {
      HedgeAttemptScope inner(&inner_meter);
      EXPECT_EQ(HedgeWasteMeter(), &inner_meter);
    }
    EXPECT_EQ(HedgeWasteMeter(), &outer_meter);
  }
  EXPECT_FALSE(InHedgeAttempt());
}

// ---------------------------------------------------------------------------
// Adaptive limiter (AIMD decisions fed directly, no wall-clock involved)

class AdaptiveLimiterTest : public ::testing::Test {
 protected:
  AdaptiveLimiterTest() {
    options_.min_limit = 1;
    options_.max_limit = 16;
    options_.initial_limit = 8;
    options_.window = 4;
    options_.tolerance = 2.0;
    options_.decrease_factor = 0.8;
  }

  /// Feeds one full observation window of identical samples.
  void FeedWindow(AdaptiveLimiter& limiter, std::chrono::nanoseconds rtt,
                  bool transient_failure = false) {
    for (int i = 0; i < options_.window; ++i) {
      limiter.Acquire();
      limiter.Release(rtt, transient_failure);
    }
  }

  AdaptiveLimiterOptions options_;
};

TEST_F(AdaptiveLimiterTest, IncreasesOnHealthyWindowsDecreasesOnSlowOnes) {
  AdaptiveLimiter limiter(options_);
  EXPECT_EQ(limiter.limit(), 8);

  // First healthy window: sets the baseline and earns one permit.
  FeedWindow(limiter, std::chrono::milliseconds(1));
  EXPECT_EQ(limiter.limit(), 9);
  AdaptiveLimiterStats stats = limiter.stats();
  EXPECT_EQ(stats.increases, 1u);
  EXPECT_DOUBLE_EQ(stats.baseline_ms, 1.0);

  // A window whose FASTEST sample blows 2x the baseline backs off
  // multiplicatively: 9 * 0.8 = 7.2 -> effective 7.
  FeedWindow(limiter, std::chrono::milliseconds(10));
  EXPECT_EQ(limiter.limit(), 7);
  stats = limiter.stats();
  EXPECT_EQ(stats.decreases, 1u);
  // Congestion never drags the baseline up.
  EXPECT_DOUBLE_EQ(stats.baseline_ms, 1.0);
}

TEST_F(AdaptiveLimiterTest, TransientFailuresCountAsCongestion) {
  AdaptiveLimiter limiter(options_);
  // One transient failure poisons the whole window even when every RTT is
  // fast: 8 * 0.8 = 6.4 -> effective 6, and no baseline is learned from it.
  limiter.Acquire();
  limiter.Release(std::chrono::milliseconds(1), /*transient_failure=*/true);
  for (int i = 0; i < options_.window - 1; ++i) {
    limiter.Acquire();
    limiter.Release(std::chrono::milliseconds(1), false);
  }
  EXPECT_EQ(limiter.limit(), 6);
  EXPECT_DOUBLE_EQ(limiter.stats().baseline_ms, 0.0);

  // The next healthy window sets the baseline and resumes the climb.
  FeedWindow(limiter, std::chrono::milliseconds(1));
  EXPECT_EQ(limiter.limit(), 7);
  EXPECT_DOUBLE_EQ(limiter.stats().baseline_ms, 1.0);
}

TEST_F(AdaptiveLimiterTest, ClampsToConfiguredRange) {
  AdaptiveLimiter limiter(options_);
  FeedWindow(limiter, std::chrono::milliseconds(1));  // Baseline at 1ms.
  for (int i = 0; i < 40; ++i) {
    FeedWindow(limiter, std::chrono::milliseconds(50));
  }
  EXPECT_EQ(limiter.limit(), options_.min_limit);
  for (int i = 0; i < 40; ++i) {
    FeedWindow(limiter, std::chrono::milliseconds(1));
  }
  EXPECT_EQ(limiter.limit(), options_.max_limit);
}

TEST_F(AdaptiveLimiterTest, AcquireBlocksAtTheLimit) {
  options_.min_limit = options_.max_limit = options_.initial_limit = 1;
  AdaptiveLimiter limiter(options_);
  Result<bool> fast = limiter.Acquire();
  ASSERT_TRUE(fast.ok());
  EXPECT_FALSE(*fast);  // Fast path, no wait.
  EXPECT_FALSE(limiter.HasSpareCapacity());

  std::atomic<bool> waited{false};
  std::thread blocked([&] {
    Result<bool> permit = limiter.Acquire();
    waited.store(permit.ok() && *permit);
  });
  while (limiter.stats().waiters == 0) std::this_thread::yield();

  limiter.Release(std::chrono::milliseconds(1), false);
  blocked.join();
  EXPECT_TRUE(waited.load());
  const AdaptiveLimiterStats stats = limiter.stats();
  EXPECT_EQ(stats.acquires, 2u);
  EXPECT_EQ(stats.waits, 1u);
  EXPECT_EQ(stats.in_flight, 1);
  limiter.Release(std::chrono::milliseconds(1), false);
  EXPECT_TRUE(limiter.HasSpareCapacity());
}

// ---------------------------------------------------------------------------
// Chaos latency injection (seeded, delivered to a sink — no real sleeps)

TEST(ChaosLatencyTest, SeededSlowCallsAreDeterministicAndSinkDriven) {
  auto engine = MakeSmallEngine();
  RemoteTextSource remote(engine.get());

  ChaosOptions options;
  options.seed = 7;
  options.content_keyed = true;
  options.search_latency = std::chrono::microseconds(100);
  options.fetch_latency = std::chrono::microseconds(50);
  options.slow_rate = 0.5;
  options.slow_latency = std::chrono::microseconds(10000);

  auto observe = [&](uint64_t seed) {
    FakeClock clock;
    ChaosOptions opts = options;
    opts.seed = seed;
    opts.latency_sink = clock.sink();
    ChaosTextSource chaos(&remote, opts);
    std::vector<int64_t> delays;
    static const char* const kWords[] = {"belief", "update", "retrieval",
                                         "text",   "survey", "filtering"};
    for (const char* word : kWords) {
      TextQueryPtr query = TextQuery::Term("title", word);
      const auto before = clock.Now();
      EXPECT_TRUE(chaos.Search(*query).ok()) << word;
      delays.push_back((clock.Now() - before).count());
    }
    for (const char* docid : {"d1", "d2", "d3", "d4", "d5", "d6"}) {
      const auto before = clock.Now();
      EXPECT_TRUE(chaos.Fetch(docid).ok()) << docid;
      delays.push_back((clock.Now() - before).count());
    }
    const ChaosStats stats = chaos.stats();
    // The slow draw selected SOME BUT NOT ALL operations, and every delay
    // is exactly the base or the slow figure — never a wall-clock artifact.
    EXPECT_GT(stats.slow_calls, 0u);
    EXPECT_LT(stats.slow_calls, delays.size());
    for (size_t i = 0; i < delays.size(); ++i) {
      const int64_t base = (i < 6 ? options.search_latency.count()
                                  : options.fetch_latency.count()) *
                           1000;
      const int64_t slow = options.slow_latency.count() * 1000;
      EXPECT_TRUE(delays[i] == base || delays[i] == slow)
          << "op " << i << " delay " << delays[i];
    }
    return delays;
  };

  const std::vector<int64_t> first = observe(7);
  const std::vector<int64_t> second = observe(7);
  const std::vector<int64_t> reseeded = observe(8);
  EXPECT_EQ(first, second);    // Same seed: same slow set.
  EXPECT_NE(first, reseeded);  // Different seed: a different slow set.
}

// ---------------------------------------------------------------------------
// Hedged requests

HedgeOptions ForceHedgeOptions(int pool_threads = 2) {
  HedgeOptions options;
  options.min_samples = 0;  // Armed from the first operation...
  options.min_delay = std::chrono::microseconds(0);
  options.max_delay = std::chrono::microseconds(0);  // ...with no timer wait.
  options.pool_threads = pool_threads;
  return options;
}

TEST(HedgeTest, DuplicateWinsAndChargesOnlyTheWasteMeter) {
  auto engine = MakeSmallEngine();
  RemoteTextSource metered(engine.get());
  SlowPrimarySource slow(&metered, std::chrono::milliseconds(20));
  // 4 pool threads: straggling losers must not starve the next race's
  // duplicate of a thread (two sleeping primaries can be outstanding).
  HedgeController controller(ForceHedgeOptions(/*pool_threads=*/4));
  HedgedTextSource hedged(&slow, &controller);

  TextQueryPtr query = TextQuery::Term("title", "belief");
  auto search = hedged.Search(*query);
  ASSERT_TRUE(search.ok());
  EXPECT_EQ(search->size(), 2u);  // d1, d4 — hedging never changes results.
  auto fetch = hedged.Fetch("d1");
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(fetch->docid, "d1");

  hedged.Quiesce();  // Wait out the straggling primaries (the losers).
  const HedgeActivity activity = hedged.activity();
  EXPECT_EQ(activity.hedges, 2u);
  EXPECT_EQ(activity.hedge_wins, 2u);  // The fast duplicate won both races.
  EXPECT_GT(activity.waste.invocations + activity.waste.long_docs, 0u);

  // Byte identity: the main meter carries exactly what an unhedged run
  // would — the duplicates' charges all went to the waste meter.
  RemoteTextSource baseline(engine.get());
  ASSERT_TRUE(baseline.Search(*query).ok());
  ASSERT_TRUE(baseline.Fetch("d1").ok());
  EXPECT_EQ(metered.meter(), baseline.meter())
      << "  hedged:   " << metered.meter().ToString()
      << "\n  baseline: " << baseline.meter().ToString();
  EXPECT_EQ(controller.stats().hedge_wins, 2u);
}

TEST(HedgeTest, ColdPathRecordsRttsUntilArmed) {
  auto engine = MakeSmallEngine();
  RemoteTextSource remote(engine.get());
  HedgeOptions options;
  options.min_samples = 4;
  options.min_delay = std::chrono::microseconds(1);
  HedgeController controller(options);
  HedgedTextSource hedged(&remote, &controller);

  TextQueryPtr query = TextQuery::Term("title", "belief");
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(controller.HedgeDelay().has_value());
    ASSERT_TRUE(hedged.Search(*query).ok());
  }
  EXPECT_FALSE(controller.HedgeDelay().has_value());
  ASSERT_TRUE(hedged.Search(*query).ok());  // The min_samples-th RTT.
  EXPECT_TRUE(controller.HedgeDelay().has_value());
  EXPECT_EQ(controller.stats().samples, 4u);
  EXPECT_EQ(hedged.activity().hedges, 0u);  // Cold path never raced.
}

TEST(HedgeTest, SuppressedWhenLimiterHasNoSpareCapacity) {
  auto engine = MakeSmallEngine();
  RemoteTextSource metered(engine.get());
  SlowPrimarySource slow(&metered, std::chrono::milliseconds(50));
  AdaptiveLimiterOptions limiter_options;
  limiter_options.min_limit = limiter_options.max_limit =
      limiter_options.initial_limit = 1;
  AdaptiveLimiter limiter(limiter_options);
  LimitedTextSource limited(&slow, &limiter);
  // The hedge timer fires while the primary still holds the only permit:
  // duplicating would displace queued demand, so the hedge is suppressed.
  HedgeOptions hedge_options = ForceHedgeOptions();
  hedge_options.min_delay = std::chrono::microseconds(10000);
  hedge_options.max_delay = std::chrono::microseconds(10000);
  HedgeController controller(hedge_options);
  HedgedTextSource hedged(&limited, &controller, &limiter);

  TextQueryPtr query = TextQuery::Term("title", "belief");
  auto result = hedged.Search(*query);
  ASSERT_TRUE(result.ok());
  hedged.Quiesce();
  const HedgeActivity activity = hedged.activity();
  EXPECT_EQ(activity.hedges, 0u);
  EXPECT_EQ(activity.suppressed, 1u);
  EXPECT_EQ(activity.waste, AccessMeter{});  // No duplicate, no waste.
}

TEST(HedgeTest, DuplicatesDoNotDoubleTripTheBreaker) {
  FailingSource failing;
  CircuitBreakerOptions breaker_options;
  breaker_options.failure_threshold = 2;
  CircuitBreaker breaker(breaker_options);
  ResilienceOptions resilience;
  resilience.retry.max_attempts = 1;
  ResilientTextSource resilient(&failing, resilience, &breaker);
  HedgeController controller(ForceHedgeOptions());
  HedgedTextSource hedged(&resilient, &controller);

  TextQueryPtr query = TextQuery::Term("title", "belief");
  // One hedged operation makes TWO failing upstream calls (primary and
  // duplicate), but only the primary records a breaker outcome: one slow
  // or failing remote must not be tripped twice for one logical operation.
  EXPECT_FALSE(hedged.Search(*query).ok());
  hedged.Quiesce();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);

  // The second logical failure is the threshold-th and trips it.
  EXPECT_FALSE(hedged.Search(*query).ok());
  hedged.Quiesce();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 1u);
}

// ---------------------------------------------------------------------------
// Retry backoff vs the per-operation deadline (the budget-clamp fix)

TEST(BackoffBudgetTest, BackoffNeverSleepsPastTheDeadline) {
  FailingSource failing;
  FakeClock clock;
  ResilienceOptions options;
  options.retry.max_attempts = 50;
  options.retry.initial_backoff = std::chrono::microseconds(3000);
  options.retry.max_backoff = std::chrono::microseconds(8000);
  options.search_deadline = std::chrono::microseconds(10000);
  options.enable_breaker = false;
  options.sleeper = clock.sink();  // Backoff advances the virtual clock.
  options.clock = clock.clock();
  ResilientTextSource resilient(&failing, options);

  TextQueryPtr query = TextQuery::Term("title", "belief");
  const auto start = clock.Now();
  auto result = resilient.Search(*query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  // The budget bounds the whole operation: backoff sleeps are clamped to
  // the remaining deadline, so total elapsed never exceeds it — and the
  // retry loop gave up on budget exhaustion long before max_attempts.
  EXPECT_LE(clock.Now() - start, std::chrono::microseconds(10000));
  EXPECT_GE(failing.calls(), 2u);
  EXPECT_LT(failing.calls(), 50u);
  EXPECT_EQ(resilient.stats().exhausted, 1u);
}

// ---------------------------------------------------------------------------
// Scheduler-level load shedding (shed honesty: complete == false iff shed)

TEST(SchedulerShedTest, ShedsEveryOperationPastTheDeadline) {
  auto engine = MakeSmallEngine();
  RemoteTextSource source(engine.get());
  FakeClock clock;
  AtomicDegradation sink;
  FaultPolicy policy;
  policy.mode = FailureMode::kBestEffort;
  policy.degradation = &sink;
  StageScheduler sched(nullptr, source, policy);
  sched.SetDeadline(clock.Now(), clock.clock());
  clock.Advance(std::chrono::milliseconds(1));

  auto search_stage = sched.AddStage({StageKind::kSearchDispatch, "s"});
  auto fetch_stage = sched.AddStage({StageKind::kFetch, "f"});
  TextQueryPtr query = TextQuery::Term("title", "belief");
  auto search = sched.Search(search_stage, *query);
  ASSERT_FALSE(search.ok());
  EXPECT_EQ(search.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(sched.Fetch(fetch_stage, "d1").ok());
  EXPECT_EQ(sched.shed_operations(), 2u);

  // Shed operations never touch the source (that is the point of
  // shedding), and the report is honest: incomplete, with the shed count.
  EXPECT_EQ(source.meter().invocations, 0u);
  const DegradationReport report = sink.Snapshot();
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.shed_operations, 2u);
}

TEST(SchedulerShedTest, GenerousDeadlineShedsNothing) {
  auto engine = MakeSmallEngine();
  RemoteTextSource source(engine.get());
  FakeClock clock;
  AtomicDegradation sink;
  FaultPolicy policy;
  policy.mode = FailureMode::kBestEffort;
  policy.degradation = &sink;
  StageScheduler sched(nullptr, source, policy);
  sched.SetDeadline(clock.Now() + std::chrono::hours(1), clock.clock());

  auto stage = sched.AddStage({StageKind::kSearchDispatch, "s"});
  TextQueryPtr query = TextQuery::Term("title", "belief");
  ASSERT_TRUE(sched.Search(stage, *query).ok());
  EXPECT_EQ(sched.shed_operations(), 0u);
  const DegradationReport report = sink.Snapshot();
  EXPECT_TRUE(report.complete);  // complete == false IFF something shed.
  EXPECT_EQ(report.shed_operations, 0u);
}

// ---------------------------------------------------------------------------
// Executor integration: deadline plumbed through, EXPLAIN ANALYZE line

class ExecutorOverloadTest : public ::testing::Test {
 protected:
  ExecutorOverloadTest() : engine_(MakeSmallEngine()), source_(engine_.get()) {
    TEXTJOIN_CHECK(catalog_.AddTable(MakeStudentTable()).ok(), "table");
    auto query = ParseQuery(
        "select student.name, mercury.docid from student, mercury "
        "where 'belief' in mercury.title and student.name in mercury.author",
        MercuryDecl());
    TEXTJOIN_CHECK(query.ok(), "%s", query.status().ToString().c_str());
    query_ = std::move(*query);
    TEXTJOIN_CHECK(
        ComputeExactStats(query_, catalog_, *engine_, registry_).ok(),
        "stats");
    Enumerator enumerator(&catalog_, &registry_, engine_->num_documents(),
                          engine_->max_search_terms(), EnumeratorOptions{});
    auto plan = enumerator.Optimize(query_);
    TEXTJOIN_CHECK(plan.ok(), "%s", plan.status().ToString().c_str());
    plan_ = std::move(*plan);
  }

  std::unique_ptr<TextEngine> engine_;
  RemoteTextSource source_;
  Catalog catalog_;
  FederatedQuery query_;
  StatsRegistry registry_;
  PlanNodePtr plan_;
};

TEST_F(ExecutorOverloadTest, CleanRunRendersNoOverloadLine) {
  PlanExecutor executor(&catalog_, &source_);
  ExecutionProfile profile;
  ASSERT_TRUE(executor.Execute(*plan_, query_, &profile).ok());
  EXPECT_TRUE(profile.overload.empty());
  const std::string text = ExplainAnalyze(*plan_, query_, profile);
  // Overload-off rendering is byte-identical to before the layer existed.
  EXPECT_EQ(text.find("| overload"), std::string::npos) << text;
}

TEST_F(ExecutorOverloadTest, ExpiredDeadlineShedsAndRendersOverloadLine) {
  FakeClock clock;
  ExecutorOptions options;
  options.failure_mode = FailureMode::kBestEffort;
  options.deadline = clock.Now();
  options.clock = clock.clock();
  clock.Advance(std::chrono::milliseconds(1));
  PlanExecutor executor(&catalog_, &source_, options);
  ExecutionProfile profile;
  DegradationReport degradation;
  auto result = executor.Execute(*plan_, query_, &profile, &degradation);
  ASSERT_TRUE(result.ok());  // Best-effort absorbs the sheds.
  EXPECT_GT(profile.overload.shed_operations, 0u);
  EXPECT_FALSE(degradation.complete);
  EXPECT_EQ(source_.meter().invocations, 0u);  // Nothing reached the source.
  const std::string text = ExplainAnalyze(*plan_, query_, profile);
  EXPECT_NE(text.find("| overload"), std::string::npos) << text;
  EXPECT_NE(text.find("shed="), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Admission control

TEST(AdmissionTest, FastPathQueueFullAndSlotReuse) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 0;
  AdmissionController admission(options);

  auto first = admission.Admit(0.0, AdmissionController::TimePoint::max(), 0);
  ASSERT_TRUE(first.ok());
  auto second = admission.Admit(0.0, AdmissionController::TimePoint::max(), 0);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);

  *first = AdmissionTicket{};  // Release the slot.
  auto third = admission.Admit(0.0, AdmissionController::TimePoint::max(), 0);
  EXPECT_TRUE(third.ok());
  const AdmissionStats stats = admission.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed_queue_full, 1u);
}

TEST(AdmissionTest, ShedsOnPassedDeadlineAndUncoverableCost) {
  FakeClock clock;
  AdmissionOptions options;
  options.cost_scale = 1.0;
  options.clock = clock.clock();
  AdmissionController admission(options);

  const auto passed = clock.Now();
  clock.Advance(std::chrono::milliseconds(1));
  auto late = admission.Admit(0.0, passed, 0);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);

  // 10 estimated seconds cannot fit in a 1-second remaining deadline.
  auto uncoverable =
      admission.Admit(10.0, clock.Now() + std::chrono::seconds(1), 0);
  ASSERT_FALSE(uncoverable.ok());
  EXPECT_EQ(uncoverable.status().code(), StatusCode::kDeadlineExceeded);

  // The same cost with deadline headroom is admitted.
  auto covered =
      admission.Admit(10.0, clock.Now() + std::chrono::seconds(60), 0);
  EXPECT_TRUE(covered.ok());
  EXPECT_EQ(admission.stats().shed_deadline, 2u);
}

TEST(AdmissionTest, QueueAdmitsByPriorityThenArrival) {
  FakeClock clock;
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 8;
  options.clock = clock.clock();
  AdmissionController admission(options);

  auto holder = admission.Admit(0.0, AdmissionController::TimePoint::max(), 0);
  ASSERT_TRUE(holder.ok());

  std::mutex order_mu;
  std::vector<std::string> order;
  auto waiter = [&](const char* label, int priority) {
    auto ticket =
        admission.Admit(0.0, AdmissionController::TimePoint::max(), priority);
    ASSERT_TRUE(ticket.ok()) << label;
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(label);
  };
  // Low priority arrives FIRST but the high-priority arrival overtakes it.
  std::thread low(waiter, "low", 1);
  while (admission.stats().waits < 1) std::this_thread::yield();
  std::thread high(waiter, "high", 5);
  while (admission.stats().waits < 2) std::this_thread::yield();

  *holder = AdmissionTicket{};  // Free the slot; the queue drains in order.
  high.join();
  low.join();
  EXPECT_EQ(order, (std::vector<std::string>{"high", "low"}));
  const AdmissionStats stats = admission.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.max_queue_depth, 2u);
  EXPECT_EQ(stats.max_running, 1u);
}

TEST(AdmissionTest, QueuedWaiterIsShedWhenItsDeadlineExpires) {
  FakeClock clock;
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 8;
  options.clock = clock.clock();
  AdmissionController admission(options);

  auto holder = admission.Admit(0.0, AdmissionController::TimePoint::max(), 0);
  ASSERT_TRUE(holder.ok());

  Status shed = Status::OK();
  std::thread queued([&] {
    auto ticket =
        admission.Admit(0.0, clock.Now() + std::chrono::milliseconds(10), 0);
    shed = ticket.status();
  });
  while (admission.stats().waits < 1) std::this_thread::yield();
  clock.Advance(std::chrono::milliseconds(20));
  admission.Poke();  // Virtual clocks cannot wake timed waits themselves.
  queued.join();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(admission.stats().shed_deadline, 1u);
}

// ---------------------------------------------------------------------------
// Multi-tenant admission: quotas and weighted-fair dequeue (DESIGN.md §15).
// All deterministic: fake clock, spin-waits on the controller's own
// counters, no sleeps.

constexpr auto kForever = AdmissionController::TimePoint::max();

TEST(AdmissionTenantTest, MaxRunningCapQueuesDespiteFreeSlots) {
  FakeClock clock;
  AdmissionOptions options;
  options.max_concurrent = 4;
  options.max_queue = 8;
  options.tenant_quotas["capped"].max_running = 1;
  options.clock = clock.clock();
  AdmissionController admission(options);

  auto first = admission.Admit(0.0, kForever, 0, CancelToken(), "capped");
  ASSERT_TRUE(first.ok());

  // Three slots are FREE, but the tenant is at its cap: the second query
  // queues — the spare slots belong to the other tenants.
  std::atomic<bool> second_admitted{false};
  std::thread second([&] {
    auto ticket = admission.Admit(0.0, kForever, 0, CancelToken(), "capped");
    ASSERT_TRUE(ticket.ok());
    second_admitted.store(true);
  });
  while (admission.stats().waits < 1) std::this_thread::yield();
  EXPECT_FALSE(second_admitted.load());
  EXPECT_EQ(admission.stats().tenants.at("capped").queued, 1u);

  // ... and another tenant sails straight through the free slots.
  auto other = admission.Admit(0.0, kForever, 0, CancelToken(), "other");
  ASSERT_TRUE(other.ok());

  *first = AdmissionTicket{};  // Drop to the cap: the queued query admits.
  second.join();
  EXPECT_TRUE(second_admitted.load());
  const AdmissionStats stats = admission.stats();
  EXPECT_EQ(stats.tenants.at("capped").admitted, 2u);
  EXPECT_EQ(stats.tenants.at("capped").waits, 1u);
  EXPECT_EQ(stats.tenants.at("other").waits, 0u);
}

TEST(AdmissionTenantTest, MaxQueuedShedsTheTenantNotTheNeighbor) {
  FakeClock clock;
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 8;
  options.default_quota.max_queued = 1;
  options.clock = clock.clock();
  AdmissionController admission(options);

  auto holder = admission.Admit(0.0, kForever, 0, CancelToken(), "noisy");
  ASSERT_TRUE(holder.ok());

  std::thread queued([&] {
    auto ticket = admission.Admit(0.0, kForever, 0, CancelToken(), "noisy");
    ASSERT_TRUE(ticket.ok());
  });
  while (admission.stats().waits < 1) std::this_thread::yield();

  // The tenant's queue (depth 1) is full: its next arrival sheds at once,
  // long before the shared max_queue of 8 is reached...
  auto shed = admission.Admit(0.0, kForever, 0, CancelToken(), "noisy");
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  // ...while a different tenant still queues fine.
  std::thread neighbor([&] {
    auto ticket = admission.Admit(0.0, kForever, 0, CancelToken(), "quiet");
    ASSERT_TRUE(ticket.ok());
  });
  while (admission.stats().waits < 2) std::this_thread::yield();

  *holder = AdmissionTicket{};
  queued.join();
  neighbor.join();
  const AdmissionStats stats = admission.stats();
  EXPECT_EQ(stats.tenants.at("noisy").shed_queue_full, 1u);
  EXPECT_EQ(stats.tenants.at("quiet").shed_queue_full, 0u);
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.queued, 0u);
}

/// Queues `count` waiters for `tenant`; each admitted waiter records its
/// tenant in `order` and releases its slot immediately, so the queue
/// drains one deterministic dequeue at a time.
void QueueWaiters(AdmissionController& admission, const TenantId& tenant,
                  int count, std::mutex& order_mu,
                  std::vector<TenantId>& order,
                  std::vector<std::thread>& threads) {
  for (int i = 0; i < count; ++i) {
    threads.emplace_back([&admission, tenant, &order_mu, &order] {
      auto ticket = admission.Admit(0.0, kForever, 0, CancelToken(), tenant);
      ASSERT_TRUE(ticket.ok());
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tenant);
    });
    // Serialize enqueue so within-tenant arrival order is fixed.
    const uint64_t target = order.size() + threads.size();
    while (admission.stats().waits < target) std::this_thread::yield();
  }
}

TEST(AdmissionTenantTest, WeightedFairDequeueDrainsProportionally) {
  FakeClock clock;
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 16;
  options.tenant_quotas["heavy"].weight = 2.0;
  options.tenant_quotas["light"].weight = 1.0;
  options.clock = clock.clock();
  AdmissionController admission(options);

  // The initial slot holder is a THIRD tenant, so heavy and light both
  // start at virtual time zero and the drain order below is exact.
  auto holder = admission.Admit(0.0, kForever, 0, CancelToken(), "warm");
  ASSERT_TRUE(holder.ok());

  std::mutex order_mu;
  std::vector<TenantId> order;
  std::vector<std::thread> threads;
  QueueWaiters(admission, "heavy", 6, order_mu, order, threads);
  QueueWaiters(admission, "light", 6, order_mu, order, threads);

  *holder = AdmissionTicket{};  // Drain: one unit-charge admit at a time.
  for (std::thread& t : threads) t.join();

  // Stride scheduling with weights 2:1 interleaves H L H H L H ... — every
  // prefix holds twice as many heavy admits as light ones (±1 stride).
  ASSERT_EQ(order.size(), 12u);
  for (size_t prefix : {3u, 6u, 9u}) {
    const size_t heavy = static_cast<size_t>(
        std::count(order.begin(), order.begin() + prefix, "heavy"));
    EXPECT_EQ(heavy, prefix * 2 / 3) << "after " << prefix << " admits";
  }
  const AdmissionStats stats = admission.stats();
  EXPECT_EQ(stats.tenants.at("heavy").admitted, 6u);
  EXPECT_EQ(stats.tenants.at("light").admitted, 6u);
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.queued, 0u);
}

TEST(AdmissionTenantTest, GreedyTenantCannotStarveAQuietArrival) {
  FakeClock clock;
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 16;
  options.clock = clock.clock();
  AdmissionController admission(options);

  auto holder = admission.Admit(0.0, kForever, 0, CancelToken(), "greedy");
  ASSERT_TRUE(holder.ok());

  // Eight greedy queries are already queued when the quiet tenant's ONE
  // query arrives. FIFO would serve it ninth; weighted-fair (equal
  // weights) serves it by the second dequeue — the greedy tenant's pass
  // advances with every admit while the quiet newcomer starts at the
  // global virtual time.
  std::mutex order_mu;
  std::vector<TenantId> order;
  std::vector<std::thread> threads;
  QueueWaiters(admission, "greedy", 8, order_mu, order, threads);
  QueueWaiters(admission, "quiet", 1, order_mu, order, threads);

  *holder = AdmissionTicket{};
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(order.size(), 9u);
  const auto quiet_at =
      std::find(order.begin(), order.end(), "quiet") - order.begin();
  EXPECT_LE(quiet_at, 1) << "quiet tenant waited behind the greedy flood";
  // Idle tenants bank no credit: the quiet tenant's single admit, charged
  // at the then-current virtual time, does not entitle it to anything
  // later — all remaining admits are the greedy tenant's.
  EXPECT_EQ(order.back(), "greedy");
}

// ---------------------------------------------------------------------------
// Byte identity through the whole overload chain
//
// All six methods at parallelism {1, 4, 8}, with and without 4x background
// load on the shared limiter, under content-keyed chaos failures: rows,
// main-meter totals, and the degradation account must be byte-identical to
// a serial run without any overload decorator. Hedge losers charge the
// waste meter; limiter queueing changes only wall-clock time.

struct MethodCase {
  JoinMethodKind method;
  PredicateMask mask;
};

struct RunOutput {
  std::vector<std::string> rows;
  AccessMeter meter;
  DegradationReport degradation;
  bool ok = false;
};

class OverloadByteIdentityTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(OverloadByteIdentityTest, ChainPreservesRowsAndMeter) {
  const auto& [parallelism, background_load] = GetParam();
  const std::vector<MethodCase> cases = {
      {JoinMethodKind::kTS, 0},     {JoinMethodKind::kRTP, 0},
      {JoinMethodKind::kSJ, 0},     {JoinMethodKind::kSJRTP, 0},
      {JoinMethodKind::kPTS, 0b01}, {JoinMethodKind::kPRTP, 0b10},
  };
  auto engine = MakeSmallEngine();
  auto table = MakeStudentTable();

  auto make_spec = [&](const MethodCase& mc) {
    ForeignJoinSpec spec;
    spec.left_schema = table->schema();
    spec.text = MercuryDecl();
    spec.selections = {{"belief", "title"}};
    spec.joins = {{"student.name", "author"}, {"student.advisor", "author"}};
    if (mc.method == JoinMethodKind::kSJ) {
      spec.left_columns_needed = false;
      spec.need_document_fields = false;
    }
    return spec;
  };
  ChaosOptions chaos_options;
  chaos_options.seed = 23;
  chaos_options.content_keyed = true;
  chaos_options.search_failure_rate = 0.25;
  chaos_options.fetch_failure_rate = 0.25;
  ResilienceOptions resilience_options;
  resilience_options.retry.max_attempts = 2;
  resilience_options.enable_breaker = false;
  resilience_options.sleeper = [](std::chrono::microseconds) {};

  // The reference: serial, no overload decorators — just chaos+retries.
  auto run_plain = [&](const MethodCase& mc) {
    RemoteTextSource metered(engine.get());
    ChaosTextSource flaky(&metered, chaos_options);
    ResilientTextSource resilient(&flaky, resilience_options);
    AtomicDegradation sink;
    FaultPolicy policy;
    policy.mode = FailureMode::kBestEffort;
    policy.degradation = &sink;
    auto result = ExecuteForeignJoin(mc.method, make_spec(mc), table->rows(),
                                     resilient, mc.mask, nullptr, policy);
    RunOutput out;
    out.ok = result.ok();
    if (result.ok()) {
      for (const Row& row : result->rows) out.rows.push_back(RowToString(row));
    }
    out.meter = metered.meter();
    out.degradation = sink.Snapshot();
    return out;
  };

  // The measured run: the full chain hedged(limited(resilient(chaos))),
  // force-hedged, optionally with 4 background threads contending for the
  // same limiter — the 4x-offered-load leg.
  auto run_overloaded = [&](const MethodCase& mc, int par) {
    RemoteTextSource metered(engine.get());
    ChaosTextSource flaky(&metered, chaos_options);
    ResilientTextSource resilient(&flaky, resilience_options);
    AdaptiveLimiterOptions limiter_options;
    limiter_options.initial_limit = 4;
    limiter_options.max_limit = 8;
    AdaptiveLimiter limiter(limiter_options);
    HedgeController controller(ForceHedgeOptions());
    LimitedTextSource limited(&resilient, &limiter);
    HedgedTextSource hedged(&limited, &controller, &limiter);

    std::atomic<bool> stop{false};
    std::vector<std::thread> load;
    RemoteTextSource load_remote(engine.get());
    if (background_load) {
      for (int i = 0; i < 4; ++i) {
        load.emplace_back([&] {
          LimitedTextSource bg(&load_remote, &limiter);
          TextQueryPtr probe = TextQuery::Term("title", "text");
          while (!stop.load(std::memory_order_relaxed)) {
            bg.Search(*probe).status();
          }
        });
      }
    }

    AtomicDegradation sink;
    FaultPolicy policy;
    policy.mode = FailureMode::kBestEffort;
    policy.degradation = &sink;
    std::unique_ptr<ThreadPool> pool;
    if (par > 1) pool = std::make_unique<ThreadPool>(par - 1);
    auto result = ExecuteForeignJoin(mc.method, make_spec(mc), table->rows(),
                                     hedged, mc.mask, pool.get(), policy);
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : load) t.join();
    hedged.Quiesce();

    RunOutput out;
    out.ok = result.ok();
    if (result.ok()) {
      for (const Row& row : result->rows) out.rows.push_back(RowToString(row));
    }
    out.meter = metered.meter();
    out.degradation = sink.Snapshot();
    return out;
  };

  for (const MethodCase& mc : cases) {
    const RunOutput plain = run_plain(mc);
    const RunOutput overloaded = run_overloaded(mc, parallelism);
    const std::string label = std::string(JoinMethodName(mc.method)) +
                              " par=" + std::to_string(parallelism) +
                              (background_load ? " loaded" : "");
    ASSERT_EQ(overloaded.ok, plain.ok) << label;
    EXPECT_EQ(overloaded.rows, plain.rows) << label;
    EXPECT_EQ(overloaded.meter, plain.meter)
        << label << "\n  overloaded: " << overloaded.meter.ToString()
        << "\n  plain:      " << plain.meter.ToString();
    EXPECT_EQ(overloaded.degradation.complete, plain.degradation.complete)
        << label;
    EXPECT_EQ(overloaded.degradation.skipped_operations,
              plain.degradation.skipped_operations)
        << label;
    EXPECT_EQ(overloaded.degradation.skipped_batches,
              plain.degradation.skipped_batches)
        << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, OverloadByteIdentityTest,
                         ::testing::Combine(::testing::Values(1, 4, 8),
                                            ::testing::Bool()));

// ---------------------------------------------------------------------------
// Service-level: admission under 4x offered load

TEST(ServiceOverloadTest, AdmissionBoundsTheQueueAndShedsHonestly) {
  auto engine = MakeSmallEngine();
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  const std::string sql =
      "select student.name, mercury.docid from student, mercury "
      "where 'belief' in mercury.title and student.name in mercury.author";

  FederationService::Options options;
  options.text = MercuryDecl();
  options.admission_control.emplace();
  options.admission_control->max_concurrent = 2;
  options.admission_control->max_queue = 4;
  // Real per-operation latency so executions overlap and the queue fills.
  options.execution_source_decorator = [](TextSource* inner) {
    ChaosOptions chaos;
    chaos.search_latency = std::chrono::microseconds(2000);
    chaos.fetch_latency = std::chrono::microseconds(1000);
    return std::make_unique<ChaosTextSource>(inner, chaos);
  };
  FederationService service(&catalog, engine.get(), options);

  // The unloaded reference answer.
  auto reference = service.Run(sql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  std::vector<std::string> expected;
  for (const Row& row : reference->rows.rows) {
    expected.push_back(RowToString(row));
  }

  // 16 concurrent queries against 2 slots + 4 queue spots: ~4x capacity.
  constexpr int kOffered = 16;
  std::atomic<int> admitted_ok{0};
  std::atomic<int> shed{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  clients.reserve(kOffered);
  for (int i = 0; i < kOffered; ++i) {
    clients.emplace_back([&] {
      auto outcome = service.Run(sql);
      if (!outcome.ok()) {
        if (outcome.status().code() == StatusCode::kUnavailable) {
          shed.fetch_add(1);
        } else {
          wrong.fetch_add(1);
        }
        return;
      }
      std::vector<std::string> rows;
      for (const Row& row : outcome->rows.rows) {
        rows.push_back(RowToString(row));
      }
      if (rows == expected && outcome->degradation.complete) {
        admitted_ok.fetch_add(1);
      } else {
        wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Every query either produced the exact answer or was shed honestly —
  // never a wrong or silently-degraded result.
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(admitted_ok.load() + shed.load(), kOffered);
  EXPECT_GT(admitted_ok.load(), 0);

  const AdmissionStats stats = service.admission()->stats();
  EXPECT_LE(stats.max_queue_depth, 4u);  // The queue stayed bounded.
  EXPECT_LE(stats.max_running, 2u);      // So did the execution slots.
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(admitted_ok.load() + 1));
  EXPECT_EQ(stats.shed_queue_full, static_cast<uint64_t>(shed.load()));
}

TEST(ServiceOverloadTest, OverloadActivityReachesOutcomeAndDefaultsEmpty) {
  auto engine = MakeSmallEngine();
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  const std::string sql =
      "select student.name, mercury.docid from student, mercury "
      "where 'belief' in mercury.title and student.name in mercury.author";

  // Overload layer off: the activity account stays empty.
  {
    FederationService::Options options;
    options.text = MercuryDecl();
    FederationService service(&catalog, engine.get(), options);
    auto outcome = service.Run(sql);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->profile.overload.empty());
  }

  // Hedging + limiter on, force-hedged: the outcome carries the races and
  // their waste while meter_delta stays byte-identical to the plain run.
  FederationService::Options options;
  options.text = MercuryDecl();
  options.chain.limiter.emplace();
  options.chain.hedging = ForceHedgeOptions();
  FederationService service(&catalog, engine.get(), options);
  auto outcome = service.Run(sql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GT(outcome->profile.overload.limit, 0);

  FederationService::Options plain_options;
  plain_options.text = MercuryDecl();
  FederationService plain(&catalog, engine.get(), plain_options);
  auto baseline = plain.Run(sql);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(outcome->rows.rows.size(), baseline->rows.rows.size());
  EXPECT_EQ(outcome->meter_delta, baseline->meter_delta)
      << "  hedged: " << outcome->meter_delta.ToString()
      << "\n  plain:  " << baseline->meter_delta.ToString();
}

TEST(ServiceOverloadTest, DeadlineShedsMidQueryWithHonestReport) {
  auto engine = MakeSmallEngine();
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  const std::string sql =
      "select student.name, mercury.docid from student, mercury "
      "where 'belief' in mercury.title and student.name in mercury.author";

  // Virtual time: each source operation "takes" 1ms against a 500us query
  // deadline, so the first operation exhausts the budget and the rest of
  // the query is shed — deterministically, with no wall-clock sleeps.
  auto clock = std::make_shared<FakeClock>();
  FederationService::Options options;
  options.text = MercuryDecl();
  options.failure_mode = FailureMode::kBestEffort;
  options.deadline_clock = clock->clock();  // THE query-deadline clock.
  options.default_deadline = std::chrono::microseconds(500);
  options.execution_source_decorator = [clock](TextSource* inner) {
    ChaosOptions chaos;
    chaos.search_latency = std::chrono::microseconds(1000);
    chaos.fetch_latency = std::chrono::microseconds(1000);
    chaos.latency_sink = clock->sink();
    return std::make_unique<ChaosTextSource>(inner, chaos);
  };
  FederationService service(&catalog, engine.get(), options);

  auto outcome = service.Run(sql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GT(outcome->profile.overload.shed_operations, 0u);
  EXPECT_EQ(outcome->degradation.shed_operations,
            outcome->profile.overload.shed_operations);
  EXPECT_FALSE(outcome->degradation.complete);

  // A per-call override can lift the default deadline entirely.
  FederationService::RunOptions generous;
  generous.deadline = std::chrono::hours(1);
  auto unshed = service.Run(sql, generous);
  ASSERT_TRUE(unshed.ok()) << unshed.status().ToString();
  EXPECT_EQ(unshed->profile.overload.shed_operations, 0u);
  EXPECT_TRUE(unshed->degradation.complete);
}

// An admission queue without a clock of its own runs on the service's
// deadline_clock, so admission and execution judge one deadline on one
// clock. The fake clock sits at 0 and the query consumes no virtual time,
// so a 1 s budget is generous; read on steady_clock (machine uptime) the
// same deadline would already have passed and admission would shed the
// query with kDeadlineExceeded.
TEST(ServiceOverloadTest, AdmissionRunsOnTheDeadlineClock) {
  auto engine = MakeSmallEngine();
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  const std::string sql =
      "select student.name, mercury.docid from student, mercury "
      "where 'belief' in mercury.title and student.name in mercury.author";

  auto clock = std::make_shared<FakeClock>();
  FederationService::Options options;
  options.text = MercuryDecl();
  options.admission_control.emplace();  // No AdmissionOptions::clock.
  options.deadline_clock = clock->clock();
  FederationService service(&catalog, engine.get(), options);

  FederationService::RunOptions run;
  run.deadline = std::chrono::seconds(1);
  auto outcome = service.Run(sql, run);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->degradation.complete);
  EXPECT_FALSE(outcome->rows.rows.empty());
  const AdmissionStats stats = service.admission()->stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.shed_deadline, 0u);
}

// ---------------------------------------------------------------------------
// Concurrency stress (run under TSan by scripts/check.sh's thread leg):
// many threads hammer one shared hedged+limited chain, force-hedged, and
// the main meter still lands on exactly the serial figure.

TEST(OverloadStressTest, SharedChainUnderConcurrencyKeepsMeterIdentity) {
  auto engine = MakeSmallEngine();
  RemoteTextSource metered(engine.get());
  AdaptiveLimiterOptions limiter_options;
  limiter_options.initial_limit = 4;
  limiter_options.max_limit = 8;
  AdaptiveLimiter limiter(limiter_options);
  HedgeController controller(ForceHedgeOptions(/*pool_threads=*/4));
  LimitedTextSource limited(&metered, &limiter);
  HedgedTextSource hedged(&limited, &controller, &limiter);

  constexpr int kThreads = 8;
  constexpr int kIterations = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      TextQueryPtr query = TextQuery::Term("title", "belief");
      for (int i = 0; i < kIterations; ++i) {
        auto search = hedged.Search(*query);
        if (!search.ok() || search->size() != 2) failures.fetch_add(1);
        auto fetch = hedged.Fetch("d1");
        if (!fetch.ok() || fetch->docid != "d1") failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  hedged.Quiesce();
  EXPECT_EQ(failures.load(), 0);

  // Serial reference: the identical multiset of operations, unhedged.
  RemoteTextSource baseline(engine.get());
  TextQueryPtr query = TextQuery::Term("title", "belief");
  for (int i = 0; i < kThreads * kIterations; ++i) {
    ASSERT_TRUE(baseline.Search(*query).ok());
    ASSERT_TRUE(baseline.Fetch("d1").ok());
  }
  EXPECT_EQ(metered.meter(), baseline.meter())
      << "  stressed: " << metered.meter().ToString()
      << "\n  serial:   " << baseline.meter().ToString();

  const AdaptiveLimiterStats stats = limiter.stats();
  EXPECT_EQ(stats.in_flight, 0);  // Every permit returned.
  EXPECT_LE(stats.limit, limiter_options.max_limit);
  EXPECT_GE(stats.limit, limiter_options.min_limit);
}

}  // namespace
}  // namespace textjoin
