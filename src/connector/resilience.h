#ifndef TEXTJOIN_CONNECTOR_RESILIENCE_H_
#define TEXTJOIN_CONNECTOR_RESILIENCE_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "connector/text_source.h"

/// \file
/// Fault tolerance at the loose-integration boundary (DESIGN.md, "Failure
/// model & graceful degradation"). The paper's external text server is
/// reached over a network; in production it times out, flakes and
/// rate-limits. This layer keeps federated queries alive through that:
///
///  - ResilientTextSource: per-operation deadlines, error-classified
///    retries with decorrelated-jitter backoff, and a circuit breaker that
///    fails fast while the remote is down;
///  - FailureMode / DegradationReport: how the executor reacts to
///    operations that still fail after the resilience layer gave up, and
///    the honest account of what was skipped.

namespace textjoin {

// ---------------------------------------------------------------------------
// Error taxonomy

/// True for errors worth retrying: the same request may succeed on a later
/// attempt (server hiccup, transient overload, broken connection, blown
/// deadline). Permanent errors — malformed query (InvalidArgument), term
/// limit exceeded (ResourceExhausted), missing docid (NotFound) — would
/// fail identically on every attempt and are never retried, and they say
/// nothing about server health so they never trip the breaker.
bool IsTransientError(StatusCode code);

// ---------------------------------------------------------------------------
// Failure modes & degradation accounting

/// What a query execution does when a text-source operation fails even
/// after the resilience layer (if any) exhausted its retries.
enum class FailureMode {
  kFailFast,       ///< Propagate the first failure; abort the query.
  kRetryThenFail,  ///< Method-level recovery (SJ re-splits failed
                   ///< OR-batches down to per-tuple searches); abort only
                   ///< when recovery fails too.
  kBestEffort,     ///< Skip the failed unit of work, keep going, and report
                   ///< the loss in the DegradationReport.
};

/// "FailFast", "RetryThenFail", "BestEffort".
const char* FailureModeName(FailureMode mode);

/// The degradation account of one query execution: what the resilience
/// layer absorbed and what best-effort execution skipped. `complete` is the
/// headline: when true, the rows are exactly what a fault-free execution
/// would have produced (retries may still have been spent getting there);
/// when false, the rows are a subset and the skip counters say why.
struct DegradationReport {
  uint64_t retries = 0;             ///< Operation-level retry attempts.
  uint64_t deadline_hits = 0;       ///< Attempts discarded as too slow.
  uint64_t breaker_opens = 0;       ///< Times the circuit breaker tripped.
  uint64_t breaker_rejections = 0;  ///< Calls failed fast while open.
  uint64_t batch_resplits = 0;      ///< SJ OR-batches split after failure.
  uint64_t skipped_batches = 0;     ///< Semi-join disjuncts dropped.
  uint64_t skipped_operations = 0;  ///< Searches/fetches dropped.
  uint64_t shed_operations = 0;     ///< Ops shed past the query deadline.
  uint64_t cancelled_operations = 0;  ///< Ops abandoned on cancellation.
  bool complete = true;             ///< Rows equal the fault-free answer.

  /// True when anything at all deviated from a clean run.
  bool degraded() const {
    return !complete || retries != 0 || deadline_hits != 0 ||
           breaker_opens != 0 || breaker_rejections != 0 ||
           batch_resplits != 0 || skipped_batches != 0 ||
           skipped_operations != 0 || shed_operations != 0 ||
           cancelled_operations != 0;
  }

  DegradationReport& operator+=(const DegradationReport& other) {
    retries += other.retries;
    deadline_hits += other.deadline_hits;
    breaker_opens += other.breaker_opens;
    breaker_rejections += other.breaker_rejections;
    batch_resplits += other.batch_resplits;
    skipped_batches += other.skipped_batches;
    skipped_operations += other.skipped_operations;
    shed_operations += other.shed_operations;
    cancelled_operations += other.cancelled_operations;
    complete = complete && other.complete;
    return *this;
  }

  /// Renders "complete retries=2 resplits=0 ..." for logs and benches.
  std::string ToString() const;
};

/// Concurrency-safe degradation sink, charged from parallel join-method
/// loops the same way AtomicAccessMeter is charged: relaxed atomics,
/// commutative sums, snapshot after the loops join.
class AtomicDegradation {
 public:
  void RecordSkippedOperation(uint64_t n = 1) {
    skipped_operations_.fetch_add(n, std::memory_order_relaxed);
  }
  void RecordSkippedBatch(uint64_t disjuncts) {
    skipped_batches_.fetch_add(disjuncts, std::memory_order_relaxed);
  }
  void RecordResplit() {
    batch_resplits_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordShedOperation() {
    shed_operations_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordCancelledOperation() {
    cancelled_operations_.fetch_add(1, std::memory_order_relaxed);
  }
  void MarkIncomplete() {
    incomplete_.store(true, std::memory_order_relaxed);
  }

  DegradationReport Snapshot() const {
    DegradationReport report;
    report.batch_resplits = batch_resplits_.load(std::memory_order_relaxed);
    report.skipped_batches = skipped_batches_.load(std::memory_order_relaxed);
    report.skipped_operations =
        skipped_operations_.load(std::memory_order_relaxed);
    report.shed_operations = shed_operations_.load(std::memory_order_relaxed);
    report.cancelled_operations =
        cancelled_operations_.load(std::memory_order_relaxed);
    report.complete = !incomplete_.load(std::memory_order_relaxed);
    return report;
  }

 private:
  std::atomic<uint64_t> batch_resplits_{0};
  std::atomic<uint64_t> skipped_batches_{0};
  std::atomic<uint64_t> skipped_operations_{0};
  std::atomic<uint64_t> shed_operations_{0};
  std::atomic<uint64_t> cancelled_operations_{0};
  std::atomic<bool> incomplete_{false};
};

/// How a join method reacts to source failures, threaded from
/// ExecutorOptions through ExecuteForeignJoin into every method. The
/// default (fail-fast, no sink) reproduces the pre-resilience behavior
/// exactly.
struct FaultPolicy {
  FailureMode mode = FailureMode::kFailFast;
  AtomicDegradation* degradation = nullptr;  ///< Optional; may be null.

  bool best_effort() const { return mode == FailureMode::kBestEffort; }
  bool recovers() const { return mode != FailureMode::kFailFast; }

  /// Records one dropped operation; `affects_completeness` is false for
  /// advisory operations (probe-reducer probes, P+TS cache probes) whose
  /// loss never changes the answer.
  void NoteSkippedOperation(bool affects_completeness) const {
    if (degradation == nullptr) return;
    degradation->RecordSkippedOperation();
    if (affects_completeness) degradation->MarkIncomplete();
  }
  void NoteSkippedBatch(uint64_t disjuncts) const {
    if (degradation == nullptr) return;
    degradation->RecordSkippedBatch(disjuncts);
    degradation->MarkIncomplete();
  }
  void NoteResplit() const {
    if (degradation != nullptr) degradation->RecordResplit();
  }
  /// Records one operation shed past the query deadline. A shed always
  /// costs answer rows, so the report goes incomplete.
  void NoteShedOperation() const {
    if (degradation == nullptr) return;
    degradation->RecordShedOperation();
    degradation->MarkIncomplete();
  }
  /// Records one operation abandoned because the query was cancelled
  /// (client abort or shutdown — deadline expiry takes the shed path
  /// above). The query errors out with kCancelled rather than returning a
  /// torn row set, but the report stays honest about the work dropped.
  void NoteCancelledOperation() const {
    if (degradation == nullptr) return;
    degradation->RecordCancelledOperation();
    degradation->MarkIncomplete();
  }
};

// ---------------------------------------------------------------------------
// Circuit breaker

struct CircuitBreakerOptions {
  /// Consecutive transient failures that trip the breaker open.
  int failure_threshold = 5;
  /// How long the breaker stays open before admitting a half-open probe.
  std::chrono::milliseconds cooldown{100};
  /// Consecutive half-open successes required to close again.
  int half_open_successes = 1;
};

/// The classic closed -> open -> half-open state machine. While open, every
/// Allow() fails fast (no traffic reaches the struggling remote); after
/// `cooldown` one probe call is admitted, and its outcome decides between
/// closing and re-opening. Thread-safe; the clock is injectable so tests
/// drive the cooldown deterministically.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  using TimePoint = std::chrono::steady_clock::time_point;
  using Clock = std::function<TimePoint()>;

  /// A null `clock` uses std::chrono::steady_clock.
  explicit CircuitBreaker(CircuitBreakerOptions options = {},
                          Clock clock = nullptr);

  /// True if a call may proceed. Transitions open -> half-open once the
  /// cooldown has elapsed; in half-open, admits one probe at a time.
  bool Allow();

  /// Reports the outcome of an admitted call. Only transient failures
  /// should be recorded as failures (permanent errors say nothing about
  /// server health).
  void RecordSuccess();
  void RecordFailure();

  State state() const;
  /// How many times the breaker transitioned into kOpen (including
  /// re-opens from half-open).
  uint64_t times_opened() const;
  /// How many calls Allow() rejected while open.
  uint64_t rejections() const;

  /// "Closed", "Open" or "HalfOpen".
  static const char* StateName(State state);

 private:
  TimePoint Now() const;
  void TripLocked();  ///< Transition to open. Caller holds mu_.

  const CircuitBreakerOptions options_;
  const Clock clock_;

  mutable std::mutex mu_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  bool half_open_probe_in_flight_ = false;
  TimePoint opened_at_{};
  uint64_t times_opened_ = 0;
  uint64_t rejections_ = 0;
};

// ---------------------------------------------------------------------------
// Resilient source

/// Retry schedule for transient failures.
struct RetryPolicy {
  /// Total attempts per operation (1 = no retries).
  int max_attempts = 3;
  /// Decorrelated-jitter backoff between attempts (common/backoff.h).
  std::chrono::microseconds initial_backoff{500};
  std::chrono::microseconds max_backoff{50000};
  /// Seed for the jitter; the schedule of delays is deterministic given
  /// the seed and the sequence of operations.
  uint64_t jitter_seed = 42;
};

struct ResilienceOptions {
  RetryPolicy retry;

  bool enable_breaker = true;
  CircuitBreakerOptions breaker;

  /// Per-operation time budgets; 0 disables. The underlying call is
  /// synchronous, so the deadline is enforced post-hoc: an attempt that
  /// comes back too late is discarded (its meter charges stand — the
  /// traffic really happened) and treated as a transient DeadlineExceeded
  /// failure. Query-level cancellation is cooperative instead: the retry
  /// loop checks the ambient CancelToken before every attempt and the
  /// backoff sleeps are interruptible, so a cancelled query stops retrying
  /// a source nobody is waiting on.
  std::chrono::microseconds search_deadline{0};
  std::chrono::microseconds fetch_deadline{0};

  /// Test hook: how to sleep between retries. Null = real sleep.
  std::function<void(std::chrono::microseconds)> sleeper;
  /// Test hook: the breaker's clock. Null = steady_clock.
  CircuitBreaker::Clock clock;
};

/// Counters of everything the resilience layer did. Plain value snapshot.
struct ResilienceStats {
  uint64_t retries = 0;              ///< Re-attempts after a transient error.
  uint64_t exhausted = 0;            ///< Ops that failed every attempt.
  uint64_t deadline_hits = 0;        ///< Attempts discarded as too slow.
  uint64_t breaker_rejections = 0;   ///< Ops failed fast while open.
  uint64_t breaker_opens = 0;        ///< Times the breaker tripped.
};

/// The fault-tolerant decorator around any TextSource (paper boundary,
/// Section 2.3): deadlines, classified retries with seeded
/// decorrelated-jitter backoff, and a circuit breaker. Search/Fetch remain
/// const and safe to call concurrently. Retries re-issue the inner
/// operation, so their cost is charged to the inner source's AccessMeter —
/// the cost model stays honest about every round-trip actually spent.
class ResilientTextSource final : public TextSourceDecorator {
 public:
  /// `inner` must outlive this object. When `shared_breaker` is non-null it
  /// is used instead of an owned one (so one breaker can guard a remote
  /// across many per-query sources); it must outlive this object.
  explicit ResilientTextSource(TextSource* inner,
                               ResilienceOptions options = {},
                               CircuitBreaker* shared_breaker = nullptr);

  Result<std::vector<std::string>> Search(
      const TextQuery& query) const override;
  Result<Document> Fetch(const std::string& docid) const override;

  ResilienceStats stats() const;

  /// The breaker in use (owned or shared); null when disabled.
  CircuitBreaker* breaker() const { return breaker_; }

 private:
  template <typename T, typename Op>
  Result<T> WithRetries(std::chrono::microseconds deadline, const char* what,
                        const Op& op) const;

  void Sleep(std::chrono::microseconds delay) const;

  ResilienceOptions options_;
  std::unique_ptr<CircuitBreaker> owned_breaker_;
  CircuitBreaker* breaker_ = nullptr;

  mutable std::atomic<uint64_t> op_counter_{0};
  mutable std::atomic<uint64_t> retries_{0};
  mutable std::atomic<uint64_t> exhausted_{0};
  mutable std::atomic<uint64_t> deadline_hits_{0};
  mutable std::atomic<uint64_t> breaker_rejections_{0};
};

}  // namespace textjoin

#endif  // TEXTJOIN_CONNECTOR_RESILIENCE_H_
