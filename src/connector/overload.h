#ifndef TEXTJOIN_CONNECTOR_OVERLOAD_H_
#define TEXTJOIN_CONNECTOR_OVERLOAD_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "connector/cost_meter.h"
#include "connector/text_source.h"

/// \file
/// Overload protection at the loose-integration boundary (DESIGN.md,
/// "Overload, admission control & hedging"). The resilience layer
/// (connector/resilience.h) keeps a query alive against a FAULTY remote;
/// this layer keeps the whole federation healthy against an OVERLOADED
/// one — and against its own fan-out:
///
///  - AdaptiveLimiter / LimitedTextSource: a concurrency limit learned
///    from observed round-trip latency (AIMD: additive increase while the
///    source keeps up, multiplicative decrease when latency inflates or
///    transient failures appear). Callers beyond the limit BLOCK on a
///    condition variable — stage-scheduler units queue at the boundary
///    instead of piling more work onto a struggling source;
///  - HedgeController / HedgedTextSource: tail-latency hedging for the
///    idempotent Search/Fetch operations — when the primary call outlives
///    the learned latency percentile, a duplicate is issued against the
///    same backend and the first response wins. Loser charges are
///    diverted to a per-query waste meter (never the main meter), so the
///    byte-identity contract on meter totals survives hedging.
///
/// The FederationService composes these into its per-query decorator
/// chain as cache -> hedging -> limiter -> resilience -> meter.

namespace textjoin {

// SteadyClockFn (the injectable steady-clock read, same shape as
// CircuitBreaker::Clock; null always means steady_clock::now()) lives in
// common/cancel.h so cancellation deadlines share the same clock hook.

// ---------------------------------------------------------------------------
// Hedge-attempt scope
//
// A hedge duplicate re-issues an operation whose primary is still in
// flight. Layers below the hedging decorator must treat the duplicate as
// SHADOW traffic: RemoteTextSource charges the scope's waste meter instead
// of the main meter (meter totals stay byte-identical to unhedged
// execution), and ResilientTextSource skips breaker Record* calls (one
// slow remote must not be tripped twice for one logical operation). The
// scope is thread-local: a duplicate runs synchronously on one hedge-pool
// thread, so everything it calls beneath sees the scope.

/// True while the calling thread is executing a hedge duplicate.
bool InHedgeAttempt();

/// The waste meter of the enclosing hedge attempt, or null outside one.
AtomicAccessMeter* HedgeWasteMeter();

/// RAII: marks the current thread as running a hedge duplicate charging
/// `waste`. Nests (the previous scope is restored on destruction).
class HedgeAttemptScope {
 public:
  explicit HedgeAttemptScope(AtomicAccessMeter* waste);
  ~HedgeAttemptScope();
  HedgeAttemptScope(const HedgeAttemptScope&) = delete;
  HedgeAttemptScope& operator=(const HedgeAttemptScope&) = delete;

 private:
  AtomicAccessMeter* previous_;
};

// ---------------------------------------------------------------------------
// Adaptive concurrency limiter

struct AdaptiveLimiterOptions {
  int min_limit = 1;      ///< Floor; never below 1.
  int max_limit = 64;     ///< Ceiling.
  int initial_limit = 8;  ///< Starting concurrency (clamped to the range).

  /// RTT samples per adjustment decision.
  int window = 16;
  /// A window whose fastest sample exceeds tolerance x baseline (or that
  /// saw any transient failure) triggers a multiplicative decrease.
  double tolerance = 2.0;
  double decrease_factor = 0.8;

  /// Test hook: the clock LimitedTextSource measures round-trips with.
  SteadyClockFn clock;
};

/// Value snapshot of a limiter's state and lifetime counters.
struct AdaptiveLimiterStats {
  int limit = 0;             ///< Current effective concurrency limit.
  int in_flight = 0;         ///< Operations currently holding a permit.
  int waiters = 0;           ///< Threads currently blocked in Acquire.
  uint64_t acquires = 0;     ///< Permits granted in total.
  uint64_t waits = 0;        ///< Acquires that had to block first.
  uint64_t increases = 0;    ///< Additive limit increases.
  uint64_t decreases = 0;    ///< Multiplicative limit decreases.
  double baseline_ms = 0.0;  ///< Learned fast-path RTT baseline.
};

/// The AIMD concurrency controller, shared across the per-query
/// LimitedTextSource decorators of one service (like the service-wide
/// CircuitBreaker): one limit per remote, learned from every query's
/// round-trips. Thread-safe; the clock is injectable so tests drive RTT
/// observations deterministically.
class AdaptiveLimiter {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit AdaptiveLimiter(AdaptiveLimiterOptions options = {});

  /// Blocks until an in-flight permit is free. Returns true if it had to
  /// wait (the caller queued behind the limit). The wait is interruptible:
  /// when `token` is cancelled (or its real-clock deadline expires) the
  /// queued entry sheds immediately and the token's status comes back with
  /// NO permit held.
  Result<bool> Acquire(const CancelToken& token = CancelToken());

  /// Returns the permit and feeds the AIMD controller one sample.
  /// `transient_failure` should be true only for errors that say something
  /// about source health (IsTransientError) — permanent errors are the
  /// query's fault, not congestion.
  void Release(std::chrono::nanoseconds rtt, bool transient_failure);

  /// True when a duplicate could be issued without displacing demand:
  /// spare permits exist and nobody is queued. The hedging layer consults
  /// this before launching a duplicate.
  bool HasSpareCapacity() const;

  TimePoint Now() const;
  int limit() const;
  AdaptiveLimiterStats stats() const;

 private:
  int EffectiveLimitLocked() const;
  void RecordSampleLocked(std::chrono::nanoseconds rtt,
                          bool transient_failure);

  const AdaptiveLimiterOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  double limit_;  ///< Fractional; the effective limit is its floor.
  int in_flight_ = 0;
  int waiters_ = 0;

  // Current observation window.
  int window_count_ = 0;
  uint64_t window_min_ns_ = 0;
  bool window_failed_ = false;
  bool baseline_set_ = false;  ///< Until the first healthy window completes.
  double baseline_ns_ = 0.0;

  uint64_t acquires_ = 0;
  uint64_t waits_ = 0;
  uint64_t increases_ = 0;
  uint64_t decreases_ = 0;
};

/// Per-query traffic account of one LimitedTextSource.
struct LimiterActivity {
  uint64_t acquires = 0;  ///< Operations that took a permit.
  uint64_t waits = 0;     ///< Operations that queued for one.
};

/// The thin per-query decorator over the shared AdaptiveLimiter: every
/// Search/Fetch takes a permit (blocking when the learned limit is
/// reached), measures the round-trip on the limiter's clock, and feeds the
/// sample back. Search/Fetch remain const and concurrency-safe.
class LimitedTextSource final : public TextSourceDecorator {
 public:
  /// `inner` and `limiter` must outlive this object.
  LimitedTextSource(TextSource* inner, AdaptiveLimiter* limiter)
      : TextSourceDecorator(inner), limiter_(limiter) {}

  Result<std::vector<std::string>> Search(
      const TextQuery& query) const override;
  Result<Document> Fetch(const std::string& docid) const override;

  LimiterActivity activity() const;

 private:
  template <typename T, typename Op>
  Result<T> Limited(const Op& op) const;

  AdaptiveLimiter* limiter_;
  mutable std::atomic<uint64_t> acquires_{0};
  mutable std::atomic<uint64_t> waits_{0};
};

// ---------------------------------------------------------------------------
// Hedged requests

struct HedgeOptions {
  /// The latency percentile that arms the hedge timer: a primary still in
  /// flight after this percentile of observed RTTs gets a duplicate.
  double percentile = 0.95;
  /// RTT samples required before hedging arms; colder operations run on
  /// the direct (zero-overhead) path. 0 plus min_delay 0 force-hedges
  /// every operation — the test configuration.
  size_t min_samples = 64;
  /// Clamp on the computed hedge delay.
  std::chrono::microseconds min_delay{500};
  std::chrono::microseconds max_delay{200000};
  /// Workers of the controller-owned pool that runs primaries and
  /// duplicates once hedging is armed. 0 disables hedging outright.
  int pool_threads = 4;
  /// Cancel the losing duplicate when the primary answers first, reclaiming
  /// the modeled backend cost it would have burned (the waste meter only
  /// records what the loser actually charged before noticing). Off is the
  /// pre-cancellation behavior, kept as a bench ablation knob.
  bool cancel_losers = true;
  /// Test hook for RTT measurement. The hedge timer itself always waits in
  /// real time (a virtual clock cannot wake a blocked thread).
  SteadyClockFn clock;
};

/// Value snapshot of a controller's lifetime counters.
struct HedgeControllerStats {
  size_t samples = 0;         ///< RTT observations recorded so far.
  uint64_t hedges = 0;        ///< Duplicates launched.
  uint64_t hedge_wins = 0;    ///< Races the duplicate won.
  uint64_t suppressed = 0;    ///< Hedges skipped for lack of spare capacity.
  uint64_t losers_cancelled = 0;  ///< Losing duplicates cancelled mid-run.
  double hedge_delay_ms = 0;  ///< Current armed delay (0 while cold).
};

/// The shared hedging controller: the RTT percentile digest (a bounded
/// ring of samples), the armed hedge delay, and the pool the races run on.
/// Shared service-wide like the breaker and the limiter; thread-safe.
class HedgeController {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit HedgeController(HedgeOptions options = {});

  void RecordRtt(std::chrono::nanoseconds rtt);

  /// The armed hedge delay, or nullopt while below min_samples (or with no
  /// pool to race on).
  std::optional<std::chrono::microseconds> HedgeDelay() const;

  TimePoint Now() const;
  ThreadPool* pool() { return pool_.get(); }
  const HedgeOptions& options() const { return options_; }
  HedgeControllerStats stats() const;

  // Lifetime counters, charged by HedgedTextSource.
  void CountHedge() { hedges_.fetch_add(1, std::memory_order_relaxed); }
  void CountWin() { wins_.fetch_add(1, std::memory_order_relaxed); }
  void CountSuppressed() {
    suppressed_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountLoserCancelled() {
    losers_cancelled_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  const HedgeOptions options_;
  std::unique_ptr<ThreadPool> pool_;  ///< Null when pool_threads == 0.

  mutable std::mutex mu_;
  std::vector<uint64_t> samples_ns_;  ///< Ring buffer, kRingSize capacity.
  size_t next_slot_ = 0;
  size_t total_samples_ = 0;
  uint64_t cached_delay_ns_ = 0;  ///< Recomputed every kRecomputeEvery.

  std::atomic<uint64_t> hedges_{0};
  std::atomic<uint64_t> wins_{0};
  std::atomic<uint64_t> suppressed_{0};
  std::atomic<uint64_t> losers_cancelled_{0};
};

/// Per-query account of one HedgedTextSource.
struct HedgeActivity {
  uint64_t hedges = 0;      ///< Duplicates this query launched.
  uint64_t hedge_wins = 0;  ///< Races its duplicates won.
  uint64_t suppressed = 0;  ///< Duplicates skipped (no spare capacity).
  uint64_t losers_cancelled = 0;  ///< Losing duplicates cancelled mid-run.
  AccessMeter waste;        ///< Loser charges, diverted off the main meter.
};

/// The per-query hedging decorator. While the controller is cold it calls
/// straight through on the caller's thread (recording RTTs). Once armed,
/// each operation's primary runs on the controller's pool; if it has not
/// answered within the hedge delay — and the limiter (when present) has
/// spare capacity — an identical duplicate is raced against it and the
/// first response wins. The duplicate runs under its own child CancelToken
/// (linked to the query's token): when the primary answers first the loser
/// is cancelled and unwinds at its next cooperative checkpoint instead of
/// running to completion, reclaiming the backend cost it would have burned.
/// Whatever it DID charge before noticing is diverted to this decorator's
/// waste meter by the thread-local HedgeAttemptScope. The winning primary
/// is never cancelled — it charges the main meter, and cancelling it would
/// break the byte-identity contract on meter totals. The destructor waits
/// for stragglers, so the inner chain may be torn down right after.
///
/// Hedging never changes results or main-meter totals: Search/Fetch are
/// idempotent reads, primaries always charge the main meter, duplicates
/// always charge the waste meter.
class HedgedTextSource final : public TextSourceDecorator {
 public:
  /// `inner` and `controller` must outlive this object; `limiter` is the
  /// optional spare-capacity gate (may be null).
  HedgedTextSource(TextSource* inner, HedgeController* controller,
                   AdaptiveLimiter* limiter = nullptr)
      : TextSourceDecorator(inner),
        controller_(controller),
        limiter_(limiter) {}

  /// Blocks until every straggling loser finished against the inner chain.
  ~HedgedTextSource() override;

  /// Waits for in-flight hedge tasks to finish — call before reading
  /// activity() for a complete waste account (the destructor waits too).
  void Quiesce() const;

  Result<std::vector<std::string>> Search(
      const TextQuery& query) const override;
  Result<Document> Fetch(const std::string& docid) const override;

  HedgeActivity activity() const;

 private:
  template <typename T>
  Result<T> Hedged(std::function<Result<T>()> op) const;

  void TaskStarted() const;
  void TaskFinished() const;

  HedgeController* controller_;
  AdaptiveLimiter* limiter_;

  mutable AtomicAccessMeter waste_;
  mutable std::atomic<uint64_t> hedges_{0};
  mutable std::atomic<uint64_t> wins_{0};
  mutable std::atomic<uint64_t> suppressed_{0};
  mutable std::atomic<uint64_t> losers_cancelled_{0};

  mutable std::mutex task_mu_;
  mutable std::condition_variable task_cv_;
  mutable size_t outstanding_tasks_ = 0;
};

// ---------------------------------------------------------------------------
// Per-query overload account

/// Everything the overload layer did to (and for) one query: hedge races
/// and their waste, limiter queueing, deadline-shed operations, and the
/// admission wait. All zero (empty) when the layer is off or idle — the
/// EXPLAIN ANALYZE `| overload` line renders only when non-empty, so
/// overload-off output is byte-identical to before.
struct OverloadActivity {
  uint64_t hedges = 0;
  uint64_t hedge_wins = 0;
  uint64_t hedges_suppressed = 0;
  AccessMeter hedge_waste;  ///< Loser charges (excluded from meter_delta).
  uint64_t hedge_losers_cancelled = 0;  ///< Duplicates cancelled mid-run.
  uint64_t limiter_waits = 0;      ///< Operations that queued for a permit.
  int limit = 0;                   ///< Concurrency limit after the query.
  uint64_t shed_operations = 0;    ///< Ops shed past the query deadline.
  uint64_t cancelled_operations = 0;  ///< Ops abandoned on cancellation.
  double admission_wait_seconds = 0.0;

  /// `ignore_timing` treats the wall-clock-derived admission wait as
  /// absent — the stable EXPLAIN render's notion of "did anything", so a
  /// query whose only overload activity is queueing time renders the same
  /// golden output whether or not it happened to queue.
  bool empty(bool ignore_timing = false) const {
    return hedges == 0 && hedge_wins == 0 && hedges_suppressed == 0 &&
           hedge_losers_cancelled == 0 && hedge_waste == AccessMeter{} &&
           limiter_waits == 0 && shed_operations == 0 &&
           cancelled_operations == 0 &&
           (ignore_timing || admission_wait_seconds == 0.0);
  }

  /// "hedges=2 wins=1 waits=3 limit=8 shed=0 ...". `stable` omits the
  /// wall-clock admission_wait field (RenderMode::kStable).
  std::string ToString(bool stable = false) const;
};

}  // namespace textjoin

#endif  // TEXTJOIN_CONNECTOR_OVERLOAD_H_
