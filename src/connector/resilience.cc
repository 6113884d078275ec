#include "connector/resilience.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <thread>

#include "common/backoff.h"
#include "connector/overload.h"

namespace textjoin {

namespace {

/// Growth bound of the decorrelated-jitter backoff: each delay is drawn
/// from [initial_backoff, previous delay x this].
constexpr double kBackoffMultiplier = 3.0;

}  // namespace

bool IsTransientError(StatusCode code) {
  switch (code) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

const char* FailureModeName(FailureMode mode) {
  switch (mode) {
    case FailureMode::kFailFast:
      return "FailFast";
    case FailureMode::kRetryThenFail:
      return "RetryThenFail";
    case FailureMode::kBestEffort:
      return "BestEffort";
  }
  return "?";
}

std::string DegradationReport::ToString() const {
  std::string out = complete ? "complete" : "INCOMPLETE";
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                " retries=%llu deadline=%llu opens=%llu rejected=%llu "
                "resplits=%llu skipped_batches=%llu skipped_ops=%llu "
                "shed=%llu",
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(deadline_hits),
                static_cast<unsigned long long>(breaker_opens),
                static_cast<unsigned long long>(breaker_rejections),
                static_cast<unsigned long long>(batch_resplits),
                static_cast<unsigned long long>(skipped_batches),
                static_cast<unsigned long long>(skipped_operations),
                static_cast<unsigned long long>(shed_operations));
  out += buf;
  if (cancelled_operations > 0) {
    // Rendered only when non-zero so pre-cancellation output is unchanged.
    std::snprintf(buf, sizeof(buf), " cancelled=%llu",
                  static_cast<unsigned long long>(cancelled_operations));
    out += buf;
  }
  return out;
}

// ---------------------------------------------------------------------------
// CircuitBreaker

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions options, Clock clock)
    : options_(options), clock_(std::move(clock)) {}

CircuitBreaker::TimePoint CircuitBreaker::Now() const {
  return clock_ ? clock_() : std::chrono::steady_clock::now();
}

const char* CircuitBreaker::StateName(State state) {
  switch (state) {
    case State::kClosed:
      return "Closed";
    case State::kOpen:
      return "Open";
    case State::kHalfOpen:
      return "HalfOpen";
  }
  return "?";
}

void CircuitBreaker::TripLocked() {
  state_ = State::kOpen;
  opened_at_ = Now();
  consecutive_failures_ = 0;
  half_open_successes_ = 0;
  half_open_probe_in_flight_ = false;
  ++times_opened_;
}

bool CircuitBreaker::Allow() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (Now() - opened_at_ < options_.cooldown) {
        ++rejections_;
        return false;
      }
      state_ = State::kHalfOpen;
      half_open_successes_ = 0;
      half_open_probe_in_flight_ = true;  // this caller is the probe
      return true;
    case State::kHalfOpen:
      if (half_open_probe_in_flight_) {
        ++rejections_;
        return false;
      }
      half_open_probe_in_flight_ = true;
      return true;
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      consecutive_failures_ = 0;
      return;
    case State::kHalfOpen:
      half_open_probe_in_flight_ = false;
      if (++half_open_successes_ >= options_.half_open_successes) {
        state_ = State::kClosed;
        consecutive_failures_ = 0;
      }
      return;
    case State::kOpen:
      // A call admitted before the trip finished after it; ignore.
      return;
  }
}

void CircuitBreaker::RecordFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      if (++consecutive_failures_ >= options_.failure_threshold) TripLocked();
      return;
    case State::kHalfOpen:
      // The probe failed: the remote is still down.
      TripLocked();
      return;
    case State::kOpen:
      return;
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

uint64_t CircuitBreaker::times_opened() const {
  std::lock_guard<std::mutex> lock(mu_);
  return times_opened_;
}

uint64_t CircuitBreaker::rejections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejections_;
}

// ---------------------------------------------------------------------------
// ResilientTextSource

ResilientTextSource::ResilientTextSource(TextSource* inner,
                                         ResilienceOptions options,
                                         CircuitBreaker* shared_breaker)
    : TextSourceDecorator(inner), options_(std::move(options)) {
  if (shared_breaker != nullptr) {
    breaker_ = shared_breaker;
  } else if (options_.enable_breaker) {
    owned_breaker_ =
        std::make_unique<CircuitBreaker>(options_.breaker, options_.clock);
    breaker_ = owned_breaker_.get();
  }
}

void ResilientTextSource::Sleep(std::chrono::microseconds delay) const {
  if (delay.count() <= 0) return;
  if (options_.sleeper) {
    options_.sleeper(delay);
  } else {
    // Interruptible: a cancelled query must not ride out a backoff it no
    // longer cares about. The retry loop re-checks the token on wakeup.
    CurrentCancelToken().SleepFor(delay);
  }
}

template <typename T, typename Op>
Result<T> ResilientTextSource::WithRetries(std::chrono::microseconds deadline,
                                           const char* what,
                                           const Op& op) const {
  const RetryPolicy& retry = options_.retry;
  // The backoff schedule is deterministic given the policy seed and the
  // operation's global ordinal (so concurrent operations decorrelate), but
  // it is only materialized on the first retry — operations that succeed
  // first time pay nothing for it.
  std::optional<DecorrelatedJitterBackoff> backoff;
  const int max_attempts = std::max(1, retry.max_attempts);
  // The deadline is a budget for the WHOLE operation — attempts AND the
  // backoff sleeps between them. Measured on the injectable clock so tests
  // drive the budget deterministically.
  const bool timed = deadline.count() > 0;
  const auto now = [this] {
    return options_.clock ? options_.clock() : std::chrono::steady_clock::now();
  };
  const auto op_started =
      timed ? now() : std::chrono::steady_clock::time_point{};
  // Hedge duplicates are shadow traffic for one logical operation whose
  // primary is still being accounted — recording their outcomes too would
  // double-trip (or wrongly heal) the breaker.
  const bool charge_breaker = breaker_ != nullptr && !InHedgeAttempt();
  const CancelToken& token = CurrentCancelToken();
  for (int attempt = 1;; ++attempt) {
    // Cooperative cancellation point: checked before EVERY attempt (not
    // just after failures) so a query cancelled mid-backoff never issues
    // another round-trip on a source nobody is waiting on. Only kCancelled
    // aborts — a deadline-armed token is governed by the per-op deadline
    // budget below and the scheduler's dispatch shedding, as always.
    if (Status cancel = token.Check();
        cancel.code() == StatusCode::kCancelled) {
      return cancel;
    }
    if (breaker_ != nullptr && !breaker_->Allow()) {
      breaker_rejections_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(std::string("circuit breaker open: ") + what +
                                 " failed fast");
    }
    // The clock reads are skipped on the no-deadline path: the healthy
    // fast path costs one atomic increment plus one breaker check per op.
    const auto started = timed ? now() : std::chrono::steady_clock::time_point{};
    Result<T> result = op();
    Status status = result.ok() ? Status::OK() : result.status();
    if (status.ok() && timed) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::microseconds>(now() -
                                                                started);
      if (elapsed > deadline) {
        // Too late to be useful; the charge for the traffic stands.
        deadline_hits_.fetch_add(1, std::memory_order_relaxed);
        status = Status::DeadlineExceeded(
            std::string(what) + " took " + std::to_string(elapsed.count()) +
            "us against a " + std::to_string(deadline.count()) +
            "us deadline");
      }
    }
    if (status.ok()) {
      if (charge_breaker) breaker_->RecordSuccess();
      return result;
    }
    if (!IsTransientError(status.code())) {
      // Permanent: retrying would fail identically, and the error says
      // nothing about server health, so the breaker is not charged.
      return status;
    }
    if (charge_breaker) breaker_->RecordFailure();
    if (attempt >= max_attempts) {
      exhausted_.fetch_add(1, std::memory_order_relaxed);
      return Status(status.code(),
                    status.message() + " (after " +
                        std::to_string(attempt) + " attempts)");
    }
    std::chrono::microseconds remaining = deadline;
    if (timed) {
      const auto spent = std::chrono::duration_cast<std::chrono::microseconds>(
          now() - op_started);
      remaining = deadline - spent;
      if (remaining.count() <= 0) {
        // The budget is gone: retrying could only return another
        // too-late answer, and sleeping first would make it later still.
        exhausted_.fetch_add(1, std::memory_order_relaxed);
        return Status::DeadlineExceeded(
            std::string(what) + " deadline budget (" +
            std::to_string(deadline.count()) + "us) exhausted after " +
            std::to_string(attempt) + " attempts");
      }
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    if (!backoff.has_value()) {
      const uint64_t ordinal =
          op_counter_.fetch_add(1, std::memory_order_relaxed);
      backoff.emplace(retry.initial_backoff, retry.max_backoff,
                      kBackoffMultiplier,
                      retry.jitter_seed ^ (ordinal * 0x9e3779b9));
    }
    const std::chrono::microseconds delay = backoff->NextDelay();
    // Never sleep past the remaining budget.
    Sleep(timed ? std::min(delay, remaining) : delay);
  }
}

Result<std::vector<std::string>> ResilientTextSource::Search(
    const TextQuery& query) const {
  return WithRetries<std::vector<std::string>>(
      options_.search_deadline, "Search",
      [&]() { return inner_->Search(query); });
}

Result<Document> ResilientTextSource::Fetch(const std::string& docid) const {
  return WithRetries<Document>(options_.fetch_deadline, "Fetch",
                               [&]() { return inner_->Fetch(docid); });
}

ResilienceStats ResilientTextSource::stats() const {
  ResilienceStats stats;
  stats.retries = retries_.load(std::memory_order_relaxed);
  stats.exhausted = exhausted_.load(std::memory_order_relaxed);
  stats.deadline_hits = deadline_hits_.load(std::memory_order_relaxed);
  stats.breaker_rejections =
      breaker_rejections_.load(std::memory_order_relaxed);
  if (breaker_ != nullptr) stats.breaker_opens = breaker_->times_opened();
  return stats;
}

}  // namespace textjoin
