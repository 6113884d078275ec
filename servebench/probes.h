#ifndef TEXTJOIN_SERVEBENCH_PROBES_H_
#define TEXTJOIN_SERVEBENCH_PROBES_H_

// Measurement probes of the serving benchmark. Everything here lives on the
// benchmark's side of the library's public interfaces: a counting global
// operator new, process clocks, an in-memory span recorder, and two
// forwarding wrappers — a SearchableCorpus that times the text engine
// (and the snapshots a live corpus hands out), and a replica decorator that
// plays a remote text server with a fixed per-call delay. None of them
// changes what the wrapped object returns.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "connector/text_source.h"
#include "text/searchable.h"

namespace servebench {

// ---------------------------------------------------------------------------
// Allocation counting and process clocks

/// operator new calls made by every thread since process start.
uint64_t AllocCount();
/// operator new calls made by the calling thread since it started.
uint64_t ThreadAllocCount();

double NowSeconds();          ///< steady_clock, in seconds.
double ProcessCpuSeconds();   ///< CPU time of all threads of the process.
double PeakRssMb();           ///< VmHWM of the process, in MiB.

/// Shrinks the calling thread's timer slack to 1 ns so that the simulated
/// remote delay sleeps for what it asks for; threads started afterwards
/// inherit it.
void UseExactSleeps();

// ---------------------------------------------------------------------------
// Per-layer counters

/// One layer boundary: calls, busy time, a per-call item count (postings,
/// delta documents, folded documents ...) and allocations made by the
/// calling thread during the call.
struct LayerCounter {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> nanos{0};
  std::atomic<uint64_t> items{0};
  std::atomic<uint64_t> allocs{0};

  void Add(double seconds, uint64_t item_count, uint64_t alloc_count) {
    calls.fetch_add(1, std::memory_order_relaxed);
    nanos.fetch_add(static_cast<uint64_t>(seconds * 1e9),
                    std::memory_order_relaxed);
    items.fetch_add(item_count, std::memory_order_relaxed);
    allocs.fetch_add(alloc_count, std::memory_order_relaxed);
  }
  double MeanMicros() const {
    const uint64_t n = calls.load();
    return n == 0 ? 0.0 : static_cast<double>(nanos.load()) / 1e3 / n;
  }
};

// ---------------------------------------------------------------------------
// Spans

/// One timed interval at a layer boundary. `parent` is the span that was
/// open on the calling thread (or, on helper threads, the client's open
/// span when exactly one client runs); `query` is the op index.
struct Span {
  const char* name;
  double start;
  double end;
  int64_t id;
  int64_t parent;
  int64_t query;
};

/// In-memory span store; off unless Enable()d. Keeps the first `capacity`
/// spans of a run (the rest are counted as dropped) in a buffer sized up
/// front, claiming slots with one atomic add so recording takes no lock,
/// and writes them out as JSON lines when the run ends.
class Tracer {
 public:
  static Tracer& Get();

  void Enable(size_t capacity);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Hands out the next span id.
  int64_t Begin();
  /// Records a finished span (dropped once the buffer is full).
  void End(const char* name, double start, int64_t id, int64_t parent);

  /// The client thread's current query id; also published to helper
  /// threads when `single_client` (they have no span context of their own).
  static void SetQuery(int64_t query, bool single_client);

  /// Writes every kept span as one JSON object per line. Call once the
  /// traced pass has finished.
  bool WriteJsonLines(const std::string& path) const;
  size_t kept() const;
  uint64_t dropped() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> next_id_{0};
  std::atomic<size_t> claimed_{0};  ///< Slots handed out (may exceed size).
  std::vector<Span> spans_;         ///< Sized by Enable(), never resized.
};

/// RAII span: times the enclosing scope under `name` when tracing is on.
class SpanScope {
 public:
  explicit SpanScope(const char* name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_;
  double start_ = 0.0;
  int64_t id_ = -1;
  int64_t saved_parent_ = -1;
  bool client_ = false;  ///< Opened on the single client's thread.
};

// ---------------------------------------------------------------------------
// Text engine probe

/// Ledger slots the corpus wrapper fills.
struct TextLedger {
  LayerCounter search;    ///< items = postings processed.
  LayerCounter snapshot;  ///< SnapshotAt calls of a live corpus.
};

/// Searches made through any TracedCorpus on the calling thread.
uint64_t ThreadSearchCount();

/// Forwarding SearchableCorpus: times Search (postings and allocations
/// too) and SnapshotAt, and wraps every snapshot it returns so searches on
/// pinned versions are timed as well. Results are the inner corpus's.
class TracedCorpus final : public textjoin::SearchableCorpus {
 public:
  /// `inner` must outlive this object unless `keep` owns it.
  TracedCorpus(const textjoin::SearchableCorpus* inner, TextLedger* ledger,
               std::shared_ptr<const textjoin::SearchableCorpus> keep = {});

  textjoin::Result<textjoin::EngineSearchResult> Search(
      const textjoin::TextQuery& query) const override;
  const textjoin::Document& GetDocument(textjoin::DocNum num) const override {
    return inner_->GetDocument(num);
  }
  textjoin::Result<textjoin::DocNum> FindDocid(
      const std::string& docid) const override {
    return inner_->FindDocid(docid);
  }
  size_t num_documents() const override { return inner_->num_documents(); }
  size_t max_search_terms() const override {
    return inner_->max_search_terms();
  }
  int max_concurrency() const override { return inner_->max_concurrency(); }
  bool mutable_corpus() const override { return inner_->mutable_corpus(); }
  std::shared_ptr<const textjoin::SearchableCorpus> SnapshotAt(
      uint64_t epoch) const override;
  textjoin::CorpusPinInfo pin_info() const override {
    return inner_->pin_info();
  }

 private:
  std::shared_ptr<const textjoin::SearchableCorpus> keep_;
  const textjoin::SearchableCorpus* inner_;
  TextLedger* ledger_;
};

// ---------------------------------------------------------------------------
// Remote replica probe

/// The simulated remote: every Search/Fetch first sleeps `delay_us`
/// (0 switches the delay off, e.g. during warm-up).
struct RemoteDelay {
  std::atomic<int> delay_us{0};
};

/// Ledger slots the replica decorator fills (null ledger = untraced).
struct SourceLedger {
  LayerCounter search;  ///< Whole call, delay included.
  LayerCounter fetch;
  std::atomic<uint64_t> wait_nanos{0};  ///< Time spent in the delay.
};

/// Per-replica decorator (BackendTopology::Replica::decorator): applies the
/// remote delay, then forwards. Derives from TextSourceDecorator so chain
/// walkers that unwrap decorators still reach the metered source.
class RemoteReplica final : public textjoin::TextSourceDecorator {
 public:
  RemoteReplica(textjoin::TextSource* inner, const RemoteDelay* delay,
                SourceLedger* ledger)
      : TextSourceDecorator(inner), delay_(delay), ledger_(ledger) {}

  textjoin::Result<std::vector<std::string>> Search(
      const textjoin::TextQuery& query) const override;
  textjoin::Result<textjoin::Document> Fetch(
      const std::string& docid) const override;

 private:
  /// Sleeps the configured delay; returns the seconds actually slept.
  double Wait() const;

  const RemoteDelay* delay_;
  SourceLedger* ledger_;
};

}  // namespace servebench

#endif  // TEXTJOIN_SERVEBENCH_PROBES_H_
