#include "probes.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <new>
#include <thread>

// ---------------------------------------------------------------------------
// Counting operator new. Each thread counts into its own cache-line slot
// (single writer, so a plain load+store suffices); AllocCount() sums the
// slots. A shared atomic would make two clients contend on every
// allocation and slow the measured program.

namespace {

constexpr size_t kAllocSlots = 4096;

struct alignas(64) AllocSlot {
  std::atomic<uint64_t> count{0};
};

AllocSlot g_alloc_slots[kAllocSlots];
std::atomic<size_t> g_next_alloc_slot{0};
AllocSlot g_overflow_slot;  // Shared (atomic add) once the slots run out.
thread_local AllocSlot* t_alloc_slot = nullptr;

inline void CountAlloc() {
  AllocSlot* slot = t_alloc_slot;
  if (slot == nullptr) {
    const size_t index =
        g_next_alloc_slot.fetch_add(1, std::memory_order_relaxed);
    slot = index < kAllocSlots ? &g_alloc_slots[index] : &g_overflow_slot;
    t_alloc_slot = slot;
  }
  if (slot == &g_overflow_slot) {
    slot->count.fetch_add(1, std::memory_order_relaxed);
  } else {
    slot->count.store(slot->count.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  }
}

void* CountedAlloc(std::size_t size) {
  CountAlloc();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  CountAlloc();
  void* p = nullptr;
  const size_t a = std::max(static_cast<size_t>(align), sizeof(void*));
  if (posix_memalign(&p, a, size == 0 ? 1 : size) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  CountAlloc();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  CountAlloc();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace servebench {

uint64_t AllocCount() {
  const size_t used =
      std::min(g_next_alloc_slot.load(std::memory_order_relaxed), kAllocSlots);
  uint64_t total = g_overflow_slot.count.load(std::memory_order_relaxed);
  for (size_t i = 0; i < used; ++i) {
    total += g_alloc_slots[i].count.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t ThreadAllocCount() {
  return t_alloc_slot == nullptr
             ? 0
             : t_alloc_slot->count.load(std::memory_order_relaxed);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void UseExactSleeps() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

// ---------------------------------------------------------------------------
// Tracer

namespace {

thread_local int64_t t_current_span = -1;
thread_local int64_t t_query = -1;
std::atomic<int64_t> g_client_span{-1};  // Single-client runs only.
std::atomic<int64_t> g_query{-1};
std::atomic<bool> g_single_client{false};

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Enable(size_t capacity) {
  spans_.assign(capacity, Span{});
  enabled_.store(true, std::memory_order_release);
}

int64_t Tracer::Begin() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::End(const char* name, double start, int64_t id,
                 int64_t parent) {
  const double end = NowSeconds();
  const int64_t query = t_query >= 0 ? t_query : g_query.load();
  const size_t slot = claimed_.fetch_add(1, std::memory_order_relaxed);
  if (slot < spans_.size()) {
    spans_[slot] = Span{name, start, end, id, parent, query};
  }
}

void Tracer::SetQuery(int64_t query, bool single_client) {
  t_query = query;
  g_single_client.store(single_client, std::memory_order_relaxed);
  if (single_client) g_query.store(query, std::memory_order_relaxed);
}

size_t Tracer::kept() const {
  return std::min(claimed_.load(), spans_.size());
}

uint64_t Tracer::dropped() const { return claimed_.load() - kept(); }

bool Tracer::WriteJsonLines(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t i = 0; i < kept(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"id\":%lld,\"parent\":%lld,\"query\":%lld}\n",
                 s.name, s.start * 1e6, s.end * 1e6,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.query));
  }
  return std::fclose(out) == 0;
}

SpanScope::SpanScope(const char* name) : name_(name) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  id_ = tracer.Begin();
  saved_parent_ = t_current_span;
  t_current_span = id_;
  // The client's innermost open span becomes the parent of spans opened on
  // helper threads (pool workers, shard scatter) — unambiguous only with
  // one client.
  client_ = t_query >= 0 && g_single_client.load(std::memory_order_relaxed);
  if (client_) g_client_span.store(id_, std::memory_order_relaxed);
  start_ = NowSeconds();
}

SpanScope::~SpanScope() {
  if (id_ < 0) return;
  t_current_span = saved_parent_;
  if (client_) g_client_span.store(saved_parent_, std::memory_order_relaxed);
  int64_t parent = saved_parent_;
  if (parent < 0 && t_query < 0 &&
      g_single_client.load(std::memory_order_relaxed)) {
    parent = g_client_span.load(std::memory_order_relaxed);
  }
  Tracer::Get().End(name_, start_, id_, parent);
}

// ---------------------------------------------------------------------------
// TracedCorpus

namespace {
thread_local uint64_t t_searches = 0;
}  // namespace

uint64_t ThreadSearchCount() { return t_searches; }

TracedCorpus::TracedCorpus(
    const textjoin::SearchableCorpus* inner, TextLedger* ledger,
    std::shared_ptr<const textjoin::SearchableCorpus> keep)
    : keep_(std::move(keep)), inner_(inner), ledger_(ledger) {}

textjoin::Result<textjoin::EngineSearchResult> TracedCorpus::Search(
    const textjoin::TextQuery& query) const {
  SpanScope span("text.search");
  ++t_searches;
  const uint64_t allocs_before = ThreadAllocCount();
  const double start = NowSeconds();
  textjoin::Result<textjoin::EngineSearchResult> result = inner_->Search(query);
  const double seconds = NowSeconds() - start;
  ledger_->search.Add(seconds, result.ok() ? result->postings_processed : 0,
                      ThreadAllocCount() - allocs_before);
  return result;
}

std::shared_ptr<const textjoin::SearchableCorpus> TracedCorpus::SnapshotAt(
    uint64_t epoch) const {
  SpanScope span("text.live.snapshot");
  const uint64_t allocs_before = ThreadAllocCount();
  const double start = NowSeconds();
  std::shared_ptr<const textjoin::SearchableCorpus> snapshot =
      inner_->SnapshotAt(epoch);
  const double seconds = NowSeconds() - start;
  if (snapshot == nullptr) return snapshot;
  ledger_->snapshot.Add(seconds, snapshot->pin_info().delta_docs,
                        ThreadAllocCount() - allocs_before);
  const textjoin::SearchableCorpus* raw = snapshot.get();
  return std::make_shared<TracedCorpus>(raw, ledger_, std::move(snapshot));
}

// ---------------------------------------------------------------------------
// RemoteReplica

double RemoteReplica::Wait() const {
  const int us = delay_->delay_us.load(std::memory_order_relaxed);
  if (us <= 0) return 0.0;
  const double start = NowSeconds();
  std::this_thread::sleep_for(std::chrono::microseconds(us));
  return NowSeconds() - start;
}

textjoin::Result<std::vector<std::string>> RemoteReplica::Search(
    const textjoin::TextQuery& query) const {
  SpanScope span("connector.source.search");
  const double start = NowSeconds();
  const double waited = Wait();
  textjoin::Result<std::vector<std::string>> result = inner_->Search(query);
  if (ledger_ != nullptr) {
    ledger_->search.Add(NowSeconds() - start, 0, 0);
    ledger_->wait_nanos.fetch_add(static_cast<uint64_t>(waited * 1e9),
                                  std::memory_order_relaxed);
  }
  return result;
}

textjoin::Result<textjoin::Document> RemoteReplica::Fetch(
    const std::string& docid) const {
  SpanScope span("connector.source.fetch");
  const double start = NowSeconds();
  const double waited = Wait();
  textjoin::Result<textjoin::Document> result = inner_->Fetch(docid);
  if (ledger_ != nullptr) {
    ledger_->fetch.Add(NowSeconds() - start, 0, 0);
    ledger_->wait_nanos.fetch_add(static_cast<uint64_t>(waited * 1e9),
                                  std::memory_order_relaxed);
  }
  return result;
}

}  // namespace servebench
