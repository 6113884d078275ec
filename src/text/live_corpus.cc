#include "text/live_corpus.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "text/analyzer.h"

namespace textjoin {

namespace {

constexpr size_t kNpos = ~size_t{0};
constexpr size_t kSnapshotCacheCap = 16;
/// New-docid directory entries folded into the base map at this overlay
/// size: per-insert COW copies stay tiny, base rebuilds stay amortized.
constexpr size_t kDirectoryFoldThreshold = 64;

}  // namespace

// ---------------------------------------------------------------------------
// EpochClock

uint64_t EpochClock::Reserve() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t epoch = next_++;
  outstanding_.insert(epoch);
  reserved_.store(epoch, std::memory_order_release);
  return epoch;
}

void EpochClock::Publish(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t erased = outstanding_.erase(epoch);
  TEXTJOIN_CHECK(erased == 1, "Publish(%llu) without matching Reserve",
                 static_cast<unsigned long long>(epoch));
  // The contiguous frontier: everything below the oldest outstanding
  // reservation (or everything reserved, when none are outstanding).
  const uint64_t frontier =
      outstanding_.empty() ? next_ - 1 : *outstanding_.begin() - 1;
  published_.store(frontier, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// LiveCorpus — mutations

namespace {

/// Adds one document version's postings to a chunk's token maps.
void ChunkAdd(
    std::map<std::string, std::map<std::string, PostingList, std::less<>>,
             std::less<>>& fields,
    DocNum num, const Document& doc) {
  std::string buffer;
  for (const auto& [field_name, values] : doc.fields) {
    auto& tokens = fields[field_name];
    buffer.clear();
    for (const TokenOccurrenceView& occ :
         AnalyzeFieldValueViews(values, buffer)) {
      auto it = tokens.lower_bound(occ.token);
      if (it == tokens.end() || it->first != occ.token) {
        it = tokens.emplace_hint(it, std::string(occ.token), PostingList{});
      }
      PostingList& list = it->second;
      if (list.empty() || list.back().doc != num) {
        list.push_back(Posting{num, {}});
      }
      list.back().positions.push_back(occ.position);
    }
  }
}

}  // namespace

DocNum LiveCorpus::AppendVersionLocked(Document doc, uint64_t epoch,
                                       uint64_t ordinal) {
  const DocNum num = static_cast<DocNum>(docs_.size());
  std::vector<DocNum>& vers = versions_[doc.docid];
  const bool new_docid = vers.empty();
  vers.push_back(num);
  docs_.push_back(DocState{std::move(doc), ordinal, epoch, kUnpinnedEpoch,
                           num});
  if (epoch > max_applied_epoch_) max_applied_epoch_ = epoch;
  if (epoch > 0) RecordEventLocked(epoch, ordinal);
  if (!new_docid) return num;  // Re-insert/update: permanent entry exists.

  // First appearance of this docid: register its permanent ordinal in the
  // ordinal-sorted walk order (ordinals normally arrive ascending, so this
  // is a push_back; a sharded mirror can see them out of order) and in the
  // copy-on-write docid directory shared with snapshots.
  const std::string_view docid = docs_.back().doc.docid;
  OrdinalSlot slot{ordinal, docid, &vers};
  if (by_ordinal_.empty() || by_ordinal_.back().ordinal < ordinal) {
    by_ordinal_.push_back(slot);
  } else {
    auto at = std::upper_bound(by_ordinal_.begin(), by_ordinal_.end(), ordinal,
                               [](uint64_t o, const OrdinalSlot& s) {
                                 return o < s.ordinal;
                               });
    if (at != by_ordinal_.begin() && std::prev(at)->ordinal == ordinal) {
      ordinals_unique_ = false;
    }
    by_ordinal_.insert(at, slot);
  }
  auto overlay =
      dir_overlay_ == nullptr
          ? std::make_shared<std::vector<DocidEntry>>()
          : std::make_shared<std::vector<DocidEntry>>(*dir_overlay_);
  overlay->push_back(DocidEntry{docid, ordinal});
  if (overlay->size() >= kDirectoryFoldThreshold) {
    auto base =
        dir_base_ == nullptr
            ? std::make_shared<std::unordered_map<std::string_view, uint64_t>>()
            : std::make_shared<std::unordered_map<std::string_view, uint64_t>>(
                  *dir_base_);
    for (const DocidEntry& entry : *overlay) {
      base->emplace(entry.docid, entry.ordinal);
    }
    dir_base_ = std::move(base);
    overlay->clear();
  }
  dir_overlay_ = std::move(overlay);
  return num;
}

void LiveCorpus::RecordEventLocked(uint64_t epoch, uint64_t ordinal) {
  if (epoch_events_.empty() || epoch_events_.back().first <= epoch) {
    epoch_events_.emplace_back(epoch, ordinal);
    return;
  }
  // A sharded mirror can apply global epochs out of order; keep the log
  // epoch-sorted so range scans stay a single contiguous walk.
  auto at = std::upper_bound(
      epoch_events_.begin(), epoch_events_.end(), epoch,
      [](uint64_t e, const std::pair<uint64_t, uint64_t>& ev) {
        return e < ev.first;
      });
  epoch_events_.insert(at, {epoch, ordinal});
}

size_t LiveCorpus::LiveVersionLocked(const std::string& docid) const {
  auto it = versions_.find(docid);
  if (it == versions_.end() || it->second.empty()) return kNpos;
  // Per-docid epochs are ascending (the writer holds the shard lock across
  // Reserve + apply), so only the newest version can be live.
  const DocNum last = it->second.back();
  return docs_[last].dead_epoch == kUnpinnedEpoch ? last : kNpos;
}

Result<DocNum> LiveCorpus::SeedDocument(Document doc) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return SeedLocked(std::move(doc), docs_.size());
}

Result<DocNum> LiveCorpus::SeedDocument(Document doc, uint64_t ordinal) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return SeedLocked(std::move(doc), ordinal);
}

Result<DocNum> LiveCorpus::SeedLocked(Document doc, uint64_t ordinal) {
  TEXTJOIN_CHECK(!sealed_.load(std::memory_order_acquire),
                 "SeedDocument after the corpus started serving or mutating");
  if (versions_.count(doc.docid) != 0) {
    return Status::AlreadyExists("duplicate docid '" + doc.docid + "'");
  }
  if (seed_chunk_ == nullptr) {
    seed_chunk_ = std::make_shared<DeltaChunk>();
    seed_chunk_->epoch = 0;
    seed_chunk_->first_doc = static_cast<DocNum>(docs_.size());
    chunks_.push_back(seed_chunk_);
  }
  const DocNum num = static_cast<DocNum>(docs_.size());
  ChunkAdd(seed_chunk_->fields, num, doc);
  seed_chunk_->end_doc = num + 1;
  AppendVersionLocked(std::move(doc), 0, ordinal);
  visible_count_.fetch_add(1, std::memory_order_acq_rel);
  return num;
}

Status LiveCorpus::ApplyInsert(Document doc, uint64_t epoch,
                               uint64_t ordinal) {
  TEXTJOIN_CHECK(epoch > 0, "mutations need a positive epoch");
  std::unique_lock<std::shared_mutex> lock(mu_);
  sealed_.store(true, std::memory_order_release);
  if (LiveVersionLocked(doc.docid) != kNpos) {
    return Status::AlreadyExists("insert of live docid '" + doc.docid + "'");
  }
  auto chunk = std::make_shared<DeltaChunk>();
  chunk->epoch = epoch;
  chunk->first_doc = static_cast<DocNum>(docs_.size());
  chunk->end_doc = chunk->first_doc + 1;
  ChunkAdd(chunk->fields, chunk->first_doc, doc);
  AppendVersionLocked(std::move(doc), epoch, ordinal);
  chunks_.push_back(std::move(chunk));
  visible_count_.fetch_add(1, std::memory_order_acq_rel);
  write_seq_.fetch_add(1, std::memory_order_acq_rel);
  InvalidateSnapshotsFrom(epoch);
  return Status::OK();
}

Status LiveCorpus::ApplyUpdate(Document doc, uint64_t epoch) {
  TEXTJOIN_CHECK(epoch > 0, "mutations need a positive epoch");
  std::unique_lock<std::shared_mutex> lock(mu_);
  sealed_.store(true, std::memory_order_release);
  const size_t live = LiveVersionLocked(doc.docid);
  if (live == kNpos) {
    return Status::NotFound("update of absent docid '" + doc.docid + "'");
  }
  docs_[live].dead_epoch = epoch;
  const uint64_t ordinal = docs_[live].ordinal;  // Permanent per docid.
  auto chunk = std::make_shared<DeltaChunk>();
  chunk->epoch = epoch;
  chunk->first_doc = static_cast<DocNum>(docs_.size());
  chunk->end_doc = chunk->first_doc + 1;
  ChunkAdd(chunk->fields, chunk->first_doc, doc);
  AppendVersionLocked(std::move(doc), epoch, ordinal);
  chunks_.push_back(std::move(chunk));
  write_seq_.fetch_add(1, std::memory_order_acq_rel);
  InvalidateSnapshotsFrom(epoch);
  return Status::OK();
}

Status LiveCorpus::ApplyDelete(const std::string& docid, uint64_t epoch) {
  TEXTJOIN_CHECK(epoch > 0, "mutations need a positive epoch");
  std::unique_lock<std::shared_mutex> lock(mu_);
  sealed_.store(true, std::memory_order_release);
  const size_t live = LiveVersionLocked(docid);
  if (live == kNpos) {
    return Status::NotFound("delete of absent docid '" + docid + "'");
  }
  docs_[live].dead_epoch = epoch;
  if (epoch > max_applied_epoch_) max_applied_epoch_ = epoch;
  RecordEventLocked(epoch, docs_[live].ordinal);
  visible_count_.fetch_sub(1, std::memory_order_acq_rel);
  write_seq_.fetch_add(1, std::memory_order_acq_rel);
  InvalidateSnapshotsFrom(epoch);
  return Status::OK();
}

Result<Document> LiveCorpus::CurrentDocument(const std::string& docid) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const size_t live = LiveVersionLocked(docid);
  if (live == kNpos) {
    return Status::NotFound("no document with docid '" + docid + "'");
  }
  return docs_[live].doc;
}

bool LiveCorpus::HasLiveDocument(const std::string& docid) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return LiveVersionLocked(docid) != kNpos;
}

int64_t LiveCorpus::OrdinalOf(const std::string& docid) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = versions_.find(docid);
  if (it == versions_.end() || it->second.empty()) return -1;
  return static_cast<int64_t>(docs_[it->second.front()].ordinal);
}

void LiveCorpus::InvalidateSnapshotsFrom(uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  // kUnpinnedEpoch sorts last, so the latest-state sentinel goes too.
  snap_cache_.erase(snap_cache_.lower_bound(epoch), snap_cache_.end());
}

// ---------------------------------------------------------------------------
// LiveCorpus — snapshots

std::shared_ptr<const CorpusSnapshot> LiveCorpus::Snapshot(
    uint64_t epoch) const {
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    auto it = snap_cache_.find(epoch);
    if (it != snap_cache_.end()) return it->second;
  }
  std::shared_ptr<const CorpusSnapshot> snap = BuildSnapshot(epoch);
  if (epoch == kUnpinnedEpoch &&
      snap->seq_ != write_seq_.load(std::memory_order_acquire)) {
    // A write landed while we built the latest-state view: correct for the
    // caller, but stale as a cache entry. Serve it uncached.
    return snap;
  }
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    auto [it, inserted] = snap_cache_.emplace(epoch, snap);
    if (!inserted) return it->second;  // A racer built it first; share.
    while (snap_cache_.size() > kSnapshotCacheCap) {
      // Evict the oldest pin that is not the one just inserted.
      auto victim = snap_cache_.begin();
      if (victim == it) ++victim;
      snap_cache_.erase(victim);
    }
  }
  return snap;
}

std::shared_ptr<const SearchableCorpus> LiveCorpus::SnapshotAt(
    uint64_t epoch) const {
  return Snapshot(epoch);
}

std::shared_ptr<const CorpusSnapshot> LiveCorpus::BuildSnapshot(
    uint64_t epoch) const {
  std::shared_ptr<CorpusSnapshot> snap(new CorpusSnapshot());
  snap->epoch_ = epoch;
  snap->max_search_terms_ = max_search_terms_;
  snap->exhaustive_ = exhaustive_eval_;

  std::shared_lock<std::shared_mutex> lock(mu_);
  // Serving a snapshot freezes the seed chunk for good.
  sealed_.store(true, std::memory_order_release);
  snap->seq_ = write_seq_.load(std::memory_order_acquire);

  snap->main_ = main_;
  snap->main_end_ = main_ ? main_->end_doc : 0;
  for (const auto& chunk : chunks_) {
    if (epoch == kUnpinnedEpoch || chunk->epoch <= epoch) {
      snap->chunks_.push_back(chunk);
    }
  }
  snap->dir_base_ = dir_base_;
  snap->dir_overlay_ = dir_overlay_;

  // The latest-state pin resolves to the largest applied epoch: every
  // version satisfies born <= E there, and dead > E exactly when the
  // version is still live.
  const uint64_t pin = epoch == kUnpinnedEpoch ? max_applied_epoch_ : epoch;
  snap->applied_epoch_ = pin;

  // Prefer deriving from the nearest cached earlier pin: the change log
  // names the ordinals whose visibility moved in (base, pin], so a few
  // writes cost a few splices instead of an O(corpus) walk. Fall back to
  // the full directory walk when there is no base, too much changed, or
  // ordinals are not docid-unique (custom seeds).
  std::shared_ptr<const CorpusSnapshot> base;
  if (ordinals_unique_) {
    std::lock_guard<std::mutex> snap_lock(snap_mu_);
    auto later = snap_cache_.upper_bound(pin);
    while (later != snap_cache_.begin()) {
      --later;
      if (later->first != kUnpinnedEpoch) {
        base = later->second;
        break;
      }
    }
  }
  std::vector<std::pair<uint64_t, const DocState*>> changed;  // By ordinal.
  bool incremental = false;
  if (base != nullptr && base->applied_epoch_ <= pin) {
    auto from = std::upper_bound(
        epoch_events_.begin(), epoch_events_.end(), base->applied_epoch_,
        [](uint64_t e, const std::pair<uint64_t, uint64_t>& ev) {
          return e < ev.first;
        });
    auto to = std::upper_bound(
        from, epoch_events_.end(), pin,
        [](uint64_t e, const std::pair<uint64_t, uint64_t>& ev) {
          return e < ev.first;
        });
    const size_t span = static_cast<size_t>(to - from);
    if (span <= by_ordinal_.size() / 8) {
      incremental = true;
      changed.reserve(span);
      for (auto it = from; it != to; ++it) changed.emplace_back(it->second,
                                                               nullptr);
      std::sort(changed.begin(), changed.end());
      changed.erase(std::unique(changed.begin(), changed.end(),
                                [](const auto& a, const auto& b) {
                                  return a.first == b.first;
                                }),
                    changed.end());
      // Resolve each changed ordinal's visible version at the new pin.
      for (auto& [ordinal, state] : changed) {
        auto slot = std::lower_bound(by_ordinal_.begin(), by_ordinal_.end(),
                                     ordinal,
                                     [](const OrdinalSlot& s, uint64_t o) {
                                       return s.ordinal < o;
                                     });
        TEXTJOIN_CHECK(slot != by_ordinal_.end() && slot->ordinal == ordinal,
                       "change log names unknown ordinal");
        const std::vector<DocNum>& vers = *slot->versions;
        for (size_t i = vers.size(); i-- > 0;) {
          const DocState& s = docs_[vers[i]];
          if (s.born_epoch > pin) continue;
          if (s.dead_epoch > pin) state = &s;
          break;  // Older versions died no later than this one was born.
        }
      }
    }
  }

  const size_t total = docs_.size();
  snap->rank_of_.assign(total, CorpusSnapshot::kInvisible);
  snap->contiguous_prefix_ = true;
  if (incremental) {
    // Merge the base's visible run (ordinal-sorted) with the changed
    // ordinals: replaced versions substitute in place, deletions drop out,
    // brand-new ordinals splice in at their sorted position. Track whether
    // every base rank survived unmoved (substitutions and tail appends
    // only) — the precondition for inheriting the base's list memo.
    bool ranks_preserved = true;
    std::vector<std::pair<const DocState*, const DocState*>> swapped;
    snap->visible_.reserve(base->visible_.size() + changed.size());
    size_t ci = 0;
    auto emit_changed_below = [&](uint64_t bound, bool tail) {
      for (; ci < changed.size() && changed[ci].first < bound; ++ci) {
        if (changed[ci].second != nullptr) {
          snap->visible_.push_back(changed[ci].second);
          if (tail) {
            swapped.emplace_back(nullptr, changed[ci].second);
          } else {
            ranks_preserved = false;  // Mid-sequence splice shifts ranks.
          }
        }
      }
    };
    for (const DocState* s : base->visible_) {
      emit_changed_below(s->ordinal, /*tail=*/false);
      if (ci < changed.size() && changed[ci].first == s->ordinal) {
        if (changed[ci].second != nullptr) {
          snap->visible_.push_back(changed[ci].second);
          swapped.emplace_back(s, changed[ci].second);
        } else {
          ranks_preserved = false;  // Deletion shifts every later rank.
        }
        ++ci;
      } else {
        snap->visible_.push_back(s);
      }
    }
    emit_changed_below(kUnpinnedEpoch, /*tail=*/true);
    for (size_t rank = 0; rank < snap->visible_.size(); ++rank) {
      const DocNum version = snap->visible_[rank]->self;
      snap->rank_of_[version] = static_cast<uint32_t>(rank);
      if (version != rank) snap->contiguous_prefix_ = false;
      if (version >= snap->main_end_) ++snap->delta_docs_;
    }
    if (ranks_preserved) {
      // Every unchanged doc keeps its rank, so the base's memoized lists
      // stay byte-identical for every term no changed version carries.
      std::set<std::pair<std::string, std::string>> dirty;
      std::string buffer;
      auto mark_terms = [&](const DocState* state) {
        if (state == nullptr) return;
        for (const auto& [field, values] : state->doc.fields) {
          for (const TokenOccurrenceView& occ :
               AnalyzeFieldValueViews(values, buffer)) {
            dirty.emplace(field, std::string(occ.token));
          }
        }
      };
      for (const auto& [old_state, new_state] : swapped) {
        mark_terms(old_state);
        mark_terms(new_state);
      }
      std::lock_guard<std::mutex> memo_lock(base->memo_mu_);
      for (const auto& [key, list] : base->block_memo_) {
        if (dirty.count(key) == 0) snap->block_memo_.emplace(key, list);
      }
    }
  } else {
    // Full build: walk docids in permanent-ordinal order (pre-sorted) and
    // pick each one's visible version at the pin — the newest version born
    // at or before it. Per-docid born epochs ascend, so one back-to-front
    // scan decides; no per-build sort, no per-build docid hash map.
    snap->visible_.reserve(by_ordinal_.size());
    for (const OrdinalSlot& slot : by_ordinal_) {
      const std::vector<DocNum>& vers = *slot.versions;
      for (size_t i = vers.size(); i-- > 0;) {
        const DocNum version = vers[i];
        const DocState& s = docs_[version];
        if (s.born_epoch > pin) continue;
        if (s.dead_epoch > pin) {
          const uint32_t rank = static_cast<uint32_t>(snap->visible_.size());
          snap->visible_.push_back(&s);
          snap->rank_of_[version] = rank;
          if (version != rank) snap->contiguous_prefix_ = false;
          if (version >= snap->main_end_) ++snap->delta_docs_;
        }
        break;  // Older versions died no later than this one was born.
      }
    }
  }

  bool chunks_folded = true;
  for (const auto& chunk : snap->chunks_) {
    if (chunk->end_doc > snap->main_end_) chunks_folded = false;
  }
  snap->identity_ = snap->contiguous_prefix_ && snap->main_ != nullptr &&
                    snap->main_end_ == total &&
                    snap->visible_.size() == total && chunks_folded;
  return snap;
}

CorpusPinInfo LiveCorpus::pin_info() const {
  return Snapshot(kUnpinnedEpoch)->pin_info();
}

Result<EngineSearchResult> LiveCorpus::Search(const TextQuery& query) const {
  return Snapshot(kUnpinnedEpoch)->Search(query);
}

const Document& LiveCorpus::GetDocument(DocNum num) const {
  // The returned reference aims into the version deque, which never moves
  // or destroys elements — valid beyond the snapshot's lifetime.
  return Snapshot(kUnpinnedEpoch)->GetDocument(num);
}

Result<DocNum> LiveCorpus::FindDocid(const std::string& docid) const {
  return Snapshot(kUnpinnedEpoch)->FindDocid(docid);
}

// ---------------------------------------------------------------------------
// LiveCorpus — segment merge

size_t LiveCorpus::MergePass(MergeFault fault) {
  std::lock_guard<std::mutex> merge_lock(merge_mu_);

  // Phase 1: capture the fold target under a shared lock. DocState
  // pointers are stable (deque) and the fields the build reads (doc,
  // born_epoch, ordinal) are immutable after append.
  size_t covered = 0;
  size_t target_end = 0;
  bool leftovers = false;
  std::vector<const DocState*> states;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    covered = main_ ? main_->end_doc : 0;
    target_end = docs_.size();
    for (const auto& chunk : chunks_) {
      if (chunk->end_doc <= covered) leftovers = true;
    }
    if (target_end > covered) {
      states.reserve(target_end);
      for (size_t i = 0; i < target_end; ++i) states.push_back(&docs_[i]);
    } else if (!leftovers) {
      return 0;  // Nothing to fold, nothing to prune.
    }
  }

  // Phase 2a: build the replacement segment outside every corpus lock.
  // The segment indexes EVERY version in [0, target_end): tombstones are
  // snapshot-side masks, so a version dead now may still be visible to a
  // query pinned at an older epoch.
  std::shared_ptr<Segment> built;
  if (target_end > covered) {
    built = std::make_shared<Segment>();
    for (size_t i = 0; i < target_end; ++i) {
      built->index.AddDocument(static_cast<DocNum>(i), states[i]->doc);
    }
    built->end_doc = static_cast<DocNum>(target_end);
  }

  // Phase 2b: publish + prune under the unique lock.
  size_t folded = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    ++merge_stats_.passes;
    if (fault == MergeFault::kAbortBeforePublish) {
      ++merge_stats_.aborted_before_publish;
      return 0;  // "Crash" before publish: the built segment evaporates.
    }
    if (built != nullptr) {
      main_ = std::move(built);
      folded = target_end - covered;
      merge_stats_.docs_folded += folded;
      ++merge_stats_.published;
      write_seq_.fetch_add(1, std::memory_order_acq_rel);
    }
    if (fault == MergeFault::kSkipPrune) {
      // "Crash" after publish, before pruning: covered chunks stay behind.
      // The snapshot read path skips chunk postings below the main
      // boundary, so they are invisible; the next clean pass prunes them.
      ++merge_stats_.published_unpruned;
    } else {
      const size_t boundary = main_ ? main_->end_doc : 0;
      auto kept = chunks_.begin();
      for (auto& chunk : chunks_) {
        if (chunk->end_doc <= boundary) {
          ++merge_stats_.chunks_pruned;
        } else {
          *kept++ = std::move(chunk);
        }
      }
      chunks_.erase(kept, chunks_.end());
    }
  }
  {
    // Refresh the latest-state sentinel so it reports the merged layout.
    // Pinned entries stay: a merge changes the REPRESENTATION, not what any
    // epoch can see, so cached snapshots remain correct (they keep the old
    // segment alive until the pins age out of the cache). New pins rebuild
    // against the merged layout and take the borrowed-list fast paths.
    std::lock_guard<std::mutex> lock(snap_mu_);
    snap_cache_.erase(kUnpinnedEpoch);
  }
  return folded;
}

size_t LiveCorpus::PendingDeltaDocs() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const size_t covered = main_ ? main_->end_doc : 0;
  size_t pending = docs_.size() - covered;
  for (const auto& chunk : chunks_) {
    if (chunk->end_doc <= covered) ++pending;  // kSkipPrune leftovers.
  }
  return pending;
}

MergeStats LiveCorpus::merge_stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return merge_stats_;
}

// ---------------------------------------------------------------------------
// CorpusSnapshot

/// ListProvider over a snapshot: main-segment lists tombstone-masked and
/// merged with the delta chunks at or below the pinned epoch, rebased to
/// visibility ranks. Borrows main lists untouched whenever the snapshot
/// proves the mask is a no-op for them.
class CorpusSnapshot::MaskedLists final : public ListProvider {
 public:
  explicit MaskedLists(const CorpusSnapshot* snap) : snap_(snap) {}

  Result<PostingList> GetList(const std::string& field,
                              const std::string& token) const override {
    return snap_->MaskedList(field, token);
  }

  Result<std::vector<PostingList>> GetPrefixLists(
      const std::string& field, const std::string& prefix) const override {
    std::vector<PostingList> lists;
    for (const std::string& token : snap_->PrefixTokens(field, prefix)) {
      PostingList list = snap_->MaskedList(field, token);
      if (!list.empty()) lists.push_back(std::move(list));
    }
    return lists;
  }

  Result<BlockListHandle> GetBlockList(
      const std::string& field, const std::string& token) const override {
    if (snap_->identity_) {
      return BlockListHandle::Borrowed(
          &snap_->main_->index.Lookup(field, token));
    }
    if (snap_->contiguous_prefix_ && snap_->main_ != nullptr &&
        !snap_->ChunkHasToken(field, token)) {
      const BlockPostings& list = snap_->main_->index.Lookup(field, token);
      if (list.empty() ||
          list.last_doc() < static_cast<DocNum>(snap_->visible_.size())) {
        // Every doc in the list is a visible version whose rank equals its
        // version index: the mask is the identity for this list.
        return BlockListHandle::Borrowed(&list);
      }
    }
    return BlockListHandle::Owned(snap_->MemoizedBlockList(field, token));
  }

  Result<std::vector<BlockListHandle>> GetBlockPrefixLists(
      const std::string& field, const std::string& prefix) const override {
    std::vector<BlockListHandle> handles;
    if (snap_->identity_) {
      for (const BlockPostings* list :
           snap_->main_->index.LookupPrefix(field, prefix)) {
        handles.push_back(BlockListHandle::Borrowed(list));
      }
      return handles;
    }
    for (const std::string& token : snap_->PrefixTokens(field, prefix)) {
      TEXTJOIN_ASSIGN_OR_RETURN(BlockListHandle handle,
                                GetBlockList(field, token));
      if (!handle->empty()) handles.push_back(std::move(handle));
    }
    return handles;
  }

 private:
  const CorpusSnapshot* snap_;
};

std::shared_ptr<const BlockPostings> CorpusSnapshot::MemoizedBlockList(
    const std::string& field, const std::string& token) const {
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto it = block_memo_.find({field, token});
    if (it != block_memo_.end()) return it->second;
  }
  auto built = std::make_shared<const BlockPostings>(
      BlockPostingsFromList(MaskedList(field, token)));
  std::lock_guard<std::mutex> lock(memo_mu_);
  auto [it, inserted] = block_memo_.emplace(std::make_pair(field, token),
                                            std::move(built));
  return it->second;  // A racer's copy wins the tie; both are identical.
}

PostingList CorpusSnapshot::MaskedList(const std::string& field,
                                       const std::string& token) const {
  PostingList out;
  bool sorted = true;
  if (main_ != nullptr) {
    const BlockPostings& list = main_->index.Lookup(field, token);
    for (BlockPostings::Cursor cur(list); !cur.at_end(); cur.Next()) {
      const uint32_t rank = rank_of_[cur.doc()];
      if (rank == kInvisible) continue;
      const auto positions = list.PositionsOf(cur.index());
      out.push_back(Posting{
          rank, std::vector<TokenPos>(positions.begin(), positions.end())});
      if (out.size() >= 2 && out[out.size() - 2].doc > out.back().doc) {
        sorted = false;
      }
    }
  }
  for (const auto& chunk : chunks_) {
    auto field_it = chunk->fields.find(field);
    if (field_it == chunk->fields.end()) continue;
    auto token_it = field_it->second.find(token);
    if (token_it == field_it->second.end()) continue;
    for (const Posting& p : token_it->second) {
      // Versions below the main boundary are already served (masked) from
      // the main segment — this guard is what makes a crash-after-publish
      // leftover chunk, and a re-merge over it, observationally inert.
      if (p.doc < main_end_) continue;
      const uint32_t rank = rank_of_[p.doc];
      if (rank == kInvisible) continue;
      out.push_back(Posting{rank, p.positions});
      if (out.size() >= 2 && out[out.size() - 2].doc > out.back().doc) {
        sorted = false;
      }
    }
  }
  if (!sorted) {
    std::sort(out.begin(), out.end(),
              [](const Posting& a, const Posting& b) { return a.doc < b.doc; });
  }
  return out;
}

bool CorpusSnapshot::ChunkHasToken(std::string_view field,
                                   std::string_view token) const {
  for (const auto& chunk : chunks_) {
    if (chunk->end_doc <= main_end_) continue;  // Fully covered by main.
    auto field_it = chunk->fields.find(field);
    if (field_it == chunk->fields.end()) continue;
    if (field_it->second.find(token) != field_it->second.end()) return true;
  }
  return false;
}

std::vector<std::string> CorpusSnapshot::PrefixTokens(
    const std::string& field, const std::string& prefix) const {
  // Ascending unique token names across the main segment and every chunk
  // (ordered maps on both sides keep each source pre-sorted).
  std::vector<std::string> tokens;
  if (main_ != nullptr) {
    main_->index.ForEachPrefix(
        field, prefix,
        [&tokens](const std::string& token, const BlockPostings&) {
          tokens.push_back(token);
        });
  }
  const std::string lower = ToLower(prefix);
  for (const auto& chunk : chunks_) {
    if (chunk->end_doc <= main_end_) continue;
    auto field_it = chunk->fields.find(field);
    if (field_it == chunk->fields.end()) continue;
    for (auto it = field_it->second.lower_bound(lower);
         it != field_it->second.end() && StartsWith(it->first, lower); ++it) {
      tokens.push_back(it->first);
    }
  }
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

Result<EngineSearchResult> CorpusSnapshot::Search(
    const TextQuery& query) const {
  MaskedLists lists(this);
  return EvaluateBooleanQuery(query, lists, visible_.size(),
                              max_search_terms_, exhaustive_);
}

const Document& CorpusSnapshot::GetDocument(DocNum num) const {
  TEXTJOIN_CHECK(num < visible_.size(), "document number %u out of range",
                 num);
  return visible_[num]->doc;
}

Result<DocNum> CorpusSnapshot::FindDocid(const std::string& docid) const {
  // Resolve the docid's permanent ordinal from the shared directory (the
  // tiny overlay first — newest entries — then the folded base), then
  // binary-search the ordinal-sorted visible set. A docid that exists but
  // is deleted or born after the pin simply has no visible entry.
  const std::string_view key(docid);
  int64_t ordinal = -1;
  if (dir_overlay_ != nullptr) {
    for (size_t i = dir_overlay_->size(); i-- > 0;) {
      if ((*dir_overlay_)[i].docid == key) {
        ordinal = static_cast<int64_t>((*dir_overlay_)[i].ordinal);
        break;
      }
    }
  }
  if (ordinal < 0 && dir_base_ != nullptr) {
    auto it = dir_base_->find(key);
    if (it != dir_base_->end()) ordinal = static_cast<int64_t>(it->second);
  }
  if (ordinal >= 0) {
    const uint64_t target = static_cast<uint64_t>(ordinal);
    auto it = std::lower_bound(
        visible_.begin(), visible_.end(), target,
        [](const LiveCorpus::DocState* s, uint64_t o) { return s->ordinal < o; });
    // Seeding with caller-chosen ordinals may duplicate them across docids;
    // verify the docid within the equal-ordinal run.
    for (; it != visible_.end() && (*it)->ordinal == target; ++it) {
      if ((*it)->doc.docid == docid) {
        return static_cast<DocNum>(it - visible_.begin());
      }
    }
  }
  return Status::NotFound("no document with docid '" + docid + "'");
}

std::vector<Document> CorpusSnapshot::VisibleDocuments() const {
  std::vector<Document> docs;
  docs.reserve(visible_.size());
  for (const LiveCorpus::DocState* state : visible_) {
    docs.push_back(state->doc);
  }
  return docs;
}

CorpusPinInfo CorpusSnapshot::pin_info() const {
  CorpusPinInfo info;
  info.mutable_corpus = true;
  info.epoch = applied_epoch_;
  info.delta_docs = delta_docs_;
  info.visible_docs = visible_.size();
  return info;
}

// ---------------------------------------------------------------------------
// SegmentMergeWorker

SegmentMergeWorker::SegmentMergeWorker(std::vector<LiveCorpus*> corpora,
                                       MergeWorkerOptions options)
    : corpora_(std::move(corpora)), options_(std::move(options)) {}

SegmentMergeWorker::~SegmentMergeWorker() { Stop(); }

void SegmentMergeWorker::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, options_.interval, [this] { return stop_; });
      if (stop_) break;
      size_t pending = 0;
      for (LiveCorpus* corpus : corpora_) pending += corpus->PendingDeltaDocs();
      if (pending == 0) continue;
      lock.unlock();
      RunOnePass();
      lock.lock();
    }
  });
}

void SegmentMergeWorker::Stop() {
  std::thread joinee;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
    running_ = false;
    joinee = std::move(thread_);
  }
  cv_.notify_all();
  if (joinee.joinable()) joinee.join();
}

size_t SegmentMergeWorker::RunOnePass() {
  MergeFault fault = MergeFault::kNone;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fault_cursor_ < options_.fault_schedule.size()) {
      fault = options_.fault_schedule[fault_cursor_++];
    }
    ++passes_;
  }
  size_t folded = 0;
  for (LiveCorpus* corpus : corpora_) folded += corpus->MergePass(fault);
  return folded;
}

bool SegmentMergeWorker::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

uint64_t SegmentMergeWorker::passes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return passes_;
}

}  // namespace textjoin
