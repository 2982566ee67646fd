#include "rdf/triple_store.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/check.h"

namespace lodviz::rdf {

TripleStore::TripleStore(size_t compaction_threshold)
    : compaction_threshold_(compaction_threshold) {}

TripleStore::TripleStore(TripleStore&& other) noexcept
    LODVIZ_NO_THREAD_SAFETY_ANALYSIS
    : dict_(std::move(other.dict_)),
      compaction_threshold_(other.compaction_threshold_),
      pred_counts_(std::move(other.pred_counts_)) {
  MutexLock lock(&other.mu_);
  spo_ = std::move(other.spo_);
  pos_ = std::move(other.pos_);
  osp_ = std::move(other.osp_);
  pending_ = std::move(other.pending_);
}

TripleStore& TripleStore::operator=(TripleStore&& other) noexcept
    LODVIZ_NO_THREAD_SAFETY_ANALYSIS {
  if (this == &other) return *this;
  dict_ = std::move(other.dict_);
  compaction_threshold_ = other.compaction_threshold_;
  pred_counts_ = std::move(other.pred_counts_);
  MutexLock lock_other(&other.mu_);
  MutexLock lock_this(&mu_);
  spo_ = std::move(other.spo_);
  pos_ = std::move(other.pos_);
  osp_ = std::move(other.osp_);
  pending_ = std::move(other.pending_);
  return *this;
}

Triple TripleStore::Add(const Term& s, const Term& p, const Term& o) {
  Triple t(dict_.Intern(s), dict_.Intern(p), dict_.Intern(o));
  AddEncoded(t);
  return t;
}

void TripleStore::AddEncoded(const Triple& t) {
  LODVIZ_DCHECK(t.s != kInvalidTermId && t.p != kInvalidTermId &&
                t.o != kInvalidTermId)
      << "triple references the reserved invalid term id";
  ++pred_counts_[t.p];
  MutexLock lock(&mu_);
  pending_.push_back(t);
  MaybeCompactLocked();
}

void TripleStore::MaybeCompactLocked() const {
  if (pending_.size() >= compaction_threshold_) CompactLocked();
}

void TripleStore::Compact() const {
  MutexLock lock(&mu_);
  CompactLocked();
}

namespace {

/// Merges `delta` (sorted by `order`, disjoint from `index`) into the
/// sorted `index` in one pass, into storage sized exactly for the result:
/// the indexes hold no growth slack between compactions.
template <typename Order>
void MergeInto(std::vector<Triple>* index, const std::vector<Triple>& delta,
               Order order) {
  std::vector<Triple> merged;
  merged.reserve(index->size() + delta.size());
  std::merge(index->begin(), index->end(), delta.begin(), delta.end(),
             std::back_inserter(merged), order);
  index->swap(merged);
}

/// Delivers [lo, hi) as maximal contiguous spans of pattern matches —
/// zero-copy runs straight out of the sorted index (or pending buffer).
bool RunRange(const Triple* lo, const Triple* hi, const TriplePattern& pattern,
              const TripleSource::ScanRunFn& fn) {
  const Triple* it = lo;
  while (it != hi) {
    while (it != hi && !pattern.Matches(*it)) ++it;
    const Triple* start = it;
    while (it != hi && pattern.Matches(*it)) ++it;
    if (it != start && !fn(start, static_cast<size_t>(it - start))) {
      return false;
    }
  }
  return true;
}

}  // namespace

void TripleStore::CompactLocked() const {
  if (pending_.empty()) return;
  // Only the delta is sorted: deduplicate it, drop the triples the indexes
  // already hold, then merge it into each permutation. O(n + k log k) for
  // k pending triples over n indexed ones.
  std::sort(pending_.begin(), pending_.end(), OrderSpo());
  pending_.erase(std::unique(pending_.begin(), pending_.end()),
                 pending_.end());
  const std::vector<Triple>& indexed = spo_;
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [&](const Triple& t) {
                                  return std::binary_search(indexed.begin(),
                                                            indexed.end(), t,
                                                            OrderSpo());
                                }),
                 pending_.end());
  if (pending_.empty()) return;
  MergeInto(&spo_, pending_, OrderSpo());
  std::sort(pending_.begin(), pending_.end(), OrderPos());
  MergeInto(&pos_, pending_, OrderPos());
  std::sort(pending_.begin(), pending_.end(), OrderOsp());
  MergeInto(&osp_, pending_, OrderOsp());
  pending_.clear();
}

void TripleStore::Scan(const TriplePattern& pattern, const ScanFn& fn) const {
  MutexLock lock(&mu_);
  ScanLocked(pattern, fn);
}

void TripleStore::ScanRuns(const TriplePattern& pattern,
                           const ScanRunFn& fn) const {
  MutexLock lock(&mu_);
  ScanRunsLocked(pattern, fn);
}

void TripleStore::ScanLocked(
    const TriplePattern& pattern,
    const std::function<bool(const Triple&)>& fn) const {
  // Per-triple delivery is the run delivery unrolled, so both entry points
  // share one index-selection path (and provably one order).
  ScanRunsLocked(pattern, [&](const Triple* run, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (!fn(run[i])) return false;
    }
    return true;
  });
}

void TripleStore::ScanRunsLocked(const TriplePattern& pattern,
                                 const ScanRunFn& fn) const {
  bool keep_going = true;
  if (!spo_.empty() || !pending_.empty()) {
    if (pattern.s != kInvalidTermId) {
      // SPO index: range over (s) or (s,p) prefix.
      Triple lo(pattern.s, pattern.p, 0);
      Triple hi(pattern.s,
                pattern.p != kInvalidTermId ? pattern.p : ~TermId(0),
                ~TermId(0));
      auto b = std::lower_bound(spo_.begin(), spo_.end(), lo, OrderSpo());
      auto e = std::upper_bound(spo_.begin(), spo_.end(), hi, OrderSpo());
      keep_going = RunRange(spo_.data() + (b - spo_.begin()),
                            spo_.data() + (e - spo_.begin()), pattern, fn);
    } else if (pattern.p != kInvalidTermId) {
      // POS index: range over (p) or (p,o) prefix.
      Triple lo(0, pattern.p, pattern.o);
      Triple hi(~TermId(0), pattern.p,
                pattern.o != kInvalidTermId ? pattern.o : ~TermId(0));
      auto b = std::lower_bound(pos_.begin(), pos_.end(), lo, OrderPos());
      auto e = std::upper_bound(pos_.begin(), pos_.end(), hi, OrderPos());
      keep_going = RunRange(pos_.data() + (b - pos_.begin()),
                            pos_.data() + (e - pos_.begin()), pattern, fn);
    } else if (pattern.o != kInvalidTermId) {
      // OSP index: range over (o).
      Triple lo(0, 0, pattern.o);
      Triple hi(~TermId(0), ~TermId(0), pattern.o);
      auto b = std::lower_bound(osp_.begin(), osp_.end(), lo, OrderOsp());
      auto e = std::upper_bound(osp_.begin(), osp_.end(), hi, OrderOsp());
      keep_going = RunRange(osp_.data() + (b - osp_.begin()),
                            osp_.data() + (e - osp_.begin()), pattern, fn);
    } else {
      keep_going =
          RunRange(spo_.data(), spo_.data() + spo_.size(), pattern, fn);
    }
  }
  if (!keep_going) return;
  RunRange(pending_.data(), pending_.data() + pending_.size(), pattern, fn);
}

std::vector<Triple> TripleStore::Match(const TriplePattern& pattern) const {
  std::vector<Triple> out;
  Scan(pattern, [&](const Triple& t) {
    out.push_back(t);
    return true;
  });
  return out;
}

uint64_t TripleStore::Count(const TriplePattern& pattern) const {
  uint64_t n = 0;
  Scan(pattern, [&](const Triple&) {
    ++n;
    return true;
  });
  return n;
}

std::vector<TermId> TripleStore::DistinctSubjects() const {
  MutexLock lock(&mu_);
  CompactLocked();
  std::vector<TermId> out;
  TermId last = kInvalidTermId;
  for (const Triple& t : spo_) {
    if (t.s != last) {
      out.push_back(t.s);
      last = t.s;
    }
  }
  return out;
}

std::vector<TermId> TripleStore::DistinctObjects(TermId p) const {
  MutexLock lock(&mu_);
  CompactLocked();
  std::vector<TermId> out;
  TriplePattern pat(kInvalidTermId, p, kInvalidTermId);
  ScanLocked(pat, [&](const Triple& t) {
    out.push_back(t.o);
    return true;
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t TripleStore::MemoryUsage() const {
  MutexLock lock(&mu_);
  return dict_.MemoryUsage() +
         (spo_.capacity() + pos_.capacity() + osp_.capacity() +
          pending_.capacity()) *
             sizeof(Triple);
}

}  // namespace lodviz::rdf
