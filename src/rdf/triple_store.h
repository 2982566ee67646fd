#ifndef LODVIZ_RDF_TRIPLE_STORE_H_
#define LODVIZ_RDF_TRIPLE_STORE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "rdf/dictionary.h"
#include "rdf/triple.h"
#include "rdf/triple_source.h"

namespace lodviz::rdf {

/// In-memory triple store with three sorted permutation indexes
/// (SPO, POS, OSP) and an unsorted insert buffer for dynamic arrival.
/// Implements the TripleSource query contract (see triple_source.h for
/// the canonical Scan early-exit and ordering semantics).
///
/// The survey's "dynamic setting" precludes heavyweight preprocessing:
/// inserts are O(1) appends into a pending buffer; queries merge the sorted
/// indexes with a linear scan of the buffer, and the buffer is folded into
/// the indexes once it exceeds a threshold (amortized incremental indexing).
/// A fold sorts and deduplicates only the buffer, drops the triples already
/// indexed, and merges the rest into each permutation: O(n + k log k) for k
/// buffered triples over n indexed ones, never a re-sort of the store.
///
/// Thread-safety: the permutation indexes and pending buffer are guarded by
/// `mu_` (clang -Wthread-safety verified), so concurrent reads — which may
/// trigger a logically-const compaction — are safe. The dictionary and
/// predicate statistics are only written by Add/AddEncoded; writers must
/// still be externally serialized against each other and against readers.
class TripleStore : public TripleSource {
 public:
  /// `compaction_threshold`: pending-buffer size that triggers a fold into
  /// the sorted indexes.
  explicit TripleStore(size_t compaction_threshold = 1 << 16);

  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;

  /// Moves lock the source's index mutex; the destination must not be
  /// visible to other threads yet.
  TripleStore(TripleStore&& other) noexcept;
  TripleStore& operator=(TripleStore&& other) noexcept;

  Dictionary& dict() { return dict_; }
  const Dictionary& dict() const override { return dict_; }

  /// Interns the terms and inserts the triple. Duplicates are removed on
  /// the next compaction.
  Triple Add(const Term& s, const Term& p, const Term& o);

  /// Inserts an already-encoded triple.
  void AddEncoded(const Triple& t);

  /// Total triples (post-dedup count may be lower until compaction).
  [[nodiscard]] uint64_t size() const override LODVIZ_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return spo_.size() + pending_.size();
  }

  /// Streams matches of `pattern` to `fn` under the TripleSource Scan
  /// contract (triple_source.h): `fn` returns false to stop early, must
  /// not reenter this store (the index lock is held during the scan).
  /// Uses the best permutation index.
  void Scan(const TriplePattern& pattern, const ScanFn& fn) const override
      LODVIZ_EXCLUDES(mu_);

  /// Run-granular Scan (TripleSource contract): delivers maximal
  /// contiguous matching spans of the chosen sorted index — zero-copy
  /// pointers into the index — then spans of the pending buffer. The run
  /// concatenation is exactly the Scan sequence.
  void ScanRuns(const TriplePattern& pattern, const ScanRunFn& fn) const
      override LODVIZ_EXCLUDES(mu_);

  /// Materializes all matches.
  [[nodiscard]] std::vector<Triple> Match(const TriplePattern& pattern) const;

  /// Number of matches.
  [[nodiscard]] uint64_t Count(const TriplePattern& pattern) const override;

  /// Occurrences of predicate `p` (0 if absent).
  [[nodiscard]] uint64_t PredicateCount(TermId p) const override {
    auto it = pred_counts_.find(p);
    return it == pred_counts_.end() ? 0 : it->second;
  }

  /// Distinct predicates with occurrence counts.
  const std::unordered_map<TermId, uint64_t>& predicate_counts() const {
    return pred_counts_;
  }

  /// Distinct subjects that have at least one triple (from the SPO index +
  /// buffer; deduplicated).
  [[nodiscard]] std::vector<TermId> DistinctSubjects() const
      LODVIZ_EXCLUDES(mu_);

  /// Distinct objects of triples with predicate `p`.
  [[nodiscard]] std::vector<TermId> DistinctObjects(TermId p) const
      LODVIZ_EXCLUDES(mu_);

  /// Folds the pending buffer into the sorted indexes and deduplicates
  /// (a merge of the sorted delta; see the class comment).
  void Compact() const LODVIZ_EXCLUDES(mu_);

  /// Approximate heap bytes including the dictionary.
  [[nodiscard]] size_t MemoryUsage() const LODVIZ_EXCLUDES(mu_);

 private:
  void MaybeCompactLocked() const LODVIZ_REQUIRES(mu_);
  void CompactLocked() const LODVIZ_REQUIRES(mu_);
  void ScanLocked(const TriplePattern& pattern,
                  const std::function<bool(const Triple&)>& fn) const
      LODVIZ_REQUIRES(mu_);
  void ScanRunsLocked(const TriplePattern& pattern, const ScanRunFn& fn) const
      LODVIZ_REQUIRES(mu_);

  /// The dictionary and predicate statistics are written only by
  /// Add/AddEncoded, which the class contract (see the header comment)
  /// requires to be externally serialized against each other and against
  /// readers — so they deliberately sit outside mu_, keeping concurrent
  /// Scan/Count fully lock-free on them.
  // LINT-ALLOW(concurrency.guarded_by): written by externally-serialized Add
  Dictionary dict_;
  // LINT-ALLOW(concurrency.guarded_by): set once in the constructor
  size_t compaction_threshold_;

  /// Guards the sorted permutation indexes and the pending buffer
  /// (mutable: compaction is logically const and may run inside reads).
  mutable Mutex mu_;
  mutable std::vector<Triple> spo_ LODVIZ_GUARDED_BY(mu_);
  mutable std::vector<Triple> pos_ LODVIZ_GUARDED_BY(mu_);
  mutable std::vector<Triple> osp_ LODVIZ_GUARDED_BY(mu_);
  mutable std::vector<Triple> pending_ LODVIZ_GUARDED_BY(mu_);

  // LINT-ALLOW(concurrency.guarded_by): written by externally-serialized Add
  std::unordered_map<TermId, uint64_t> pred_counts_;
};

}  // namespace lodviz::rdf

#endif  // LODVIZ_RDF_TRIPLE_STORE_H_
