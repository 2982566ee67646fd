#ifndef LODBENCH_TRACE_H_
#define LODBENCH_TRACE_H_

// Tracing for the per-layer run, entirely outside the program: spans are
// opened around calls into each layer's public functions, and a
// TripleSource decorator times the boundary between sparql and the store
// (rdf or storage). Spans of one request share its id; a span's self time
// is its duration minus the time its children cover.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "rdf/triple_source.h"
#include "serve/plan_cache.h"
#include "util.h"

namespace lodbench {

class Tracer {
 public:
  struct Record {
    const char* name;
    uint64_t request;
    int64_t start_ns;
    int64_t end_ns;
    int64_t child_ns;
    uint32_t thread;
  };
  struct Summary {
    uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
  };

  /// Per-name totals over every closed span.
  std::map<std::string, Summary> Summarize() const;
  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  friend class Span;
  void Add(const Record& r);

  mutable std::mutex mu_;
  std::vector<Record> records_;
  uint64_t dropped_ = 0;
};

/// RAII span; a null tracer makes it a no-op, so untraced code paths pay
/// one branch.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t request);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attributes `ns` of child time that was not recorded as a span (the
  /// store time a TracedSource accumulates, possibly on pool threads).
  void AddChildNs(int64_t ns) { child_ns_ += ns; }
  int64_t ElapsedNs() const;

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t request_;
  int64_t start_ns_;
  int64_t child_ns_ = 0;
  Span* parent_;
};

/// Decorator over any TripleSource that counts calls, delivered triples
/// and the time spent inside the source (the caller's callback time is
/// excluded), and keeps each call's interval. Executor fan-out scans from
/// pool threads, so the counters are atomics and the intervals are locked;
/// summed source time can then exceed wall time, and a span's self time
/// subtracts the wall time its source calls cover instead.
class TracedSource : public lodviz::rdf::TripleSource {
 public:
  explicit TracedSource(const lodviz::rdf::TripleSource* base) : base_(base) {}

  void Scan(const lodviz::rdf::TriplePattern& pattern,
            const ScanFn& fn) const override;
  void ScanRuns(const lodviz::rdf::TriplePattern& pattern,
                const ScanRunFn& fn) const override;
  uint64_t Count(const lodviz::rdf::TriplePattern& pattern) const override;
  const lodviz::rdf::Dictionary& dict() const override { return base_->dict(); }
  uint64_t size() const override { return base_->size(); }
  uint64_t PredicateCount(lodviz::rdf::TermId p) const override;
  uint64_t PairCount(lodviz::rdf::TermId s,
                     lodviz::rdf::TermId p) const override;

  int64_t source_ns() const { return ns_.load(); }
  /// Wall time within [from_ns, to_ns] covered by at least one call.
  int64_t CoveredNs(int64_t from_ns, int64_t to_ns) const;
  uint64_t scan_calls() const { return scans_.load(); }
  uint64_t triples() const { return triples_.load(); }

 private:
  /// Records one call that ran over [start_ns, end_ns] and spent `ns`
  /// of it inside the source.
  void Charge(int64_t start_ns, int64_t end_ns, int64_t ns) const;

  const lodviz::rdf::TripleSource* base_;
  mutable std::atomic<int64_t> ns_{0};
  mutable std::atomic<uint64_t> scans_{0};
  mutable std::atomic<uint64_t> triples_{0};
  mutable std::mutex mu_;
  mutable std::vector<std::pair<int64_t, int64_t>> intervals_;
};

/// Per-layer totals of replayed requests.
struct ReplayTotals {
  uint64_t queries = 0;
  uint64_t rows = 0;
  double source_ns = 0;
  uint64_t scan_calls = 0;
  uint64_t triples = 0;

  void Merge(const ReplayTotals& o) {
    queries += o.queries;
    rows += o.rows;
    source_ns += o.source_ns;
    scan_calls += o.scan_calls;
    triples += o.triples;
  }
};

/// The serving pipeline replayed stage by stage, each stage a span:
/// ParseQuery -> CanonicalQueryKey + PlanCache lookup -> Plan (on a
/// miss) -> ExecutePlanned over a TracedSource -> ResultTableJson. The
/// stages and their order are those of serve::Frontend::Handle.
class PipelineReplay {
 public:
  PipelineReplay(const lodviz::rdf::TripleSource* source,
                 size_t plan_cache_capacity, Tracer* tracer);

  /// Runs one SELECT/ASK query; returns the JSON body (or an error text)
  /// and adds its counts to `totals`.
  std::string Run(const std::string& query, uint64_t request,
                  ReplayTotals* totals);

 private:
  const lodviz::rdf::TripleSource* source_;
  lodviz::serve::PlanCache cache_;
  Tracer* tracer_;
};

/// Fills the serve, sparql, rdf/storage-source and exec layer metrics of
/// a traced window from its spans, replay totals and obs counter deltas.
/// `executed` counts every query the program ran in the window (replayed
/// and served), the base of the per-query counter ratios.
void FillQueryLayers(const Tracer& tracer, const ReplayTotals& totals,
                     const std::map<std::string, uint64_t>& deltas,
                     uint64_t executed, bool disk_source, Layers* layers);

}  // namespace lodbench

#endif  // LODBENCH_TRACE_H_
