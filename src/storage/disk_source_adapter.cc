#include "storage/disk_source_adapter.h"

#include "common/logging.h"
#include "obs/metrics.h"

namespace lodviz::storage {

namespace {

obs::Counter& ScanErrors() {
  static obs::Counter& c =
      obs::MetricRegistry::Global().GetCounter("storage.adapter.scan_errors");
  return c;
}

}  // namespace

DiskSourceAdapter::DiskSourceAdapter(const DiskTripleStore* store,
                                     const rdf::Dictionary* dict)
    : store_(store), dict_(dict), order_(*dict) {}

void DiskSourceAdapter::Scan(const rdf::TriplePattern& pattern,
                             const ScanFn& fn) const {
  Status s = store_->Scan(pattern, fn);
  if (!s.ok()) {
    ScanErrors().Increment();
    LODVIZ_LOG_WARN() << "DiskSourceAdapter scan failed: " << s.ToString();
  }
}

void DiskSourceAdapter::ScanRuns(const rdf::TriplePattern& pattern,
                                 const ScanRunFn& fn) const {
  Status s = store_->ScanRuns(pattern, fn);
  if (!s.ok()) {
    ScanErrors().Increment();
    LODVIZ_LOG_WARN() << "DiskSourceAdapter scan failed: " << s.ToString();
  }
}

uint64_t DiskSourceAdapter::Count(const rdf::TriplePattern& pattern) const {
  return store_->Count(pattern);
}

uint64_t DiskSourceAdapter::CachedStat(
    uint64_t key, uint64_t (*load)(const DiskTripleStore&, uint64_t)) const {
  {
    MutexLock lock(&stats_mu_);
    auto it = stat_cache_.find(key);
    if (it != stat_cache_.end()) return it->second;
  }
  // The aggregate lookup runs outside the cache lock so concurrent misses
  // do not serialize on the buffer pool behind it.
  const uint64_t value = load(*store_, key);
  MutexLock lock(&stats_mu_);
  if (stat_cache_.size() >= kStatCacheCap) stat_cache_.clear();
  stat_cache_.emplace(key, value);
  return value;
}

uint64_t DiskSourceAdapter::PredicateCount(rdf::TermId p) const {
  return CachedStat(p, [](const DiskTripleStore& store, uint64_t key) {
    return store.PredicateCount(static_cast<rdf::TermId>(key));
  });
}

uint64_t DiskSourceAdapter::PairCount(rdf::TermId s, rdf::TermId p) const {
  const uint64_t key = (static_cast<uint64_t>(s) << 32) | p;
  return CachedStat(key, [](const DiskTripleStore& store, uint64_t k) {
    return store.PairCount(static_cast<rdf::TermId>(k >> 32),
                           static_cast<rdf::TermId>(k & 0xFFFFFFFF));
  });
}

}  // namespace lodviz::storage
