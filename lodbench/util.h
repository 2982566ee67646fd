#ifndef LODBENCH_UTIL_H_
#define LODBENCH_UTIL_H_

// Small shared pieces of the benchmark: percentiles, result hashing, the
// metric list every workload fills in, obs counter deltas and memory
// readings.

#include <malloc.h>
#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace lodbench {

using lodviz::Rng;
using lodviz::ZipfSampler;

/// Monotonic nanoseconds on the program's shared clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             lodviz::Stopwatch::Now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in [0, 1]) of `values`; sorts in place.
inline double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

inline double Median(std::vector<double> values) {
  return Percentile(values, 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// FNV-1a/64 over an answer's bytes; answers are compared by hash so a
/// run keeps one word per operation instead of every response body.
inline uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Aborts the benchmark (non-zero exit, no result line) on a set-up
/// failure; operation failures during a run are counted, never fatal.
template <typename T>
T Must(lodviz::Result<T> r, const char* what) {
  if (!r.ok()) {
    std::cerr << "lodbench: " << what << ": " << r.status().ToString()
              << "\n";
    std::exit(2);
  }
  return std::move(r).ValueOrDie();
}

inline void MustOk(const lodviz::Status& s, const char* what) {
  if (!s.ok()) {
    std::cerr << "lodbench: " << what << ": " << s.ToString() << "\n";
    std::exit(2);
  }
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports: the answer check, the operation counts
/// and the metrics of the requested mode (end-to-end or per-layer).
struct RunResult {
  /// False when an answer differed from the reference for any reason
  /// other than the known duplicate-triple defect (see oracle.h).
  bool correct = true;
  uint64_t attempted = 0;
  /// Failed + wrong-answer + shed operations (error_frac numerator).
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Before/after values of the obs registry counters the per-layer
/// metrics are derived from.
class CounterDelta {
 public:
  static const std::vector<std::string>& Names() {
    static const std::vector<std::string> names = {
        "serve.requests",
        "serve.shed",
        "serve.plan_cache.hits",
        "serve.plan_cache.misses",
        "serve.plan_cache.evictions",
        "serve.plan_cache.collisions",
        "storage.buffer_pool.hits",
        "storage.buffer_pool.misses",
        "storage.buffer_pool.evictions",
        "sparql.intermediate_rows",
        "sparql.rows_out",
        "exec.pool.tasks",
    };
    return names;
  }

  CounterDelta() : before_(Read()) {}
  /// Counter increments since construction.
  std::map<std::string, uint64_t> Take() const {
    std::map<std::string, uint64_t> now = Read();
    for (auto& [name, value] : now) value -= before_.at(name);
    return now;
  }

 private:
  static std::map<std::string, uint64_t> Read() {
    std::map<std::string, uint64_t> out;
    auto& registry = lodviz::obs::MetricRegistry::Global();
    for (const std::string& name : Names()) {
      out[name] = registry.GetCounter(name).value();
    }
    return out;
  }
  std::map<std::string, uint64_t> before_;
};

inline double Ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// Moves where the next allocations land in physical memory. On a
/// virtualized host the speed of memory-bound code depends on which
/// physical pages back it (up to 2x apart here), fixed for a process's
/// lifetime once its heap is faulted in; a run that sets up repeatedly
/// with a different shift each time averages over placements instead of
/// drawing one. Returns freed heap memory to the OS, then holds `round`-
/// dependent touched anonymous memory until destroyed.
class PlacementShift {
 public:
  explicit PlacementShift(size_t round)
      : bytes_((40 + (round % 8) * 32) << 20) {
    malloc_trim(0);
    void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      bytes_ = 0;
      return;
    }
    memory_ = p;
    std::memset(memory_, 1, bytes_);
  }
  ~PlacementShift() {
    if (memory_ != nullptr) munmap(memory_, bytes_);
  }
  PlacementShift(const PlacementShift&) = delete;
  PlacementShift& operator=(const PlacementShift&) = delete;

 private:
  size_t bytes_;
  void* memory_ = nullptr;
};

/// Peak resident memory of what runs between construction and Mb(), net
/// of what the process already held at construction (inputs, reference
/// stores, a PlacementShift): the kernel's high-water mark, reset at
/// construction through /proc/self/clear_refs, minus the resident memory
/// at that moment.
class PeakRss {
 public:
  PeakRss() {
    FILE* f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr || std::fputs("5", f) < 0 || std::fclose(f) != 0) {
      std::cerr << "lodbench: cannot reset the peak RSS "
                   "(/proc/self/clear_refs)\n";
      std::exit(2);
    }
    base_mb_ = StatusMb("VmRSS:");
  }
  double Mb() const { return StatusMb("VmHWM:") - base_mb_; }

 private:
  /// A kB field of /proc/self/status, in MB.
  static double StatusMb(const char* field) {
    long kb = -1;
    if (FILE* f = std::fopen("/proc/self/status", "r")) {
      char line[256];
      const size_t n = std::strlen(field);
      while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, field, n) == 0) {
          kb = std::strtol(line + n, nullptr, 10);
          break;
        }
      }
      std::fclose(f);
    }
    if (kb < 0) {
      std::cerr << "lodbench: no " << field << " in /proc/self/status\n";
      std::exit(2);
    }
    return static_cast<double>(kb) / 1024.0;
  }

  double base_mb_ = 0;
};

/// The end-to-end metrics of the untraced run, reported by every workload.
struct EndToEnd {
  double setup_s = 0;
  double throughput_ops = 0;
  double latency_p50_ms = 0;
  double latency_p95_ms = 0;
  double peak_rss_mb = 0;
  double store_bytes_per_triple = 0;
  double ingest_triples_per_s = 0;

  void Emit(RunResult* r) const {
    r->Add("setup_s", setup_s, "s");
    r->Add("throughput_ops", throughput_ops, "1/s");
    r->Add("latency_p50_ms", latency_p50_ms, "ms");
    r->Add("latency_p95_ms", latency_p95_ms, "ms");
    r->Add("peak_rss_mb", peak_rss_mb, "MB");
    r->Add("store_bytes_per_triple", store_bytes_per_triple, "B");
    r->Add("ingest_triples_per_s", ingest_triples_per_s, "1/s");
  }
};

/// The per-layer metrics of the traced run. Every workload reports all of
/// them; a layer the workload does not exercise reads 0.
struct Layers {
  double serve_transport_ms = 0;
  double serve_http_parse_us = 0;
  double serve_serialize_ns_per_row = 0;
  double serve_plan_cache_hit_rate = 0;
  double serve_shed_frac = 0;
  double sparql_parse_us = 0;
  double sparql_plan_us = 0;
  double sparql_execute_self_ms = 0;
  double sparql_rows_examined_per_row = 0;
  double rdf_source_ms_per_query = 0;
  double rdf_scan_calls_per_query = 0;
  double rdf_ns_per_triple_scanned = 0;
  double rdf_ingest_us_per_triple = 0;
  double storage_source_ms_per_query = 0;
  double storage_pool_hit_rate = 0;
  double storage_pool_misses_per_query = 0;
  double storage_pool_evictions_per_query = 0;
  double storage_mirror_build_s = 0;
  double exec_tasks_per_query = 0;
  double explore_facets_ms = 0;
  double explore_keyword_build_ms = 0;
  double explore_search_ms = 0;
  double hier_hetree_build_ms = 0;
  double viz_render_ms = 0;
  double core_query_ms = 0;
  double trace_overhead_frac = 0;

  void Emit(RunResult* r) const {
    r->Add("serve.transport_ms", serve_transport_ms, "ms");
    r->Add("serve.http_parse_us", serve_http_parse_us, "us");
    r->Add("serve.serialize_ns_per_row", serve_serialize_ns_per_row, "ns");
    r->Add("serve.plan_cache_hit_rate", serve_plan_cache_hit_rate, "ratio");
    r->Add("serve.shed_frac", serve_shed_frac, "ratio");
    r->Add("sparql.parse_us", sparql_parse_us, "us");
    r->Add("sparql.plan_us", sparql_plan_us, "us");
    r->Add("sparql.execute_self_ms", sparql_execute_self_ms, "ms");
    r->Add("sparql.rows_examined_per_row", sparql_rows_examined_per_row,
           "ratio");
    r->Add("rdf.source_ms_per_query", rdf_source_ms_per_query, "ms");
    r->Add("rdf.scan_calls_per_query", rdf_scan_calls_per_query, "count");
    r->Add("rdf.ns_per_triple_scanned", rdf_ns_per_triple_scanned, "ns");
    r->Add("rdf.ingest_us_per_triple", rdf_ingest_us_per_triple, "us");
    r->Add("storage.source_ms_per_query", storage_source_ms_per_query, "ms");
    r->Add("storage.pool_hit_rate", storage_pool_hit_rate, "ratio");
    r->Add("storage.pool_misses_per_query", storage_pool_misses_per_query,
           "count");
    r->Add("storage.pool_evictions_per_query",
           storage_pool_evictions_per_query, "count");
    r->Add("storage.mirror_build_s", storage_mirror_build_s, "s");
    r->Add("exec.tasks_per_query", exec_tasks_per_query, "count");
    r->Add("explore.facets_ms", explore_facets_ms, "ms");
    r->Add("explore.keyword_build_ms", explore_keyword_build_ms, "ms");
    r->Add("explore.search_ms", explore_search_ms, "ms");
    r->Add("hier.hetree_build_ms", hier_hetree_build_ms, "ms");
    r->Add("viz.render_ms", viz_render_ms, "ms");
    r->Add("core.query_ms", core_query_ms, "ms");
    r->Add("trace.overhead_frac", trace_overhead_frac, "ratio");
  }
};

}  // namespace lodbench

#endif  // LODBENCH_UTIL_H_
