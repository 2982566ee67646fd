// Google-benchmark micro-benchmarks for the hot substrate paths: the
// per-operation costs everything else in lodviz is built on.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/random.h"
#include "exec/parallel.h"
#include "explore/keyword.h"
#include "geo/rtree.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "rdf/term_order.h"
#include "rdf/triple_store.h"
#include "serve/serialize.h"
#include "sparql/column_batch.h"
#include "sparql/engine.h"
#include "sparql/parser.h"
#include "sparql/row_append.h"
#include "stats/sketch.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "workload/synthetic_lod.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unistd.h>
#include <unordered_map>
#include <vector>

namespace lodviz {
namespace {

void BM_DictionaryIntern(benchmark::State& state) {
  rdf::Dictionary dict;
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dict.InternIri("http://bench.example/entity/" +
                       std::to_string(i++ % 100000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DictionaryIntern);

void BM_TripleStoreMatchBySubject(benchmark::State& state) {
  rdf::TripleStore store;
  Rng rng(1);
  for (int i = 0; i < 200000; ++i) {
    store.AddEncoded({static_cast<rdf::TermId>(1 + rng.Uniform(20000)),
                      static_cast<rdf::TermId>(1 + rng.Uniform(10)),
                      static_cast<rdf::TermId>(1 + rng.Uniform(50000))});
  }
  store.Compact();
  Rng qrng(2);
  for (auto _ : state) {
    rdf::TriplePattern pat(
        static_cast<rdf::TermId>(1 + qrng.Uniform(20000)),
        rdf::kInvalidTermId, rdf::kInvalidTermId);
    benchmark::DoNotOptimize(store.Count(pat));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TripleStoreMatchBySubject);

/// One compaction of the memory store: ~300 newly arrived triples merged
/// into 25k indexed ones, the size of an exploration session's ingest step.
void BM_TripleStoreCompactDelta(benchmark::State& state) {
  Rng rng(3);
  auto random_triple = [&] {
    return rdf::Triple(static_cast<rdf::TermId>(1 + rng.Uniform(2500)),
                       static_cast<rdf::TermId>(1 + rng.Uniform(10)),
                       static_cast<rdf::TermId>(1 + rng.Uniform(50000)));
  };
  std::vector<rdf::Triple> base(25000), delta(300);
  for (rdf::Triple& t : base) t = random_triple();
  for (rdf::Triple& t : delta) t = random_triple();
  std::optional<rdf::TripleStore> store;
  for (auto _ : state) {
    state.PauseTiming();
    store.reset();
    store.emplace();
    for (const rdf::Triple& t : base) store->AddEncoded(t);
    store->Compact();
    for (const rdf::Triple& t : delta) store->AddEncoded(t);
    state.ResumeTiming();
    store->Compact();
    benchmark::DoNotOptimize(store->size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(delta.size()));
}
// Each iteration re-creates the 25k store untimed; a fixed count keeps
// the run short.
BENCHMARK(BM_TripleStoreCompactDelta)->Iterations(300);

/// A full keyword-index build over 2.5k synthetic entities (~25k triples):
/// the work a bulk load leaves for the next search.
void BM_KeywordIndexBuild(benchmark::State& state) {
  rdf::TripleStore store;
  workload::GenerateSyntheticLod({.num_entities = 2500, .seed = 1}, &store);
  store.Compact();
  for (auto _ : state) {
    explore::KeywordIndex index = explore::KeywordIndex::Build(store);
    benchmark::DoNotOptimize(index.num_documents());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(store.size()));
}
BENCHMARK(BM_KeywordIndexBuild)->Unit(benchmark::kMillisecond);

void BM_BTreeLookup(benchmark::State& state) {
  std::string path = "/tmp/lodviz_microbench_" + std::to_string(::getpid());
  storage::PageFile file;
  (void)file.Open(path, true);
  storage::BufferPool pool(&file, 1024);
  std::vector<storage::BTree::Item> items;
  for (uint64_t i = 0; i < 500000; ++i) items.push_back({{i * 7, i}, i});
  auto tree = storage::BTree::BulkLoad(&pool, items);
  Rng rng(3);
  for (auto _ : state) {
    uint64_t i = rng.Uniform(500000);
    benchmark::DoNotOptimize(tree->Lookup({i * 7, i}));
  }
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_BTreeLookup);

/// Shared fixture for the leaf-format benchmarks: dense SPO-shaped keys
/// (clustered hi, small lo gaps, zero values — the triple-index common
/// case the compressed format is tuned for).
std::vector<storage::BTree::Item> LeafBenchItems() {
  std::vector<storage::BTree::Item> items;
  for (uint64_t i = 0; i < 4096; ++i) {
    items.push_back({{1000 + i / 16, (i % 16) * 3}, 0});
  }
  return items;
}

void BM_VarintGapEncode(benchmark::State& state) {
  const std::vector<storage::BTree::Item> items = LeafBenchItems();
  alignas(8) uint8_t page[storage::kPageSize] = {};
  size_t encoded = 0;
  for (auto _ : state) {
    storage::CompressedLeafBuilder builder(page, 16);
    size_t n = 0;
    while (n < items.size() && builder.Append(items[n].key, items[n].value)) {
      ++n;
    }
    benchmark::DoNotOptimize(builder.Finish());
    encoded += n;
  }
  state.SetItemsProcessed(static_cast<int64_t>(encoded));
}
BENCHMARK(BM_VarintGapEncode);

void BM_LeafDecodeFixed(benchmark::State& state) {
  // A fixed-format leaf is raw 24-byte entries after the header; decoding
  // is a bounds-checked copy-out, the baseline the varint decoder races.
  const std::vector<storage::BTree::Item> items = LeafBenchItems();
  alignas(8) uint8_t page[storage::kPageSize] = {};
  const size_t capacity = (storage::kPageSize - 16) / 24;
  const size_t n = std::min(capacity, items.size());
  std::memcpy(page + 16, items.data(), n * sizeof(storage::BTree::Item));
  std::vector<storage::BTree::Item> out;
  out.reserve(capacity);
  size_t decoded = 0;
  for (auto _ : state) {
    out.clear();
    const auto* entries =
        reinterpret_cast<const storage::BTree::Item*>(page + 16);
    out.insert(out.end(), entries, entries + n);
    benchmark::DoNotOptimize(out.data());
    decoded += n;
  }
  state.SetItemsProcessed(static_cast<int64_t>(decoded));
}
BENCHMARK(BM_LeafDecodeFixed);

void BM_LeafDecodeVarint(benchmark::State& state) {
  const std::vector<storage::BTree::Item> items = LeafBenchItems();
  alignas(8) uint8_t page[storage::kPageSize] = {};
  storage::CompressedLeafBuilder builder(page, 16);
  size_t n = 0;
  while (n < items.size() && builder.Append(items[n].key, items[n].value)) ++n;
  const uint16_t count = builder.Finish();
  storage::CompressedLeafReader reader(page, 16, count);
  std::vector<storage::BTree::Item> out;
  size_t decoded = 0;
  for (auto _ : state) {
    auto range = reader.DecodeRange(storage::Key128::Min(),
                                    storage::Key128::Max(), &out);
    benchmark::DoNotOptimize(out.data());
    decoded += range.ok() ? range->n : 0;
  }
  state.SetItemsProcessed(static_cast<int64_t>(decoded));
}
BENCHMARK(BM_LeafDecodeVarint);

/// A 10-entry range probe through BTree::RangeScanRuns into one full
/// leaf: Arg(0) fixed leaves, Arg(1) compressed. Keys (h, 0..9) make every
/// range exactly ten entries; the pool holds the whole tree, so this is
/// the in-cache cost of descent plus leaf search (fixed: two binary
/// searches; compressed: restart-directory search plus the one or two
/// 16-entry blocks the range touches).
void BM_BTreeRangeProbe(benchmark::State& state) {
  const auto format = state.range(0) == 0 ? storage::LeafFormat::kFixed
                                          : storage::LeafFormat::kCompressed;
  std::string path = "/tmp/lodviz_microbench_rp_" + std::to_string(::getpid());
  storage::PageFile file;
  (void)file.Open(path, true);
  storage::BufferPool pool(&file, 2048);
  constexpr uint64_t kGroups = 50000;
  std::vector<storage::BTree::Item> items;
  for (uint64_t h = 0; h < kGroups; ++h) {
    for (uint64_t l = 0; l < 10; ++l) items.push_back({{h << 20, l * 3}, 0});
  }
  auto tree = storage::BTree::BulkLoad(&pool, items, format);
  Rng rng(9);
  size_t delivered = 0;
  for (auto _ : state) {
    const uint64_t h = rng.Uniform(kGroups) << 20;
    Status st = tree->RangeScanRuns(
        {h, 0}, {h, ~0ULL}, [&](const storage::BTree::Item* run, size_t n) {
          benchmark::DoNotOptimize(run);
          delivered += n;
          return true;
        });
    benchmark::DoNotOptimize(st.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(delivered));
  state.SetLabel(state.range(0) == 0 ? "fixed" : "compressed");
  std::remove(path.c_str());
}
BENCHMARK(BM_BTreeRangeProbe)->Arg(0)->Arg(1);

void BM_RTreeWindowQuery(benchmark::State& state) {
  Rng rng(4);
  std::vector<geo::RTree::Entry> entries;
  for (uint64_t i = 0; i < 100000; ++i) {
    double x = rng.UniformDouble(0, 1000), y = rng.UniformDouble(0, 1000);
    entries.push_back({{x, y, x, y}, i});
  }
  geo::RTree tree;
  tree.BulkLoad(entries);
  Rng qrng(5);
  for (auto _ : state) {
    double x = qrng.UniformDouble(0, 950), y = qrng.UniformDouble(0, 950);
    uint64_t n = 0;
    tree.Search({x, y, x + 50, y + 50}, [&](const geo::RTree::Entry&) {
      ++n;
      return true;
    });
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RTreeWindowQuery);

void BM_CountMinUpdate(benchmark::State& state) {
  stats::CountMinSketch cms(4096, 4);
  uint64_t i = 0;
  for (auto _ : state) {
    cms.Add(i++ * 2654435761ULL);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinUpdate);

void BM_HyperLogLogUpdate(benchmark::State& state) {
  stats::HyperLogLog hll(14);
  uint64_t i = 0;
  for (auto _ : state) {
    hll.Add(i++ * 0x9E3779B97F4A7C15ULL);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HyperLogLogUpdate);

void BM_BufferPoolFetchHit(benchmark::State& state) {
  std::string path = "/tmp/lodviz_microbench_bp_" + std::to_string(::getpid());
  storage::PageFile file;
  (void)file.Open(path, true);
  storage::BufferPool pool(&file, 64);
  std::vector<storage::PageId> ids;
  for (int i = 0; i < 32; ++i) {
    auto p = pool.NewPage();
    ids.push_back(p->page_id());
  }
  Rng rng(6);
  for (auto _ : state) {
    auto p = pool.Fetch(ids[rng.Uniform(ids.size())]);
    benchmark::DoNotOptimize(p->data());
  }
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_BufferPoolFetchHit);

void BM_SparqlExecute(benchmark::State& state) {
  rdf::TripleStore store;
  rdf::Dictionary& dict = store.dict();
  rdf::TermId age = dict.InternIri("http://bench.example/age");
  for (int i = 0; i < 10000; ++i) {
    rdf::TermId s =
        dict.InternIri("http://bench.example/person/" + std::to_string(i));
    rdf::TermId o = dict.Intern(rdf::Term::IntLiteral(i % 90));
    store.AddEncoded({s, age, o});
  }
  store.Compact();
  sparql::QueryEngine engine(&store);
  sparql::Query query = bench::Unwrap(sparql::ParseQuery(
      "SELECT ?s WHERE { ?s <http://bench.example/age> ?age . "
      "FILTER(?age < 10) } LIMIT 100"));
  for (auto _ : state) {
    auto r = engine.Execute(query);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SparqlExecute);

/// The memory store with a term order built over its dictionary, so
/// ORDER BY takes the rank path over the same scans as the unranked runs.
class RankedSource : public rdf::TripleSource {
 public:
  explicit RankedSource(const rdf::TripleStore* store)
      : store_(store), order_(store->dict()) {}
  void Scan(const rdf::TriplePattern& p, const ScanFn& fn) const override {
    store_->Scan(p, fn);
  }
  void ScanRuns(const rdf::TriplePattern& p,
                const ScanRunFn& fn) const override {
    store_->ScanRuns(p, fn);
  }
  uint64_t Count(const rdf::TriplePattern& p) const override {
    return store_->Count(p);
  }
  const rdf::Dictionary& dict() const override { return store_->dict(); }
  const rdf::TermOrder* term_order() const override { return &order_; }
  uint64_t size() const override { return store_->size(); }
  uint64_t PredicateCount(rdf::TermId p) const override {
    return store_->PredicateCount(p);
  }
  uint64_t PairCount(rdf::TermId s, rdf::TermId p) const override {
    return store_->PairCount(s, p);
  }

 private:
  const rdf::TripleStore* store_;
  const rdf::TermOrder order_;
};

/// ORDER BY over 1,600 IRIs (the lodbench category-range answer size).
/// Args are (order_by, ranked): (0, 0) runs the query without ORDER BY;
/// (1, 0) sorts it over the memory store, which keeps no term order, so
/// each distinct term is ranked per query; (1, 1) sorts it over the same
/// store with a prebuilt rdf::TermOrder, so ranks are read, not computed.
/// The differences per row are the two costs of ORDER BY.
void BM_OrderByRanks(benchmark::State& state) {
  rdf::TripleStore store;
  rdf::Dictionary& dict = store.dict();
  const rdf::TermId cat = dict.InternIri("http://bench.example/category");
  const rdf::TermId value = dict.InternIri("http://bench.example/cat/7");
  Rng rng(10);
  for (int i = 0; i < 1600; ++i) {
    // Shuffled spellings so the sort has work to do.
    const rdf::TermId s = dict.InternIri("http://bench.example/entity/" +
                                         std::to_string(rng.Uniform(1000000)));
    store.AddEncoded({s, cat, value});
  }
  store.Compact();
  const RankedSource ranked(&store);
  const bool use_ranks = state.range(1) == 1;
  sparql::QueryEngine engine(use_ranks
                                 ? static_cast<const rdf::TripleSource*>(&ranked)
                                 : &store);
  std::string text =
      "SELECT ?s WHERE { ?s <http://bench.example/category> "
      "<http://bench.example/cat/7> }";
  if (state.range(0) == 1) text += " ORDER BY ?s";
  const sparql::Query query = bench::Unwrap(sparql::ParseQuery(text));
  size_t rows = 0;
  for (auto _ : state) {
    auto r = engine.Execute(query);
    rows += r.ok() ? r->num_rows() : 0;
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows));
  state.SetLabel(state.range(0) == 0 ? "unordered"
                                     : (use_ranks ? "order_by/term_order"
                                                  : "order_by/per_query"));
}
BENCHMARK(BM_OrderByRanks)->Args({0, 0})->Args({1, 0})->Args({1, 1});

/// Building the result order of the lodbench disk_pool dictionary: the
/// program's synthetic generator at 40k entities, ~200k terms (entity and
/// category IRIs, language-tagged labels, double ages and coordinates,
/// dateTimes) — the set-up cost a storage::DiskSourceAdapter pays once.
/// Arg is the thread count handed to exec::SetThreads (0 = the hardware
/// concurrency).
void BM_TermOrderBuild(benchmark::State& state) {
  rdf::TripleStore store;
  workload::GenerateSyntheticLod({.num_entities = 40000, .seed = 1}, &store);
  const rdf::Dictionary& dict = store.dict();
  exec::SetThreads(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    const rdf::TermOrder order(dict);
    benchmark::DoNotOptimize(order.rank(1));
  }
  exec::SetThreads(0);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dict.size()));
  state.SetLabel(std::to_string(dict.size()) + " terms");
}
BENCHMARK(BM_TermOrderBuild)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

/// SPARQL-results JSON for a 1,600-row, two-column table (an IRI and a
/// language-tagged or typed literal per row) whose cells are dictionary
/// ids, as the engine returns them; items are rows, so the reported rate
/// gives ns/row of serve::ResultTableJson, each cell's one dictionary read
/// included.
void BM_ResultTableJson(benchmark::State& state) {
  rdf::Dictionary dict;
  sparql::ResultTable table({"s", "label"}, &dict);
  for (int i = 0; i < 1600; ++i) {
    const rdf::TermId label = dict.Intern(
        i % 2 == 0 ? rdf::Term::LangLiteral(
                         "Entity number " + std::to_string(i), "en")
                   : rdf::Term::IntLiteral(i));
    const rdf::TermId s =
        dict.InternIri("http://bench.example/entity/" + std::to_string(i));
    const sparql::ResultTable::Cell row[] = {s, label};
    table.AddRow(row);
  }
  size_t rows = 0;
  for (auto _ : state) {
    std::string json = serve::ResultTableJson(table, /*is_ask=*/false);
    benchmark::DoNotOptimize(json.data());
    rows += table.num_rows();
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows));
}
BENCHMARK(BM_ResultTableJson);

// Binding-row representation: the slot-addressed executor stores each
// solution as a dense TermId vector indexed by planner-assigned slot; the
// alternative is a per-row string-keyed hash map. These two benchmarks
// measure the cost of extending a row by one binding under each scheme —
// the innermost operation of BGP evaluation.
void BM_BindingExtendSlotRow(benchmark::State& state) {
  constexpr size_t kWidth = 4;
  std::vector<rdf::TermId> parent = {5, 17, 0, 0};
  std::vector<rdf::TermId> out;
  rdf::TermId v = 1;
  for (auto _ : state) {
    out.assign(parent.begin(), parent.end());
    out[2] = v;
    out[3] = v + 1;
    ++v;
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * kWidth * sizeof(rdf::TermId));
}
BENCHMARK(BM_BindingExtendSlotRow);

void BM_BindingExtendHashMap(benchmark::State& state) {
  std::unordered_map<std::string, rdf::TermId> parent = {{"?a", 5},
                                                         {"?b", 17}};
  std::unordered_map<std::string, rdf::TermId> out;
  rdf::TermId v = 1;
  for (auto _ : state) {
    out = parent;
    out["?c"] = v;
    out["?d"] = v + 1;
    ++v;
    benchmark::DoNotOptimize(&out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BindingExtendHashMap);

// Observability substrate costs: a counter increment and a histogram record
// are one relaxed atomic op each; a disabled span is a single relaxed load.
// These bound the overhead instrumentation adds to the hot paths above.
void BM_ObsCounterIncrement(benchmark::State& state) {
  obs::Counter& c =
      obs::MetricRegistry::Global().GetCounter("bench.micro.counter");
  for (auto _ : state) {
    c.Increment();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterIncrement);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Histogram& h =
      obs::MetricRegistry::Global().GetHistogram("bench.micro.histogram");
  uint64_t i = 0;
  for (auto _ : state) {
    h.Record(i++ * 2654435761ULL >> 32);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramRecord);

void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::Tracer::Global().SetEnabled(false);
  for (auto _ : state) {
    LODVIZ_TRACE_SPAN("bench.micro.span");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanDisabled);

// Per-operator profiling cost (obs::OperatorTimer, the EXPLAIN ANALYZE
// substrate). The executor constructs one timer per operator invocation;
// with profiling off the node pointer is null and construct+Finish must
// compile down to two predictable branches — the disabled path is what
// every query pays (see the EXPERIMENTS.md micro-benchmarks section).
void BM_ProfileOperatorOff(benchmark::State& state) {
  for (auto _ : state) {
    obs::OperatorTimer timer(nullptr, 1);
    timer.Finish(1);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileOperatorOff);

void BM_ProfileOperatorOn(benchmark::State& state) {
  obs::OperatorProfile node;
  for (auto _ : state) {
    obs::OperatorTimer timer(&node, 1);
    timer.Finish(1);
    benchmark::DoNotOptimize(&node);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileOperatorOn);

// --- Adaptive-join substrate -------------------------------------------
//
// Hash vs index nested-loop on a fanout self-join at three probe-rows/
// bucket-size cardinality ratios. Every subject has `fanout` p1-edges and
// the second pattern re-derives the edge with a variable predicate
// (`?a ?p ?b`), so a nested-loop probe must index-scan the subject's
// whole `fanout`-row range to find its single match, while the hash probe
// jumps straight to a one-element (?a,?b)-keyed bucket. Output is pinned
// at 8192 rows for every arg, so the measured difference is pure probe
// cost: NLJ work grows linearly with fanout, hash work stays flat.

constexpr int kJoinResultRows = 8192;

void FillJoinStore(rdf::TripleStore* store, int fanout) {
  rdf::Dictionary& dict = store->dict();
  rdf::TermId p1 = dict.InternIri("http://bench.example/p1");
  const int subjects = kJoinResultRows / fanout;
  for (int i = 0; i < subjects; ++i) {
    rdf::TermId a =
        dict.InternIri("http://bench.example/a/" + std::to_string(i));
    for (int k = 0; k < fanout; ++k) {
      rdf::TermId b = dict.InternIri("http://bench.example/b/" +
                                     std::to_string(i * fanout + k));
      store->AddEncoded({a, p1, b});
    }
  }
  store->Compact();
}

void RunJoinBench(benchmark::State& state, sparql::JoinForce force) {
  rdf::TripleStore store;
  FillJoinStore(&store, static_cast<int>(state.range(0)));
  sparql::QueryEngine::Options opts;
  opts.force_join = force;
  sparql::QueryEngine engine(&store, opts);
  // COUNT(*) keeps the measurement on the join itself — materializing
  // 8192 projected term rows would otherwise dominate both strategies.
  sparql::Query query = bench::Unwrap(sparql::ParseQuery(
      "SELECT (COUNT(*) AS ?n) WHERE { ?a <http://bench.example/p1> ?b . "
      "?a ?p ?b . }"));
  for (auto _ : state) {
    auto r = engine.Execute(query);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations() * kJoinResultRows);
}

void BM_SparqlJoinNestedLoop(benchmark::State& state) {
  RunJoinBench(state, sparql::JoinForce::kNestedLoop);
}
BENCHMARK(BM_SparqlJoinNestedLoop)->Arg(4)->Arg(32)->Arg(256);

void BM_SparqlJoinHash(benchmark::State& state) {
  RunJoinBench(state, sparql::JoinForce::kHash);
}
BENCHMARK(BM_SparqlJoinHash)->Arg(4)->Arg(32)->Arg(256);

// --- Buffer-pool striping ----------------------------------------------
//
// Fetch throughput on an all-hits working set, striped pool vs the same
// pool behind one big mutex (how the pre-PR-5 DiskSourceAdapter
// serialized every scan). Run at 1/2/4/8 threads: the striped pool's
// per-shard mutexes should keep scaling where the single mutex flatlines.
// On a single-core host both curves flatline — the interesting signal is
// then the absence of *regression* at thread counts > 1.

struct PoolBenchEnv {
  std::string path;
  storage::PageFile file;
  std::unique_ptr<storage::BufferPool> pool;
  std::mutex big_lock;
  std::vector<storage::PageId> ids;
};
PoolBenchEnv* g_pool_env = nullptr;

void PoolBenchSetup() {
  auto* env = new PoolBenchEnv;
  env->path = "/tmp/lodviz_microbench_stripe_" + std::to_string(::getpid());
  (void)env->file.Open(env->path, true);
  env->pool = std::make_unique<storage::BufferPool>(&env->file, 128);
  for (int i = 0; i < 128; ++i) {
    auto p = env->pool->NewPage();
    env->ids.push_back(p->page_id());
  }
  g_pool_env = env;
}

void PoolBenchTeardown() {
  std::string path = g_pool_env->path;
  delete g_pool_env;
  g_pool_env = nullptr;
  std::remove(path.c_str());
}

void BM_BufferPoolFetchStriped(benchmark::State& state) {
  if (state.thread_index() == 0) PoolBenchSetup();
  // google-benchmark barriers all threads at loop entry, so the setup
  // above is visible before any thread iterates.
  Rng rng(100 + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    auto p = g_pool_env->pool->Fetch(
        g_pool_env->ids[rng.Uniform(g_pool_env->ids.size())]);
    benchmark::DoNotOptimize(p->data());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) PoolBenchTeardown();
}
BENCHMARK(BM_BufferPoolFetchStriped)->ThreadRange(1, 8)->UseRealTime();

void BM_BufferPoolFetchSingleMutex(benchmark::State& state) {
  if (state.thread_index() == 0) PoolBenchSetup();
  Rng rng(200 + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    std::lock_guard<std::mutex> lock(g_pool_env->big_lock);
    auto p = g_pool_env->pool->Fetch(
        g_pool_env->ids[rng.Uniform(g_pool_env->ids.size())]);
    benchmark::DoNotOptimize(p->data());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) PoolBenchTeardown();
}
BENCHMARK(BM_BufferPoolFetchSingleMutex)->ThreadRange(1, 8)->UseRealTime();

// --- Decoded-literal fast path -----------------------------------------
//
// The cost of one numeric filter comparison per row: via the dictionary's
// decoded-value side table (one indexed load) vs re-parsing the literal's
// lexical form the way the pre-PR-5 evaluator did on every row.

void BM_FilterNumericDecoded(benchmark::State& state) {
  rdf::Dictionary dict;
  std::vector<rdf::TermId> ids;
  for (int i = 0; i < 4096; ++i) {
    ids.push_back(dict.Intern(rdf::Term::IntLiteral(i % 90)));
  }
  size_t i = 0;
  for (auto _ : state) {
    const rdf::DecodedValue& d = dict.decoded(ids[i++ & 4095]);
    bool pass = d.kind == rdf::DecodedValue::Kind::kNum && d.num < 10.0;
    benchmark::DoNotOptimize(pass);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FilterNumericDecoded);

void BM_FilterNumericStringParse(benchmark::State& state) {
  rdf::Dictionary dict;
  std::vector<rdf::TermId> ids;
  for (int i = 0; i < 4096; ++i) {
    ids.push_back(dict.Intern(rdf::Term::IntLiteral(i % 90)));
  }
  size_t i = 0;
  for (auto _ : state) {
    auto v = dict.term(ids[i++ & 4095]).AsDouble();
    bool pass = v.ok() && v.ValueOrDie() < 10.0;
    benchmark::DoNotOptimize(pass);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FilterNumericStringParse);

// --- Row vs batch operator substrates ----------------------------------
//
// The vectorized executor's two inner loops against their row-engine
// counterparts, at the representation level. Extend: the row engine copies
// the full parent solution (width TermIds) per match and appends it to a
// row-major table; the batch engine appends one run via
// ColumnBatch::AppendRun, paying only for the columns that actually vary
// (constant-encoded carries cost O(1) per run). Filter: the row engine
// reads the filtered slot with a row-major stride and dispatches each row
// through the expression evaluator (modeled by an opaque function
// pointer); the batch engine's specialized path streams one contiguous
// column segment with the comparison inlined, emitting a selection vector.

constexpr size_t kOpWidth = 8;     // typical mid-plan solution width
constexpr size_t kOpRows = 4096;   // four full batches of work per tick

using FilterFn = bool (*)(const rdf::DecodedValue&);
bool DecodedAtLeast500(const rdf::DecodedValue& d) {
  return d.kind == rdf::DecodedValue::Kind::kNum && d.num >= 500.0;
}

void BM_FilterRow(benchmark::State& state) {
  rdf::Dictionary dict;
  sparql::FlatRows<rdf::TermId> rows(kOpWidth);
  std::vector<rdf::TermId> rowbuf(kOpWidth, 7);
  for (size_t i = 0; i < kOpRows; ++i) {
    rowbuf[5] = dict.Intern(rdf::Term::IntLiteral(static_cast<int>(i % 1000)));
    rows.AppendRow(rowbuf.data());
  }
  FilterFn fn = DecodedAtLeast500;
  benchmark::DoNotOptimize(fn);  // opaque, like the per-row AST dispatch
  std::vector<uint32_t> keep;
  for (auto _ : state) {
    keep.clear();
    for (uint32_t r = 0; r < kOpRows; ++r) {
      if (fn(dict.decoded(rows.row(r)[5]))) keep.push_back(r);
    }
    benchmark::DoNotOptimize(keep.data());
  }
  state.SetItemsProcessed(state.iterations() * kOpRows);
}
BENCHMARK(BM_FilterRow);

void BM_FilterBatch(benchmark::State& state) {
  rdf::Dictionary dict;
  std::vector<rdf::TermId> values;
  values.reserve(kOpRows);
  for (size_t i = 0; i < kOpRows; ++i) {
    values.push_back(
        dict.Intern(rdf::Term::IntLiteral(static_cast<int>(i % 1000))));
  }
  sparql::ColumnBatch batch(kOpWidth);
  const std::vector<rdf::TermId> sol(kOpWidth, 7);
  const sparql::ColumnBatch::RunColumn var[1] = {{5, values.data()}};
  batch.AppendRun(sol.data(), kOpRows, var, 1);
  const sparql::ColumnSegment& col = batch.col(5);
  std::vector<uint32_t> sel;
  for (auto _ : state) {
    sel.clear();
    for (uint32_t r = 0; r < kOpRows; ++r) {
      const rdf::DecodedValue& d = dict.decoded(col.at(r));
      if (d.kind == rdf::DecodedValue::Kind::kNum && d.num >= 500.0) {
        sel.push_back(r);
      }
    }
    benchmark::DoNotOptimize(sel.data());
  }
  state.SetItemsProcessed(state.iterations() * kOpRows);
}
BENCHMARK(BM_FilterBatch);

void BM_BgpExtendRow(benchmark::State& state) {
  const std::vector<rdf::TermId> sol(kOpWidth, 7);
  std::vector<rdf::TermId> matches(kOpRows);
  for (size_t i = 0; i < kOpRows; ++i) {
    matches[i] = static_cast<rdf::TermId>(i + 1);
  }
  sparql::FlatRows<rdf::TermId> out(kOpWidth);
  std::vector<rdf::TermId> rowbuf(kOpWidth);
  for (auto _ : state) {
    out.Clear();
    for (size_t m = 0; m < matches.size(); ++m) {
      rowbuf.assign(sol.begin(), sol.end());
      rowbuf[5] = matches[m];
      out.AppendRow(rowbuf.data());
    }
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetItemsProcessed(state.iterations() * kOpRows);
  state.SetBytesProcessed(state.iterations() * kOpRows * kOpWidth *
                          sizeof(rdf::TermId));
}
BENCHMARK(BM_BgpExtendRow);

void BM_BgpExtendBatch(benchmark::State& state) {
  const std::vector<rdf::TermId> sol(kOpWidth, 7);
  std::vector<rdf::TermId> matches(kOpRows);
  for (size_t i = 0; i < kOpRows; ++i) {
    matches[i] = static_cast<rdf::TermId>(i + 1);
  }
  sparql::ColumnBatch out(kOpWidth);
  for (auto _ : state) {
    out.Clear();
    const sparql::ColumnBatch::RunColumn var[1] = {{5, matches.data()}};
    out.AppendRun(sol.data(), matches.size(), var, 1);
    benchmark::DoNotOptimize(&out);
  }
  state.SetItemsProcessed(state.iterations() * kOpRows);
  state.SetBytesProcessed(state.iterations() * kOpRows * kOpWidth *
                          sizeof(rdf::TermId));
}
BENCHMARK(BM_BgpExtendBatch);

}  // namespace
}  // namespace lodviz

BENCHMARK_MAIN();
