#include "trace.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "serve/serialize.h"
#include "sparql/engine.h"
#include "sparql/fingerprint.h"
#include "sparql/parser.h"
#include "util.h"

namespace lodbench {

namespace {

thread_local Span* current_span = nullptr;

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

/// Spans kept in memory per run; beyond this they are counted, not kept.
constexpr size_t kMaxSpans = 1 << 20;

}  // namespace

void Tracer::Add(const Record& r) {
  std::lock_guard<std::mutex> lock(mu_);
  if (records_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  records_.push_back(r);
}

std::map<std::string, Tracer::Summary> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Summary> out;
  for (const Record& r : records_) {
    Summary& s = out[r.name];
    const double dur = static_cast<double>(r.end_ns - r.start_ns);
    ++s.count;
    s.total_ns += dur;
    s.self_ns += dur - static_cast<double>(r.child_ns);
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"dropped_spans\":" << dropped_ << ",\"traceEvents\":[";
  const int64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i ? "," : "") << "{\"name\":\"" << r.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.thread
        << ",\"ts\":" << (r.start_ns - t0) / 1000.0
        << ",\"dur\":" << (r.end_ns - r.start_ns) / 1000.0
        << ",\"args\":{\"request\":" << r.request
        << ",\"self_us\":" << (r.end_ns - r.start_ns - r.child_ns) / 1000.0
        << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Span::Span(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer),
      name_(name),
      request_(request),
      start_ns_(NowNs()),
      parent_(nullptr) {
  if (tracer_ == nullptr) return;
  parent_ = current_span;
  current_span = this;
}

int64_t Span::ElapsedNs() const { return NowNs() - start_ns_; }

Span::~Span() {
  if (tracer_ == nullptr) return;
  const int64_t end = NowNs();
  current_span = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += end - start_ns_;
  tracer_->Add({name_, request_, start_ns_, end, child_ns_, ThreadIndex()});
}

void TracedSource::Charge(int64_t start_ns, int64_t end_ns,
                          int64_t ns) const {
  ns_.fetch_add(ns);
  std::lock_guard<std::mutex> lock(mu_);
  intervals_.emplace_back(start_ns, end_ns);
}

int64_t TracedSource::CoveredNs(int64_t from_ns, int64_t to_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<int64_t, int64_t>> spans = intervals_;
  std::sort(spans.begin(), spans.end());
  int64_t covered = 0, reach = from_ns;
  for (auto [start, end] : spans) {
    start = std::max(start, reach);
    end = std::min(end, to_ns);
    if (end <= start) continue;
    covered += end - start;
    reach = end;
  }
  return covered;
}

void TracedSource::Scan(const lodviz::rdf::TriplePattern& pattern,
                        const ScanFn& fn) const {
  int64_t callback_ns = 0;
  uint64_t n = 0;
  const int64_t t0 = NowNs();
  base_->Scan(pattern, [&](const lodviz::rdf::Triple& t) {
    const int64_t c0 = NowNs();
    ++n;
    const bool more = fn(t);
    callback_ns += NowNs() - c0;
    return more;
  });
  const int64_t t1 = NowNs();
  Charge(t0, t1, t1 - t0 - callback_ns);
  scans_.fetch_add(1);
  triples_.fetch_add(n);
}

void TracedSource::ScanRuns(const lodviz::rdf::TriplePattern& pattern,
                            const ScanRunFn& fn) const {
  int64_t callback_ns = 0;
  uint64_t n = 0;
  const int64_t t0 = NowNs();
  base_->ScanRuns(pattern, [&](const lodviz::rdf::Triple* run, size_t len) {
    const int64_t c0 = NowNs();
    n += len;
    const bool more = fn(run, len);
    callback_ns += NowNs() - c0;
    return more;
  });
  const int64_t t1 = NowNs();
  Charge(t0, t1, t1 - t0 - callback_ns);
  scans_.fetch_add(1);
  triples_.fetch_add(n);
}

uint64_t TracedSource::Count(const lodviz::rdf::TriplePattern& pattern) const {
  const int64_t t0 = NowNs();
  const uint64_t n = base_->Count(pattern);
  const int64_t t1 = NowNs();
  Charge(t0, t1, t1 - t0);
  return n;
}

uint64_t TracedSource::PredicateCount(lodviz::rdf::TermId p) const {
  const int64_t t0 = NowNs();
  const uint64_t n = base_->PredicateCount(p);
  const int64_t t1 = NowNs();
  Charge(t0, t1, t1 - t0);
  return n;
}

uint64_t TracedSource::PairCount(lodviz::rdf::TermId s,
                                 lodviz::rdf::TermId p) const {
  const int64_t t0 = NowNs();
  const uint64_t n = base_->PairCount(s, p);
  const int64_t t1 = NowNs();
  Charge(t0, t1, t1 - t0);
  return n;
}

PipelineReplay::PipelineReplay(const lodviz::rdf::TripleSource* source,
                               size_t plan_cache_capacity, Tracer* tracer)
    : source_(source), cache_(plan_cache_capacity), tracer_(tracer) {}

std::string PipelineReplay::Run(const std::string& text, uint64_t request,
                                ReplayTotals* totals) {
  namespace sparql = lodviz::sparql;
  // A fresh decorator per request keeps its counters this request's own,
  // including scans the executor fans out to pool threads.
  TracedSource traced(source_);
  const sparql::QueryEngine engine(&traced);
  Span whole(tracer_, "serve.pipeline", request);

  lodviz::Result<sparql::Query> parsed = [&] {
    Span s(tracer_, "sparql.parse", request);
    return sparql::ParseQuery(text);
  }();
  if (!parsed.ok()) return "error: " + parsed.status().ToString();
  const sparql::Query& query = parsed.ValueOrDie();

  std::shared_ptr<const sparql::QueryPlan> plan;
  {
    Span s(tracer_, "serve.plan_cache", request);
    const std::string key = sparql::CanonicalQueryKey(query);
    const uint64_t fingerprint = sparql::Fnv1a64(key);
    plan = cache_.Lookup(fingerprint, key);
    if (plan == nullptr) {
      Span p(tracer_, "sparql.plan", request);
      plan = std::make_shared<const sparql::QueryPlan>(engine.Plan(query));
      cache_.Insert(fingerprint, key, *plan);
    }
  }

  lodviz::Result<sparql::ResultTable> table = [&] {
    Span s(tracer_, "sparql.execute", request);
    const int64_t start = NowNs();
    auto result = engine.ExecutePlanned(query, *plan, nullptr, text);
    s.AddChildNs(traced.CoveredNs(start, NowNs()));
    return result;
  }();
  if (!table.ok()) return "error: " + table.status().ToString();

  std::string body;
  {
    Span s(tracer_, "serve.serialize", request);
    body = lodviz::serve::ResultTableJson(
        table.ValueOrDie(), query.form == sparql::QueryForm::kAsk);
  }
  ++totals->queries;
  totals->rows += table.ValueOrDie().num_rows();
  totals->source_ns += static_cast<double>(traced.source_ns());
  totals->scan_calls += traced.scan_calls();
  totals->triples += traced.triples();
  return body;
}

void FillQueryLayers(const Tracer& tracer, const ReplayTotals& totals,
                     const std::map<std::string, uint64_t>& deltas,
                     uint64_t executed, bool disk_source, Layers* layers) {
  const std::map<std::string, Tracer::Summary> spans = tracer.Summarize();
  auto mean_ns = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0
                             : Ratio(it->second.total_ns,
                                     static_cast<double>(it->second.count));
  };
  auto total_ns = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_ns;
  };
  auto delta = [&](const char* name) {
    return static_cast<double>(deltas.at(name));
  };
  const double queries = static_cast<double>(totals.queries);
  layers->serve_http_parse_us = mean_ns("serve.http_parse") / 1e3;
  layers->serve_serialize_ns_per_row =
      Ratio(total_ns("serve.serialize"), static_cast<double>(totals.rows));
  layers->serve_plan_cache_hit_rate =
      Ratio(delta("serve.plan_cache.hits"),
            delta("serve.plan_cache.hits") + delta("serve.plan_cache.misses"));
  layers->serve_shed_frac =
      Ratio(delta("serve.shed"), delta("serve.requests"));
  layers->sparql_parse_us = mean_ns("sparql.parse") / 1e3;
  layers->sparql_plan_us = mean_ns("sparql.plan") / 1e3;
  {
    auto it = spans.find("sparql.execute");
    if (it != spans.end()) {
      layers->sparql_execute_self_ms =
          Ratio(it->second.self_ns, static_cast<double>(it->second.count)) /
          1e6;
    }
  }
  layers->sparql_rows_examined_per_row =
      Ratio(delta("sparql.intermediate_rows"), delta("sparql.rows_out"));
  const double source_ms = Ratio(totals.source_ns, queries) / 1e6;
  (disk_source ? layers->storage_source_ms_per_query
               : layers->rdf_source_ms_per_query) = source_ms;
  layers->rdf_scan_calls_per_query =
      Ratio(static_cast<double>(totals.scan_calls), queries);
  layers->rdf_ns_per_triple_scanned =
      Ratio(totals.source_ns, static_cast<double>(totals.triples));
  layers->exec_tasks_per_query =
      Ratio(delta("exec.pool.tasks"), static_cast<double>(executed));
}

}  // namespace lodbench
