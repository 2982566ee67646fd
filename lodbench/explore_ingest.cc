// explore_ingest: one explorer's session on core::Engine. Each step
// ingests a batch of newly arriving triples (re-delivering the tail of
// the previous page, as overlapping endpoint pages do) and then refreshes
// the views: facets -> select, keyword search, HETree drill-down, a chart
// or map rendering, and one SPARQL query.

#include <cstdio>
#include <memory>

#include "core/engine.h"
#include "data.h"
#include "explore/keyword.h"
#include "oracle.h"
#include "rdf/streaming.h"
#include "serve/serialize.h"
#include "trace.h"
#include "workloads.h"

namespace lodbench {
namespace {

using lodviz::core::Engine;

constexpr size_t kBaseEntities = 2000;
constexpr size_t kSteps = 20;
constexpr size_t kEntitiesPerStep = 25;
/// Triples of the previous page delivered again with each batch.
constexpr size_t kRedelivered = 25;
constexpr size_t kIngestBatch = 64;

enum Op { kIngest, kFacets, kSearch, kHetree, kRender, kQuery, kNumOps };

struct StepPlan {
  /// Triples [redeliver_begin, end) arrive; [begin, end) are new.
  size_t redeliver_begin = 0, begin = 0, end = 0;
  std::string keyword;
  std::string category;
  size_t drill[2] = {0, 0};
  bool map = false;
  std::string query;
};

/// One step's answers, one comparable text per operation.
struct StepAnswers {
  std::string ops[kNumOps];
};

/// Wall time of each operation of a step (the answers are formatted after
/// each clock stops).
struct StepTimes {
  double ms[kNumOps] = {};
  double Total() const {
    double sum = 0;
    for (double v : ms) sum += v;
    return sum;
  }
};

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::vector<StepPlan> PlanSession(const Dataset& data, uint64_t seed) {
  Rng rng(seed * 31 + 13);
  std::vector<StepPlan> plans(kSteps);
  for (size_t k = 0; k < kSteps; ++k) {
    StepPlan& p = plans[k];
    const size_t first = kBaseEntities + k * kEntitiesPerStep;
    p.begin = data.entity_begin[first];
    p.end = data.entity_begin[first + kEntitiesPerStep];
    p.redeliver_begin = p.begin - kRedelivered;
    p.keyword = data.LabelWords(rng.Uniform(first));
    p.category = iri::kCategoryValue + std::to_string(rng.Uniform(6));
    p.drill[0] = rng.Uniform(4);
    p.drill[1] = rng.Uniform(4);
    p.map = k % 2 == 1;
    switch (k % 3) {
      case 0:
        p.query = "SELECT ?s ?age WHERE { ?s <" + std::string(iri::kCategory) +
                  "> <" + p.category + "> ; <" + iri::kAge +
                  "> ?age . FILTER(?age > 50) } ORDER BY ?s ?age";
        break;
      case 1:
        p.query = "SELECT ?cat (COUNT(*) AS ?n) WHERE { ?s <" +
                  std::string(iri::kCategory) +
                  "> ?cat } GROUP BY ?cat ORDER BY DESC(?n) ?cat";
        break;
      default:
        p.query = "SELECT ?b ?c WHERE { <" + EntityIri(first) + "> <" +
                  iri::kKnows + "> ?b . ?b <" + iri::kKnows +
                  "> ?c } ORDER BY ?b ?c";
    }
  }
  return plans;
}

std::string FacetsText(const std::vector<lodviz::explore::Facet>& facets) {
  std::string out;
  for (const auto& f : facets) {
    out += f.label + "{";
    for (const auto& v : f.values) {
      out += v.label + ":" + std::to_string(v.count) + ",";
    }
    out += "}";
  }
  return out;
}

/// Times one call: a span when tracing, and its wall time into `ms`.
template <typename Fn>
auto Timed(Tracer* tracer, const char* span, uint64_t request, double* ms,
           Fn fn) {
  Span s(tracer, span, request);
  const int64_t t0 = NowNs();
  auto result = fn();
  *ms += static_cast<double>(NowNs() - t0) / 1e6;
  return result;
}

/// What the traced run adds per step: the query replayed stage by stage
/// and the exec tasks the query calls submitted.
struct TraceContext {
  Tracer* tracer = nullptr;
  PipelineReplay* replay = nullptr;
  ReplayTotals totals;
  uint64_t query_tasks = 0;
  uint64_t queries = 0;
};

/// Runs a step's read operations on `engine`. The system builds its
/// keyword index through the facade (Keyword(), then Search()); a
/// reference engine, filled behind the facade's back, builds one directly
/// from its store.
void RunReads(Engine& engine, const StepPlan& plan, bool reference,
              uint64_t request, TraceContext* trace, StepAnswers* answers,
              StepTimes* times) {
  namespace rdf = lodviz::rdf;
  Tracer* tracer = trace ? trace->tracer : nullptr;
  const rdf::Dictionary& dict = engine.store().dict();

  {  // facets -> select
    std::vector<lodviz::explore::Facet> overview, refined;
    size_t matching = 0;
    Timed(tracer, "explore.facets", request, &times->ms[kFacets], [&] {
      lodviz::explore::FacetedBrowser browser = engine.MakeBrowser();
      overview = browser.Facets();
      const rdf::TermId pred = dict.Lookup(rdf::Term::Iri(iri::kCategory));
      const rdf::TermId value = dict.Lookup(rdf::Term::Iri(plan.category));
      if (pred != rdf::kInvalidTermId && value != rdf::kInvalidTermId &&
          browser.Select(pred, value).ok()) {
        refined = browser.Facets();
      }
      matching = browser.num_matching();
      return 0;
    });
    answers->ops[kFacets] = FacetsText(overview) + "|" +
                            std::to_string(matching) + "|" +
                            FacetsText(refined);
  }

  {  // keyword search
    std::vector<lodviz::explore::SearchHit> hits;
    if (reference) {
      hits = lodviz::explore::KeywordIndex::Build(engine.store())
                 .Search(plan.keyword, 10);
    } else {
      Timed(tracer, "explore.keyword_build", request, &times->ms[kSearch],
            [&] { return engine.Keyword().num_documents(); });
      hits = Timed(tracer, "explore.search", request, &times->ms[kSearch],
                   [&] { return engine.Search(plan.keyword, 10); });
    }
    std::string text;
    for (const auto& h : hits) text += h.label + "=" + Num(h.score) + ";";
    answers->ops[kSearch] = text;
  }

  {  // HETree over age, drilled down two levels
    std::vector<lodviz::hier::HETree::Node> levels;  // "/" marks a level end
    std::string error;
    Timed(tracer, "hier.hetree_build", request, &times->ms[kHetree], [&] {
      lodviz::hier::HETree::Options options;
      options.lazy = true;
      lodviz::Result<lodviz::hier::HETree> tree =
          engine.BuildHierarchy(iri::kAge, options);
      if (!tree.ok()) {
        error = tree.status().ToString();
        return 0;
      }
      lodviz::hier::HETree& t = tree.ValueOrDie();
      lodviz::hier::HETree::NodeId node = t.root();
      for (size_t depth = 0; depth < 2; ++depth) {
        const std::vector<lodviz::hier::HETree::NodeId> children =
            t.Children(node);
        if (children.empty()) break;
        for (auto c : children) levels.push_back(t.node(c));
        levels.emplace_back();  // level separator
        node = children[plan.drill[depth] % children.size()];
      }
      return 0;
    });
    std::string text = error;
    for (const auto& n : levels) {
      text += n.stats.count == 0 ? "/"
                                 : "[" + Num(n.lo) + "," + Num(n.hi) + "]" +
                                       std::to_string(n.stats.count) + ":" +
                                       Num(n.stats.sum) + " ";
    }
    answers->ops[kHetree] = text;
  }

  {  // chart or map
    lodviz::viz::VisSpec spec;
    if (plan.map) {
      spec.kind = lodviz::viz::VisKind::kMap;
    } else {
      spec.kind = lodviz::viz::VisKind::kChart;
      spec.x_property = iri::kAge;
      spec.element_budget = 40;
    }
    lodviz::Result<lodviz::core::ViewResult> view =
        Timed(tracer, "viz.render", request, &times->ms[kRender],
              [&] { return engine.Render(spec); });
    answers->ops[kRender] =
        view.ok() ? std::to_string(view->render.elements_drawn) + "/" +
                        std::to_string(view->render.input_size) + "/" +
                        std::to_string(view->pixels_touched) + "/" +
                        Num(view->overplot_factor) + "/" +
                        Num(view->hidden_fraction)
                  : view.status().ToString();
  }

  {  // one SPARQL query
    auto& tasks = lodviz::obs::MetricRegistry::Global().GetCounter(
        "exec.pool.tasks");
    const uint64_t tasks0 = tasks.value();
    lodviz::Result<lodviz::sparql::ResultTable> table =
        Timed(tracer, "core.query", request, &times->ms[kQuery],
              [&] { return engine.Query(plan.query); });
    answers->ops[kQuery] =
        table.ok() ? lodviz::serve::ResultTableJson(
                         table.ValueOrDie(), false)
                   : "error: " + table.status().ToString();
    if (trace != nullptr && trace->replay != nullptr) {
      trace->replay->Run(plan.query, request, &trace->totals);
      trace->query_tasks += tasks.value() - tasks0;
      trace->queries += 2;
    }
  }
}

}  // namespace

RunResult RunExploreIngest(const RunOptions& o) {
  const size_t num_entities = kBaseEntities + kSteps * kEntitiesPerStep;
  const Dataset data = GenerateDataset(o.seed, num_entities);
  const size_t base_end = data.entity_begin[kBaseEntities];
  const std::string base_document = ToNTriples(data.triples, 0, base_end);
  const std::vector<StepPlan> plans = PlanSession(data, o.seed);

  // Reference answers for every step, computed before any timing.
  std::vector<StepAnswers> want_set(kSteps), want_bag(kSteps);
  auto refs = std::make_unique<ReferenceStores>();
  refs->Add(data.triples, 0, base_end);
  for (size_t k = 0; k < kSteps; ++k) {
    const StepPlan& p = plans[k];
    refs->Add(data.triples, p.redeliver_begin, p.end);
    StepTimes unused;
    RunReads(refs->set_engine, p, true, 0, nullptr, &want_set[k], &unused);
    RunReads(refs->bag_engine, p, true, 0, nullptr, &want_bag[k], &unused);
    want_set[k].ops[kIngest] = want_bag[k].ops[kIngest] =
        std::to_string(p.end - p.redeliver_begin);
  }
  const double distinct = static_cast<double>(refs->set().size());
  refs.reset();

  Verdicts verdicts;
  std::vector<double> setup_s, untraced_ms, traced_ms;
  double window_s = 0, ingest_s = 0, store_bytes = 0;
  std::vector<double> peak_rss;  // per session
  uint64_t ingested = 0;
  size_t right_steps = 0;  // untraced steps whose every answer was right
  Tracer tracer;
  TraceContext trace;
  trace.tracer = &tracer;
  std::vector<std::map<std::string, uint64_t>> session_deltas;
  uint64_t request = 0;
  // Whole sessions until the window is spent. A traced run alternates
  // untraced sessions (the overhead baseline) with traced ones, at least
  // two of each, so the traced counter deltas can be checked to repeat.
  for (size_t session = 0;; ++session) {
    const bool traced = o.trace && session % 2 == 1;
    if (window_s >= o.seconds && (!o.trace || session >= 4)) break;
    const PlacementShift shift(session);
    // The session loads its own copy of the document, placed under the
    // shift like the engine's memory.
    const std::string input = base_document;
    const PeakRss rss;
    const int64_t t0 = NowNs();
    Engine engine;
    MustOk(engine.LoadNTriples(input), "LoadNTriples");
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);

    std::unique_ptr<PipelineReplay> replay;
    if (traced) {
      replay = std::make_unique<PipelineReplay>(&engine.store(), 128, &tracer);
    }
    trace.replay = replay.get();
    CounterDelta deltas;
    for (size_t k = 0; k < kSteps; ++k) {
      const StepPlan& p = plans[k];
      ++request;
      StepAnswers got;
      StepTimes times;
      std::vector<lodviz::rdf::ParsedTriple> batch(
          data.triples.begin() + p.redeliver_begin,
          data.triples.begin() + p.end);
      lodviz::rdf::VectorStreamSource source(std::move(batch));
      const size_t n = Timed(traced ? &tracer : nullptr, "core.ingest", request,
                             &times.ms[kIngest], [&] {
                               return engine.IngestStream(&source,
                                                          kIngestBatch);
                             });
      got.ops[kIngest] = std::to_string(n);
      const int64_t reads0 = NowNs();
      RunReads(engine, p, false, request, traced ? &trace : nullptr, &got,
               &times);
      const double reads_ms = static_cast<double>(NowNs() - reads0) / 1e6;
      ingest_s += times.ms[kIngest] / 1e3;
      ingested += n;
      const double step_ms =
          traced ? times.ms[kIngest] + reads_ms : times.Total();
      (traced ? traced_ms : untraced_ms).push_back(step_ms);
      window_s += step_ms / 1e3;
      const uint64_t right0 = verdicts.right;
      for (int op = 0; op < kNumOps; ++op) {
        verdicts.Judge(HashBytes(got.ops[op]),
                       [&] { return HashBytes(want_set[k].ops[op]); },
                       [&] { return HashBytes(want_bag[k].ops[op]); });
      }
      right_steps += !traced && verdicts.right - right0 == uint64_t{kNumOps};
    }
    if (traced) session_deltas.push_back(deltas.Take());
    store_bytes = static_cast<double>(engine.store().MemoryUsage());
    peak_rss.push_back(rss.Mb());
  }

  RunResult result;
  verdicts.ApplyTo(&result);
  if (!o.trace) {
    std::vector<double> ms = untraced_ms;
    EndToEnd e;
    e.setup_s = Median(setup_s);
    e.throughput_ops = Ratio(static_cast<double>(right_steps), window_s);
    e.latency_p50_ms = Percentile(ms, 0.50);
    e.latency_p95_ms = Percentile(ms, 0.95);
    e.peak_rss_mb = Median(peak_rss);
    e.store_bytes_per_triple = Ratio(store_bytes, distinct);
    e.ingest_triples_per_s = Ratio(static_cast<double>(ingested), ingest_s);
    e.Emit(&result);
    std::cerr << "explore_ingest: " << ms.size() << " steps in " << window_s
              << " s over " << setup_s.size() << " sessions; right "
              << verdicts.right << ", duplicate rows "
              << verdicts.duplicate_rows << ", wrong " << verdicts.wrong
              << "\n";
    return result;
  }

  // Single-client counter deltas must repeat exactly from session to
  // session; anything else means the run is not deterministic.
  for (const auto& d : session_deltas) {
    if (d != session_deltas.front()) {
      std::cerr << "explore_ingest: obs counter deltas differ between "
                   "identical sessions\n";
      result.correct = false;
    }
  }
  const std::map<std::string, Tracer::Summary> spans = tracer.Summarize();
  auto mean_ms = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0
                             : Ratio(it->second.total_ns,
                                     static_cast<double>(it->second.count)) /
                                   1e6;
  };
  Layers layers;
  FillQueryLayers(tracer, trace.totals, session_deltas.front(),
                  trace.queries, false, &layers);
  // The per-session deltas cover one session; rescale the exec ratio to
  // the tasks the query calls themselves submitted.
  layers.exec_tasks_per_query =
      Ratio(static_cast<double>(trace.query_tasks),
            static_cast<double>(trace.queries));
  layers.explore_facets_ms = mean_ms("explore.facets");
  layers.explore_keyword_build_ms = mean_ms("explore.keyword_build");
  layers.explore_search_ms = mean_ms("explore.search");
  layers.hier_hetree_build_ms = mean_ms("hier.hetree_build");
  layers.viz_render_ms = mean_ms("viz.render");
  layers.core_query_ms = mean_ms("core.query");
  layers.rdf_ingest_us_per_triple =
      Ratio(ingest_s * 1e6, static_cast<double>(ingested));
  layers.trace_overhead_frac = Ratio(Mean(traced_ms), Mean(untraced_ms)) - 1.0;
  layers.Emit(&result);
  tracer.WriteJson(o.trace_dir + "/explore_ingest.json");
  return result;
}

}  // namespace lodbench
