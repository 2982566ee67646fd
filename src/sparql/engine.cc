#include "sparql/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "rdf/dictionary.h"

#include "common/stopwatch.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "sparql/executor.h"
#include "sparql/fingerprint.h"
#include "sparql/parser.h"
#include "sparql/planner.h"

namespace lodviz::sparql {

namespace {

using rdf::kInvalidTermId;
using rdf::Term;
using rdf::TermId;

Result<Query> ParseTraced(std::string_view text) {
  LODVIZ_TRACE_SPAN("sparql.parse");
  return ParseQuery(text);
}

/// Row width for executor tables: at least one slot so a zero-variable
/// query (e.g. ASK with only constants) can still represent its single
/// empty seed solution.
size_t RowWidth(const QueryPlan& plan) {
  return std::max<size_t>(1, plan.num_slots);
}

/// One solution row of a batch list: (batch index, physical row). The
/// engine tail works on vectors of these — ORDER BY, DISTINCT and
/// OFFSET/LIMIT permute/prune references and only the survivors
/// materialize Terms (late materialization).
struct RowRef {
  uint32_t batch;
  uint32_t phys;
};

/// Slot value of a referenced solution row; kInvalidTermId for kNoSlot
/// (projected-but-never-bound columns) and unbound slots alike, which is
/// exactly the "unbound" notion the result layer uses.
TermId SlotAt(const std::vector<ColumnBatch>& solutions, RowRef r,
              SlotId slot) {
  return slot == kNoSlot ? kInvalidTermId : solutions[r.batch].at(r.phys, slot);
}

ResultCell CellAt(const rdf::Dictionary& dict,
                  const std::vector<ColumnBatch>& solutions, RowRef r,
                  SlotId slot) {
  ResultCell cell;
  const TermId id = SlotAt(solutions, r, slot);
  if (id == kInvalidTermId) {
    cell.bound = false;
  } else {
    cell.term = dict.term(id);
  }
  return cell;
}

/// Flattens the batch list into one RowRef per active row, in logical
/// order.
std::vector<RowRef> CollectRefs(const std::vector<ColumnBatch>& solutions) {
  std::vector<RowRef> refs;
  refs.reserve(TotalActiveRows(solutions));
  for (size_t bi = 0; bi < solutions.size(); ++bi) {
    const ColumnBatch& b = solutions[bi];
    for (size_t i = 0; i < b.active(); ++i) {
      refs.push_back({static_cast<uint32_t>(bi), b.ActiveRow(i)});
    }
  }
  return refs;
}

/// FNV-1a over a TermId vector, word at a time — the GROUP BY / DISTINCT
/// hash key. TermIds are interned, so id-vector equality is term-tuple
/// equality and no string ever enters the key.
struct TermVecHash {
  size_t operator()(const std::vector<TermId>& v) const {
    uint64_t h = 0xCBF29CE484222325ULL;  // FNV offset basis
    for (TermId t : v) {
      h ^= static_cast<uint64_t>(t);
      h *= 0x100000001B3ULL;  // FNV prime
    }
    return static_cast<size_t>(h);
  }
};

/// One bound term as ORDER BY sees it: its order class (0 = numeric,
/// 1 = temporal, 2 = boolean, 3 = lexical/error), its decoded value, and —
/// for class 3 only, the one class compared by spelling — its N-Triples
/// form.
struct OrderValue {
  int cls = 3;
  rdf::DecodedValue value;
  std::string spelling;
};

/// `decoded` must be rdf::DecodeTerm(term) — for an interned term, the
/// dictionary's cached dict.decoded(id).
OrderValue OrderValueOf(const Term& term, const rdf::DecodedValue& decoded) {
  OrderValue v;
  v.value = decoded;
  switch (decoded.kind) {
    case rdf::DecodedValue::Kind::kNum:
      // NaN compares false both ways; keep it out of the numeric class
      // or it would be "equivalent" to every number at once.
      v.cls = std::isnan(decoded.num) ? 3 : 0;
      break;
    case rdf::DecodedValue::Kind::kTime:
      v.cls = 1;
      break;
    case rdf::DecodedValue::Kind::kBool:
      v.cls = 2;
      break;
    case rdf::DecodedValue::Kind::kNone:
      v.cls = 3;
      break;
  }
  if (v.cls == 3) v.spelling = term.ToNTriples();
  return v;
}

/// Three-way ORDER BY comparison over two bound terms — the one
/// definition of result order. Total and deterministic: terms compare by
/// value class first (numeric < temporal < boolean < everything else),
/// then by decoded value within the class, and terms in the last class —
/// plain/lang/undecodable literals, IRIs, blanks, and NaN numerics —
/// compare by their N-Triples spelling, so "error" terms sort after all
/// comparable values instead of mapping a comparison failure to "equal"
/// (which would break the strict weak ordering a sort requires).
/// Value-equal terms with different spellings (`30` vs
/// `"+30"^^xsd:integer`) stay equivalent so secondary sort keys still
/// apply.
int CompareCellsForOrder(const OrderValue& a, const OrderValue& b) {
  if (a.cls != b.cls) return a.cls < b.cls ? -1 : 1;
  switch (a.cls) {
    case 0:
      if (a.value.num < b.value.num) return -1;
      if (a.value.num > b.value.num) return 1;
      return 0;
    case 1:
      if (a.value.epoch < b.value.epoch) return -1;
      if (a.value.epoch > b.value.epoch) return 1;
      return 0;
    case 2:
      if (a.value.b != b.value.b) return a.value.b ? 1 : -1;
      return 0;
    default: {
      const int c = a.spelling.compare(b.spelling);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
}

/// ORDER BY ranks of one key column: ranks[i] places ids[i] in
/// CompareCellsForOrder order, starting at 1; equivalent terms share a
/// rank (so a later key still decides between them) and unbound cells
/// (kInvalidTermId) rank 0. Each distinct id is ranked once, with its
/// value from the dictionary's intern-time cache and a spelling only in
/// class 3, so sorting rows afterwards compares integers alone.
std::vector<uint32_t> OrderRanks(const rdf::Dictionary& dict,
                                 const std::vector<TermId>& ids) {
  std::vector<TermId> distinct(ids);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  if (!distinct.empty() && distinct.front() == kInvalidTermId) {
    distinct.erase(distinct.begin());
  }
  std::vector<OrderValue> values;
  values.reserve(distinct.size());
  for (TermId id : distinct) {
    values.push_back(OrderValueOf(dict.term(id), dict.decoded(id)));
  }
  std::vector<uint32_t> by_order(distinct.size());
  std::iota(by_order.begin(), by_order.end(), 0u);
  std::sort(by_order.begin(), by_order.end(), [&](uint32_t a, uint32_t b) {
    return CompareCellsForOrder(values[a], values[b]) < 0;
  });
  std::vector<uint32_t> rank_of(distinct.size());
  uint32_t rank = 0;
  for (size_t i = 0; i < by_order.size(); ++i) {
    if (i == 0 || CompareCellsForOrder(values[by_order[i - 1]],
                                       values[by_order[i]]) != 0) {
      ++rank;
    }
    rank_of[by_order[i]] = rank;
  }
  std::vector<uint32_t> ranks(ids.size(), 0);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == kInvalidTermId) continue;
    ranks[i] = rank_of[static_cast<size_t>(
        std::lower_bound(distinct.begin(), distinct.end(), ids[i]) -
        distinct.begin())];
  }
  return ranks;
}

/// [begin, end) of the `n` rows that OFFSET/LIMIT keep.
std::pair<size_t, size_t> SliceBounds(size_t n, const Query& query) {
  const size_t begin = std::min(
      n, static_cast<size_t>(std::max<int64_t>(0, query.offset)));
  size_t end = n;
  if (query.limit >= 0) {
    end = std::min(end, begin + static_cast<size_t>(query.limit));
  }
  return {begin, end};
}

PlannerOptions ToPlannerOptions(const QueryEngine::Options& o) {
  PlannerOptions p;
  p.optimize_join_order = o.optimize_join_order;
  p.force_join = o.force_join;
  return p;
}

/// LODVIZ_PROFILE (non-empty, not "0") force-enables profiling for every
/// engine in the process regardless of Options::profile — the parity gate
/// in scripts/check.sh runs the suite under it to pin that profiling never
/// perturbs results. Read once; afterwards the check is one static load.
bool ProfilingForced() {
  static const bool forced = [] {
    const char* v = std::getenv("LODVIZ_PROFILE");
    return v != nullptr && *v != '\0' && std::string_view(v) != "0";
  }();
  return forced;
}

/// LODVIZ_EXEC_MODE ("row" or "batch") force-overrides Options::exec_mode
/// for every engine in the process — scripts/check.sh re-runs the parity
/// suite under both values to pin that the two executors agree on the same
/// binaries. Any other value is ignored. Read once, like LODVIZ_PROFILE.
ExecMode EffectiveExecMode(const QueryEngine::Options& options) {
  enum class Forced : uint8_t { kNone, kRow, kBatch };
  static const Forced forced = [] {
    const char* v = std::getenv("LODVIZ_EXEC_MODE");
    if (v == nullptr) return Forced::kNone;
    const std::string_view s(v);
    if (s == "row") return Forced::kRow;
    if (s == "batch") return Forced::kBatch;
    return Forced::kNone;
  }();
  switch (forced) {
    case Forced::kRow:
      return ExecMode::kRow;
    case Forced::kBatch:
      return ExecMode::kBatch;
    case Forced::kNone:
      break;
  }
  return options.exec_mode;
}

/// Evaluates the plan's root group under `mode`, always yielding batches:
/// batch mode natively, row mode through the BindingTable→ColumnBatch
/// bridge. Everything downstream of this call (solution modifiers,
/// projection, templates) consumes one representation regardless of mode.
std::vector<ColumnBatch> RunRootGroup(Executor& executor,
                                      const QueryPlan& plan, ExecMode mode) {
  const size_t width = RowWidth(plan);
  if (mode == ExecMode::kBatch) {
    std::vector<ColumnBatch> seeds(1, ColumnBatch(width));
    const std::vector<TermId> empty_row(width, kInvalidTermId);
    seeds[0].AppendRow(empty_row.data());
    return executor.EvalGroupBatches(plan.root, seeds);
  }
  BindingTable seeds(width);
  seeds.AppendEmptyRow();
  return executor.EvalGroup(plan.root, seeds).ToBatches();
}

/// Shared tail of both execution paths, run from the ExecFold destructor
/// on every exit: publishes the profile into `stats` and journals the
/// query when it crosses the slow-query threshold. With profiling off and
/// the journal disabled (or the query fast) this returns after two cheap
/// tests — in particular the fingerprint's AST walk is never paid.
void FinalizeObservability(const Query& query, std::string_view text,
                           double latency_us, uint64_t rows_out,
                           uint64_t intermediate_rows,
                           obs::OperatorProfile* skeleton,
                           QueryStats* stats) {
  obs::QueryLog& journal = obs::QueryLog::Global();
  const bool journaled = journal.ShouldRecord(latency_us);
  if (skeleton == nullptr && !journaled) return;

  obs::QueryProfile profile;
  profile.fingerprint = QueryFingerprint(query);
  profile.total_ns = static_cast<int64_t>(latency_us * 1e3);
  profile.rows_out = rows_out;
  profile.intermediate_rows = intermediate_rows;
  profile.profiled = skeleton != nullptr;
  if (skeleton != nullptr) profile.root = std::move(*skeleton);
  if (stats != nullptr) {
    stats->fingerprint = profile.fingerprint;
    if (journaled) {
      stats->profile = profile;
    } else {
      stats->profile = std::move(profile);
    }
  }
  if (journaled) {
    obs::QueryLogEntry entry;
    entry.fingerprint = profile.fingerprint;
    entry.query = std::string(text);
    entry.latency_us = latency_us;
    entry.rows_out = rows_out;
    entry.intermediate_rows = intermediate_rows;
    entry.profile = std::move(profile);
    journal.Record(std::move(entry));
  }
}

}  // namespace

QueryEngine::QueryEngine(const rdf::TripleSource* source, Options options)
    : source_(source), options_(options) {}

Result<ResultTable> QueryEngine::ExecuteString(std::string_view text,
                                               QueryStats* stats) const {
  LODVIZ_ASSIGN_OR_RETURN(Query q, ParseTraced(text));
  return ExecuteImpl(q, stats, text);
}

Result<std::vector<rdf::ParsedTriple>> QueryEngine::ExecuteGraphString(
    std::string_view text, QueryStats* stats) const {
  LODVIZ_ASSIGN_OR_RETURN(Query q, ParseTraced(text));
  return ExecuteGraphImpl(q, stats, text);
}

Result<ResultTable> QueryEngine::Execute(const Query& query,
                                         QueryStats* stats) const {
  return ExecuteImpl(query, stats, {});
}

Result<std::vector<rdf::ParsedTriple>> QueryEngine::ExecuteGraph(
    const Query& query, QueryStats* stats) const {
  return ExecuteGraphImpl(query, stats, {});
}

QueryPlan QueryEngine::Plan(const Query& query) const {
  return PlanQuery(query, *source_, ToPlannerOptions(options_));
}

Result<ResultTable> QueryEngine::ExecutePlanned(const Query& query,
                                                const QueryPlan& plan,
                                                QueryStats* stats,
                                                std::string_view text) const {
  if (query.form == QueryForm::kConstruct ||
      query.form == QueryForm::kDescribe) {
    return Status::InvalidArgument(
        "use ExecuteGraph for CONSTRUCT/DESCRIBE queries");
  }
  return ExecutePlannedImpl(query, plan, stats, text);
}

std::string QueryEngine::Explain(const Query& query) const {
  return Plan(query).ToString();
}

Result<std::string> QueryEngine::ExplainString(std::string_view text) const {
  LODVIZ_ASSIGN_OR_RETURN(Query q, ParseTraced(text));
  return Explain(q);
}

Result<std::vector<rdf::ParsedTriple>> QueryEngine::ExecuteGraphImpl(
    const Query& query, QueryStats* stats, std::string_view text) const {
  LODVIZ_TRACE_SPAN("sparql.execute");
  SparqlMetrics& metrics = SparqlMetrics::Get();
  metrics.queries.Increment();
  Stopwatch sw;
  const rdf::Dictionary& dict = source_->dict();
  std::vector<rdf::ParsedTriple> out;

  const bool profiling = options_.profile || ProfilingForced();
  QueryPlan plan = PlanQuery(query, *source_, ToPlannerOptions(options_));
  obs::OperatorProfile skeleton;
  if (profiling) skeleton = BuildProfileSkeleton(plan.root);
  obs::OperatorProfile* prof = profiling ? &skeleton : nullptr;
  uint64_t intermediate = 0;
  // Counted separately from `out`: `return out;` moves the vector into the
  // Result before the fold below destructs, so out.size() would read the
  // moved-from (empty) vector there.
  uint64_t emitted = 0;

  // Record latency, output rows, profile and journal on every exit path.
  struct ExecFold {
    SparqlMetrics& metrics;
    const Stopwatch& sw;
    const uint64_t& emitted;
    QueryStats* stats;
    const Query& query;
    std::string_view text;
    const uint64_t& intermediate;
    obs::OperatorProfile* prof;
    ~ExecFold() {
      const double us = sw.ElapsedMicros();
      metrics.rows_out.Increment(emitted);
      metrics.execute_us.RecordDouble(us);
      if (stats != nullptr) {
        stats->rows_out = emitted;
        stats->latency_us = us;
      }
      FinalizeObservability(query, text, us, emitted, intermediate, prof,
                            stats);
    }
  } fold{metrics, sw, emitted, stats, query, text, intermediate, prof};
  std::set<std::string> seen;
  auto emit = [&](Term s, Term p, Term o) {
    std::string key =
        s.ToNTriples() + "\x01" + p.ToNTriples() + "\x01" + o.ToNTriples();
    if (seen.insert(std::move(key)).second) {
      out.push_back({std::move(s), std::move(p), std::move(o)});
      ++emitted;
    }
  };

  bool budget_blown = false;
  auto eval_where = [&]() {
    Executor executor(source_, RowWidth(plan), prof, options_.budget);
    obs::OperatorTimer timer(prof);
    std::vector<ColumnBatch> solutions =
        RunRootGroup(executor, plan, EffectiveExecMode(options_));
    timer.Finish(TotalActiveRows(solutions));
    metrics.intermediate_rows.Increment(executor.intermediate_rows());
    intermediate = executor.intermediate_rows();
    if (stats != nullptr) {
      stats->intermediate_rows = executor.intermediate_rows();
    }
    budget_blown = executor.budget_exhausted();
    return solutions;
  };

  if (query.form == QueryForm::kConstruct) {
    std::vector<ColumnBatch> solutions = eval_where();
    if (budget_blown) {
      return Status::ResourceExhausted("query exceeded its execution budget");
    }
    // Resolve template positions to slots once, not per solution.
    struct TemplateStep {
      SlotId s_slot, p_slot, o_slot;
      Term s_const, p_const, o_const;
    };
    std::vector<TemplateStep> compiled;
    for (const TriplePatternAst& tmpl : query.construct_template) {
      TemplateStep ts{kNoSlot, kNoSlot, kNoSlot, {}, {}, {}};
      auto fill = [&](const NodeOrVar& n, SlotId* slot, Term* c) {
        if (IsVar(n)) {
          *slot = plan.SlotOf(AsVar(n).name);
        } else {
          *c = AsTerm(n);
        }
      };
      fill(tmpl.s, &ts.s_slot, &ts.s_const);
      fill(tmpl.p, &ts.p_slot, &ts.p_const);
      fill(tmpl.o, &ts.o_slot, &ts.o_const);
      compiled.push_back(std::move(ts));
    }
    const BatchListView view(solutions);
    // Pre-size for the dedup-free upper bound (solutions x templates);
    // push_back never reallocates below.
    out.reserve(view.total() * compiled.size());
    view.ForEachRow(0, view.total(), [&](const ColumnBatch& b,
                                         uint32_t phys) {
      for (const TemplateStep& ts : compiled) {
        auto resolve = [&](SlotId slot, const Term& c, Term* t) {
          if (slot == kNoSlot) {
            *t = c;
            return true;
          }
          const TermId id = b.at(phys, slot);
          if (id == kInvalidTermId) return false;
          *t = dict.term(id);
          return true;
        };
        Term s, p, o;
        if (!resolve(ts.s_slot, ts.s_const, &s) ||
            !resolve(ts.p_slot, ts.p_const, &p) ||
            !resolve(ts.o_slot, ts.o_const, &o)) {
          continue;  // unbound variable: skip this template instance
        }
        if (s.is_literal() || !p.is_iri()) continue;  // invalid RDF
        emit(std::move(s), std::move(p), std::move(o));
      }
    });
    return out;
  }

  if (query.form == QueryForm::kDescribe) {
    // Collect the resources to describe.
    std::vector<TermId> resources;
    std::vector<SlotId> target_slots;
    bool has_var_target = false;
    for (const NodeOrVar& target : query.describe_targets) {
      if (IsVar(target)) {
        has_var_target = true;
        target_slots.push_back(plan.SlotOf(AsVar(target).name));
      } else {
        TermId id = dict.Lookup(AsTerm(target));
        if (id != kInvalidTermId) resources.push_back(id);
      }
    }
    if (has_var_target) {
      std::vector<ColumnBatch> solutions = eval_where();
      if (budget_blown) {
        return Status::ResourceExhausted(
            "query exceeded its execution budget");
      }
      const BatchListView view(solutions);
      resources.reserve(resources.size() +
                        view.total() * target_slots.size());
      view.ForEachRow(0, view.total(), [&](const ColumnBatch& b,
                                           uint32_t phys) {
        for (SlotId slot : target_slots) {
          if (slot == kNoSlot) continue;
          const TermId id = b.at(phys, slot);
          if (id != kInvalidTermId) resources.push_back(id);
        }
      });
    }
    std::sort(resources.begin(), resources.end());
    resources.erase(std::unique(resources.begin(), resources.end()),
                    resources.end());

    // Emit every triple where the resource is subject or object.
    for (TermId r : resources) {
      source_->Scan({r, kInvalidTermId, kInvalidTermId},
                    [&](const rdf::Triple& t) {
                      emit(dict.term(t.s), dict.term(t.p), dict.term(t.o));
                      return true;
                    });
      source_->Scan({kInvalidTermId, kInvalidTermId, r},
                    [&](const rdf::Triple& t) {
                      emit(dict.term(t.s), dict.term(t.p), dict.term(t.o));
                      return true;
                    });
    }
    return out;
  }

  return Status::InvalidArgument(
      "ExecuteGraph expects a CONSTRUCT or DESCRIBE query");
}

Result<ResultTable> QueryEngine::ExecuteImpl(const Query& query,
                                             QueryStats* stats,
                                             std::string_view text) const {
  if (query.form == QueryForm::kConstruct ||
      query.form == QueryForm::kDescribe) {
    return Status::InvalidArgument(
        "use ExecuteGraph for CONSTRUCT/DESCRIBE queries");
  }
  return ExecutePlannedImpl(query, Plan(query), stats, text);
}

Result<ResultTable> QueryEngine::ExecutePlannedImpl(
    const Query& query, const QueryPlan& plan, QueryStats* stats,
    std::string_view text) const {
  LODVIZ_TRACE_SPAN("sparql.execute");
  SparqlMetrics& metrics = SparqlMetrics::Get();
  metrics.queries.Increment();
  Stopwatch sw;

  const bool profiling = options_.profile || ProfilingForced();
  obs::OperatorProfile skeleton;
  if (profiling) skeleton = BuildProfileSkeleton(plan.root);
  obs::OperatorProfile* prof = profiling ? &skeleton : nullptr;

  Executor executor(source_, RowWidth(plan), prof, options_.budget);
  obs::OperatorTimer root_timer(prof);
  std::vector<ColumnBatch> solutions =
      RunRootGroup(executor, plan, EffectiveExecMode(options_));
  const size_t total_rows = TotalActiveRows(solutions);
  root_timer.Finish(total_rows);
  metrics.intermediate_rows.Increment(executor.intermediate_rows());
  const uint64_t intermediate = executor.intermediate_rows();
  if (stats != nullptr) {
    stats->intermediate_rows = intermediate;
  }

  // Record latency, output rows, profile and journal on every exit path.
  uint64_t rows_out = 0;
  struct ExecFold {
    SparqlMetrics& metrics;
    const Stopwatch& sw;
    const uint64_t& rows_out;
    QueryStats* stats;
    const Query& query;
    std::string_view text;
    uint64_t intermediate;
    obs::OperatorProfile* prof;
    ~ExecFold() {
      const double us = sw.ElapsedMicros();
      metrics.rows_out.Increment(rows_out);
      metrics.execute_us.RecordDouble(us);
      if (stats != nullptr) {
        stats->rows_out = rows_out;
        stats->latency_us = us;
      }
      FinalizeObservability(query, text, us, rows_out, intermediate, prof,
                            stats);
    }
  } fold{metrics, sw, rows_out, stats, query, text, intermediate, prof};

  // A blown budget leaves a deliberately truncated solution table; discard
  // it (the fold above still records latency and journals the query).
  if (executor.budget_exhausted()) {
    return Status::ResourceExhausted("query exceeded its execution budget");
  }

  const rdf::Dictionary& dict = source_->dict();

  if (query.form == QueryForm::kAsk) {
    ResultTable table;
    table.ask_result = total_rows > 0;
    return table;
  }

  // Determine output columns.
  std::vector<std::string> columns = query.select_vars;
  if (columns.empty() && query.aggregates.empty()) {
    columns = plan.visible_vars;
  }
  std::vector<SlotId> column_slots;
  column_slots.reserve(columns.size());
  for (const std::string& v : columns) column_slots.push_back(plan.SlotOf(v));

  // ---- Aggregation path ----
  if (!query.aggregates.empty()) {
    std::vector<std::string> out_columns = query.group_by;
    for (const Aggregate& a : query.aggregates) out_columns.push_back(a.alias);
    ResultTable table(out_columns);

    std::vector<SlotId> group_slots;
    group_slots.reserve(query.group_by.size());
    for (const std::string& v : query.group_by) {
      group_slots.push_back(plan.SlotOf(v));
    }

    // Group solution rows by the group-by key (slot values; unbound = 0),
    // reading the key straight off the batch columns. The map is FNV-hashed
    // (formerly a std::map over TermId vectors, a tree comparing whole keys
    // per step); keys are sorted once afterwards so group output order —
    // ascending TermId-vector order, pinned by the determinism test — is
    // unchanged.
    std::unordered_map<std::vector<TermId>, std::vector<RowRef>, TermVecHash>
        groups;
    std::vector<TermId> key;
    for (size_t bi = 0; bi < solutions.size(); ++bi) {
      const ColumnBatch& b = solutions[bi];
      for (size_t i = 0; i < b.active(); ++i) {
        const RowRef ref{static_cast<uint32_t>(bi), b.ActiveRow(i)};
        key.clear();
        for (SlotId slot : group_slots) {
          key.push_back(SlotAt(solutions, ref, slot));
        }
        groups[key].push_back(ref);
      }
    }
    if (groups.empty() && query.group_by.empty()) {
      groups[{}] = {};  // aggregates over zero rows still yield one row
    }
    std::vector<const std::vector<TermId>*> group_keys;
    group_keys.reserve(groups.size());
    for (const auto& kv : groups) group_keys.push_back(&kv.first);
    std::sort(group_keys.begin(), group_keys.end(),
              [](const std::vector<TermId>* a, const std::vector<TermId>* b) {
                return *a < *b;
              });

    std::vector<std::vector<ResultCell>> rows;
    rows.reserve(groups.size());
    for (const std::vector<TermId>* group_key : group_keys) {
      const std::vector<RowRef>& members = groups.find(*group_key)->second;
      std::vector<ResultCell> row;
      if (!members.empty()) {
        for (SlotId slot : group_slots) {
          row.push_back(CellAt(dict, solutions, members.front(), slot));
        }
      } else {
        for (size_t i = 0; i < group_slots.size(); ++i) {
          row.push_back(ResultCell{{}, false});
        }
      }
      for (const Aggregate& agg : query.aggregates) {
        if (agg.fn == Aggregate::Fn::kCount && agg.var.empty()) {
          row.push_back(ResultCell{
              Term::IntLiteral(static_cast<int64_t>(members.size()))});
          continue;
        }
        // Collect the argument terms (bound only). DISTINCT dedups on the
        // dictionary id: interning is injective, so id equality is term
        // equality.
        SlotId arg_slot = plan.SlotOf(agg.var);
        std::vector<Term> values;
        std::set<TermId> distinct_seen;
        for (const RowRef member : members) {
          const TermId id = SlotAt(solutions, member, arg_slot);
          if (id == kInvalidTermId) continue;
          if (agg.distinct && !distinct_seen.insert(id).second) continue;
          values.push_back(dict.term(id));
        }
        switch (agg.fn) {
          case Aggregate::Fn::kCount:
            row.push_back(ResultCell{
                Term::IntLiteral(static_cast<int64_t>(values.size()))});
            break;
          case Aggregate::Fn::kSum:
          case Aggregate::Fn::kAvg: {
            double sum = 0;
            uint64_t n = 0;
            for (const Term& t : values) {
              Result<double> v = t.AsDouble();
              if (v.ok()) {
                sum += v.ValueOrDie();
                ++n;
              }
            }
            double result = agg.fn == Aggregate::Fn::kSum
                                ? sum
                                : (n ? sum / static_cast<double>(n) : 0.0);
            row.push_back(ResultCell{Term::DoubleLiteral(result)});
            break;
          }
          case Aggregate::Fn::kMin:
          case Aggregate::Fn::kMax: {
            if (values.empty()) {
              row.push_back(ResultCell{{}, false});
              break;
            }
            const Term* best = &values.front();
            for (const Term& t : values) {
              Result<int> c = CompareTerms(t, *best);
              if (c.ok() &&
                  ((agg.fn == Aggregate::Fn::kMin && c.ValueOrDie() < 0) ||
                   (agg.fn == Aggregate::Fn::kMax && c.ValueOrDie() > 0))) {
                best = &t;
              }
            }
            row.push_back(ResultCell{*best});
            break;
          }
        }
      }
      rows.push_back(std::move(row));
    }

    // Solution modifiers on the group table. Its cells are un-interned
    // Terms and it has one row per group, so ORDER BY compares cells
    // directly; without ORDER BY the groups keep ascending TermId-key
    // order. Keys resolve through the output columns (group variables and
    // aggregate aliases); any other key is ignored, as on the plain path.
    // DISTINCT has nothing to remove: every row carries its own group key,
    // and group keys are distinct.
    std::vector<std::pair<size_t, bool>> sort_keys;  // column, ascending
    for (const OrderKey& k : query.order_by) {
      for (size_t c = 0; c < out_columns.size(); ++c) {
        if (out_columns[c] == k.var) {
          sort_keys.emplace_back(c, k.ascending);
          break;
        }
      }
    }
    if (!sort_keys.empty()) {
      auto order_value = [](const ResultCell& cell) {
        return OrderValueOf(cell.term, rdf::DecodeTerm(cell.term));
      };
      std::stable_sort(
          rows.begin(), rows.end(),
          [&](const std::vector<ResultCell>& a,
              const std::vector<ResultCell>& b) {
            for (const auto& [c, ascending] : sort_keys) {
              if (!a[c].bound && !b[c].bound) continue;
              if (!a[c].bound) return ascending;
              if (!b[c].bound) return !ascending;
              const int cv =
                  CompareCellsForOrder(order_value(a[c]), order_value(b[c]));
              if (cv != 0) return ascending ? cv < 0 : cv > 0;
            }
            return false;
          });
    }
    const auto [begin, end] = SliceBounds(rows.size(), query);
    table.Reserve(end - begin);
    for (size_t i = begin; i < end; ++i) table.AddRow(std::move(rows[i]));
    rows_out = table.num_rows();
    return table;
  }

  // ---- Plain projection path (late materialization) ----
  // ORDER BY, DISTINCT and OFFSET/LIMIT permute and prune RowRefs over the
  // batch list; only the rows that survive every modifier materialize
  // Terms. The row engine materialized the full ResultTable first — same
  // rows, same order, fewer Term copies.
  std::vector<RowRef> refs = CollectRefs(solutions);

  // ORDER BY. Sort keys resolve through the projected columns: an ORDER BY
  // variable that is not projected is silently ignored (longstanding
  // behavior, preserved). Each key ranks its distinct terms once
  // (OrderRanks); rows then sort on integer rank tuples. A DESC key flips
  // its ranks, unbound included, so unbound rows sort first ascending and
  // last descending. The sort is stable: ties keep solution order.
  if (!query.order_by.empty()) {
    std::vector<std::vector<uint32_t>> key_ranks;
    for (const OrderKey& k : query.order_by) {
      SlotId slot = kNoSlot;
      for (size_t c = 0; c < columns.size(); ++c) {
        if (columns[c] == k.var) {
          slot = column_slots[c];
          break;
        }
      }
      if (slot == kNoSlot) continue;  // every row unbound: never decides
      std::vector<TermId> ids(refs.size());
      for (size_t i = 0; i < refs.size(); ++i) {
        ids[i] = SlotAt(solutions, refs[i], slot);
      }
      std::vector<uint32_t> ranks = OrderRanks(dict, ids);
      if (!k.ascending && !ranks.empty()) {
        const uint32_t top = *std::max_element(ranks.begin(), ranks.end());
        for (uint32_t& r : ranks) r = top - r;
      }
      key_ranks.push_back(std::move(ranks));
    }
    std::vector<uint32_t> perm(refs.size());
    std::iota(perm.begin(), perm.end(), 0u);
    std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
      for (const std::vector<uint32_t>& ranks : key_ranks) {
        if (ranks[a] != ranks[b]) return ranks[a] < ranks[b];
      }
      return false;
    });
    std::vector<RowRef> sorted;
    sorted.reserve(refs.size());
    for (uint32_t i : perm) sorted.push_back(refs[i]);
    refs = std::move(sorted);
  }

  // DISTINCT: first occurrence wins, keyed on the projected TermId tuple
  // (FNV-hashed). Equivalent to the former serialized-string key because
  // interning is injective — equal ids iff equal terms — and unbound cells
  // are uniformly kInvalidTermId.
  if (query.distinct) {
    std::unordered_set<std::vector<TermId>, TermVecHash> seen;
    std::vector<RowRef> kept;
    std::vector<TermId> key;
    for (const RowRef r : refs) {
      key.clear();
      for (SlotId slot : column_slots) key.push_back(SlotAt(solutions, r, slot));
      if (seen.insert(key).second) kept.push_back(r);
    }
    refs = std::move(kept);
  }

  // OFFSET / LIMIT: slice the reference list before materializing.
  if (query.offset > 0 || query.limit >= 0) {
    const auto [begin, end] = SliceBounds(refs.size(), query);
    refs.assign(refs.begin() + static_cast<ptrdiff_t>(begin),
                refs.begin() + static_cast<ptrdiff_t>(end));
  }

  ResultTable table(columns);
  table.Reserve(refs.size());
  for (const RowRef r : refs) {
    std::vector<ResultCell> row;
    row.reserve(columns.size());
    for (SlotId slot : column_slots) {
      row.push_back(CellAt(dict, solutions, r, slot));
    }
    table.AddRow(std::move(row));
  }

  rows_out = table.num_rows();
  return table;
}

Result<std::string> QueryEngine::ExplainAnalyzeImpl(
    const Query& query, std::string_view text) const {
  Options opts = options_;
  opts.profile = true;
  QueryEngine profiled(source_, opts);
  QueryStats stats;
  // Threads `text` through so a journal-admitted run keeps the query text.
  if (query.form == QueryForm::kConstruct ||
      query.form == QueryForm::kDescribe) {
    LODVIZ_ASSIGN_OR_RETURN(std::vector<rdf::ParsedTriple> discarded,
                            profiled.ExecuteGraphImpl(query, &stats, text));
    (void)discarded;
  } else {
    LODVIZ_ASSIGN_OR_RETURN(ResultTable discarded,
                            profiled.ExecuteImpl(query, &stats, text));
    (void)discarded;
  }

  char line[160];
  std::snprintf(line, sizeof(line),
                "explain analyze  fingerprint=0x%016llx\n",
                static_cast<unsigned long long>(stats.fingerprint));
  std::string out = line;
  out += obs::ProfileTreeString(stats.profile.root);
  std::snprintf(
      line, sizeof(line),
      "total: rows_out=%llu  intermediate_rows=%llu  time=%.1fus\n",
      static_cast<unsigned long long>(stats.rows_out),
      static_cast<unsigned long long>(stats.intermediate_rows),
      stats.latency_us);
  out += line;
  return out;
}

Result<std::string> QueryEngine::ExplainAnalyzeString(
    std::string_view text) const {
  LODVIZ_ASSIGN_OR_RETURN(Query q, ParseTraced(text));
  return ExplainAnalyzeImpl(q, text);
}

}  // namespace lodviz::sparql
