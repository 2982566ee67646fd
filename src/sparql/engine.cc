#include "sparql/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "rdf/dictionary.h"
#include "rdf/term_order.h"

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

/// Dense ranks of `values` in result order (rdf::CompareCellsForOrder),
/// starting at 1; equivalent values share a rank.
std::vector<uint32_t> RankValues(const std::vector<rdf::OrderValue>& values) {
  std::vector<uint32_t> by_order(values.size());
  std::iota(by_order.begin(), by_order.end(), 0u);
  std::sort(by_order.begin(), by_order.end(), [&](uint32_t a, uint32_t b) {
    return rdf::CompareCellsForOrder(values[a], values[b]) < 0;
  });
  std::vector<uint32_t> rank_of(values.size());
  uint32_t rank = 0;
  for (size_t i = 0; i < by_order.size(); ++i) {
    if (i == 0 || rdf::CompareCellsForOrder(values[by_order[i - 1]],
                                            values[by_order[i]]) != 0) {
      ++rank;
    }
    rank_of[by_order[i]] = rank;
  }
  return rank_of;
}

/// ORDER BY ranks of one key column of dictionary ids: ranks[i] places
/// ids[i] in result order; equivalent terms share a rank (so a later key
/// still decides between them) and unbound cells (kInvalidTermId) rank 0.
/// When the source's term order covers every id, the ranks are read from
/// it. Otherwise (no order: the memory store; or ids interned after the
/// order was built) each distinct id is ranked here once, from the
/// dictionary's intern-time value cache. Either way, sorting rows
/// afterwards compares integers alone.
std::vector<uint32_t> OrderRanks(const rdf::Dictionary& dict,
                                 const rdf::TermOrder* order,
                                 const std::vector<TermId>& ids) {
  std::vector<uint32_t> ranks(ids.size(), 0);
  if (order != nullptr) {
    size_t i = 0;
    for (; i < ids.size() && order->Covers(ids[i]); ++i) {
      ranks[i] = order->rank(ids[i]);
    }
    if (i == ids.size()) return ranks;
  }
  std::vector<TermId> distinct(ids);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  if (!distinct.empty() && distinct.front() == kInvalidTermId) {
    distinct.erase(distinct.begin());
  }
  std::vector<rdf::OrderValue> values;
  values.reserve(distinct.size());
  for (TermId id : distinct) {
    values.push_back(rdf::OrderValueOf(dict.term(id), dict.decoded(id)));
  }
  const std::vector<uint32_t> rank_of = RankValues(values);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == kInvalidTermId) continue;
    ranks[i] = rank_of[static_cast<size_t>(
        std::lower_bound(distinct.begin(), distinct.end(), ids[i]) -
        distinct.begin())];
  }
  return ranks;
}

/// A DESC key flips its ranks, unbound included, so unbound rows sort
/// first ascending and last descending.
void FlipRanks(std::vector<uint32_t>* ranks) {
  if (ranks->empty()) return;
  const uint32_t top = *std::max_element(ranks->begin(), ranks->end());
  for (uint32_t& r : *ranks) r = top - r;
}

/// The stable order of rows [0, n) under ORDER BY keys given as rank
/// columns (DESC already flipped): rows compare by rank tuple, ties keep
/// row order.
std::vector<uint32_t> SortByRanks(
    size_t n, const std::vector<std::vector<uint32_t>>& key_ranks) {
  std::vector<uint32_t> perm(n);
  if (key_ranks.size() == 1) {
    // One key: sort (rank, row) pairs packed into one word. The row index
    // breaks ties, which makes the plain sort stable.
    std::vector<uint64_t> packed(n);
    for (size_t i = 0; i < n; ++i) {
      packed[i] = (static_cast<uint64_t>(key_ranks[0][i]) << 32) | i;
    }
    std::sort(packed.begin(), packed.end());
    for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(packed[i]);
    return perm;
  }
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    for (const std::vector<uint32_t>& ranks : key_ranks) {
      if (ranks[a] != ranks[b]) return ranks[a] < ranks[b];
    }
    return false;
  });
  return perm;
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

  const rdf::TermOrder* order = source_->term_order();

  // ---- Aggregation path ----
  if (!query.aggregates.empty()) {
    std::vector<std::string> out_columns = query.group_by;
    for (const Aggregate& a : query.aggregates) out_columns.push_back(a.alias);
    const size_t width = out_columns.size();
    ResultTable table(out_columns, &dict);

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

    // One row of cells per group, row-major: the group key's dictionary
    // ids, then each aggregate's output — a term the table owns, or for
    // MIN/MAX the winning dictionary id.
    const size_t num_groups = group_keys.size();
    std::vector<ResultTable::Cell> cells;
    cells.reserve(num_groups * width);
    for (const std::vector<TermId>* group_key : group_keys) {
      const std::vector<RowRef>& members = groups.find(*group_key)->second;
      cells.insert(cells.end(), group_key->begin(), group_key->end());
      for (const Aggregate& agg : query.aggregates) {
        if (agg.fn == Aggregate::Fn::kCount && agg.var.empty()) {
          cells.push_back(table.Own(
              Term::IntLiteral(static_cast<int64_t>(members.size()))));
          continue;
        }
        // Collect the argument ids (bound only). DISTINCT dedups on the
        // id: interning is injective, so id equality is term equality.
        SlotId arg_slot = plan.SlotOf(agg.var);
        std::vector<TermId> values;
        std::set<TermId> distinct_seen;
        for (const RowRef member : members) {
          const TermId id = SlotAt(solutions, member, arg_slot);
          if (id == kInvalidTermId) continue;
          if (agg.distinct && !distinct_seen.insert(id).second) continue;
          values.push_back(id);
        }
        switch (agg.fn) {
          case Aggregate::Fn::kCount:
            cells.push_back(table.Own(
                Term::IntLiteral(static_cast<int64_t>(values.size()))));
            break;
          case Aggregate::Fn::kSum:
          case Aggregate::Fn::kAvg: {
            double sum = 0;
            uint64_t n = 0;
            for (TermId id : values) {
              Result<double> v = dict.term(id).AsDouble();
              if (v.ok()) {
                sum += v.ValueOrDie();
                ++n;
              }
            }
            double result = agg.fn == Aggregate::Fn::kSum
                                ? sum
                                : (n ? sum / static_cast<double>(n) : 0.0);
            cells.push_back(table.Own(Term::DoubleLiteral(result)));
            break;
          }
          case Aggregate::Fn::kMin:
          case Aggregate::Fn::kMax: {
            if (values.empty()) {
              cells.push_back(kInvalidTermId);
              break;
            }
            TermId best = values.front();
            for (TermId id : values) {
              Result<int> c = CompareTerms(dict.term(id), dict.term(best));
              if (c.ok() &&
                  ((agg.fn == Aggregate::Fn::kMin && c.ValueOrDie() < 0) ||
                   (agg.fn == Aggregate::Fn::kMax && c.ValueOrDie() > 0))) {
                best = id;
              }
            }
            cells.push_back(best);
            break;
          }
        }
      }
    }

    // Solution modifiers on the group table, one row per group. ORDER BY
    // ranks each key column once: a group-key column holds dictionary ids
    // and takes the plain path's ranks; an aggregate column's order value
    // is computed once per row and ranked. Rows then sort on rank tuples;
    // without ORDER BY the groups keep ascending TermId-key order. Keys
    // resolve through the output columns (group variables and aggregate
    // aliases); any other key is ignored, as on the plain path. DISTINCT
    // has nothing to remove: every row carries its own group key, and
    // group keys are distinct.
    std::vector<std::vector<uint32_t>> key_ranks;
    for (const OrderKey& k : query.order_by) {
      const int c = table.ColumnIndex(k.var);
      if (c < 0) continue;
      std::vector<uint32_t> ranks(num_groups, 0);
      if (static_cast<size_t>(c) < group_slots.size()) {
        std::vector<TermId> ids(num_groups);
        for (size_t g = 0; g < num_groups; ++g) ids[g] = cells[g * width + c];
        ranks = OrderRanks(dict, order, ids);
      } else {
        std::vector<rdf::OrderValue> values;
        std::vector<size_t> rows;
        for (size_t g = 0; g < num_groups; ++g) {
          const ResultTable::Cell cell = cells[g * width + c];
          if (cell == kInvalidTermId) continue;
          const Term& t = table.CellTerm(cell);
          values.push_back(rdf::OrderValueOf(t, rdf::DecodeTerm(t)));
          rows.push_back(g);
        }
        const std::vector<uint32_t> rank_of = RankValues(values);
        for (size_t i = 0; i < rows.size(); ++i) ranks[rows[i]] = rank_of[i];
      }
      if (!k.ascending) FlipRanks(&ranks);
      key_ranks.push_back(std::move(ranks));
    }
    const std::vector<uint32_t> perm = SortByRanks(num_groups, key_ranks);
    const auto [begin, end] = SliceBounds(num_groups, query);
    table.Reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      table.AddRow(std::span<const ResultTable::Cell>(
          cells.data() + static_cast<size_t>(perm[i]) * width, width));
    }
    rows_out = table.num_rows();
    return table;
  }

  // ---- Plain projection path (late materialization) ----
  // ORDER BY, DISTINCT and OFFSET/LIMIT permute and prune RowRefs over the
  // batch list; only the rows that survive every modifier reach the
  // table, as one dictionary id per cell — no term is copied here, the
  // serializer reads each cell's term once.
  std::vector<RowRef> refs = CollectRefs(solutions);

  // ORDER BY. Sort keys resolve through the projected columns: an ORDER BY
  // variable that is not projected is silently ignored (longstanding
  // behavior, preserved). Each key becomes one rank column (OrderRanks);
  // rows then sort on integer rank tuples. The sort is stable: ties keep
  // solution order.
  if (!query.order_by.empty()) {
    std::vector<std::vector<uint32_t>> key_ranks;
    std::vector<TermId> ids(refs.size());
    for (const OrderKey& k : query.order_by) {
      SlotId slot = kNoSlot;
      for (size_t c = 0; c < columns.size(); ++c) {
        if (columns[c] == k.var) {
          slot = column_slots[c];
          break;
        }
      }
      if (slot == kNoSlot) continue;  // every row unbound: never decides
      for (size_t i = 0; i < refs.size(); ++i) {
        ids[i] = SlotAt(solutions, refs[i], slot);
      }
      std::vector<uint32_t> ranks = OrderRanks(dict, order, ids);
      if (!k.ascending) FlipRanks(&ranks);
      key_ranks.push_back(std::move(ranks));
    }
    std::vector<RowRef> sorted;
    sorted.reserve(refs.size());
    for (uint32_t i : SortByRanks(refs.size(), key_ranks)) {
      sorted.push_back(refs[i]);
    }
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

  ResultTable table(columns, &dict);
  table.Reserve(refs.size());
  std::vector<ResultTable::Cell> row(column_slots.size());
  for (const RowRef r : refs) {
    for (size_t c = 0; c < column_slots.size(); ++c) {
      row[c] = SlotAt(solutions, r, column_slots[c]);
    }
    table.AddRow(row);
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
