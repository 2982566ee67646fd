// Vectorized-execution tests: ColumnBatch representation invariants
// (constant/dense segment encoding, selection vectors, batch-list
// addressing), engine-level row-vs-batch agreement at the kBatchRows chunk
// boundaries (0/1/1023/1024/1025 rows), and the GROUP BY determinism pin —
// group output order is ascending TermId-vector order, a contract the
// FNV-hashed grouping map must reproduce by sorting its keys (the former
// std::map got it implicitly).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rdf/ntriples.h"
#include "rdf/triple_store.h"
#include "sparql/column_batch.h"
#include "sparql/engine.h"

namespace lodviz::sparql {
namespace {

using rdf::kInvalidTermId;
using rdf::TermId;

TEST(ColumnBatchTest, SegmentStaysConstantOnAgreement) {
  ColumnSegment seg;
  EXPECT_TRUE(seg.constant());
  EXPECT_EQ(seg.constant_value(), kInvalidTermId);

  seg.Append(7, 0);
  EXPECT_TRUE(seg.constant());
  EXPECT_EQ(seg.constant_value(), 7u);
  seg.AppendRepeat(7, 100, 1);
  EXPECT_TRUE(seg.constant());

  const TermId same[3] = {7, 7, 7};
  seg.AppendDense(same, 3, 101);
  EXPECT_TRUE(seg.constant());
  EXPECT_EQ(seg.at(0), 7u);
  EXPECT_EQ(seg.at(103), 7u);
}

TEST(ColumnBatchTest, SegmentDensifiesOnDisagreementAndBackfills) {
  ColumnSegment seg;
  seg.AppendRepeat(5, 4, 0);  // 4 rows of 5, still constant
  ASSERT_TRUE(seg.constant());
  seg.Append(9, 4);  // first disagreement: rows 0-3 must backfill to 5
  EXPECT_FALSE(seg.constant());
  for (uint32_t r = 0; r < 4; ++r) EXPECT_EQ(seg.at(r), 5u) << r;
  EXPECT_EQ(seg.at(4), 9u);

  // A dense run that starts agreeing and then diverges mid-run.
  ColumnSegment seg2;
  seg2.Append(1, 0);
  const TermId run[4] = {1, 1, 2, 3};
  seg2.AppendDense(run, 4, 1);
  EXPECT_FALSE(seg2.constant());
  const TermId want[5] = {1, 1, 1, 2, 3};
  for (uint32_t r = 0; r < 5; ++r) EXPECT_EQ(seg2.at(r), want[r]) << r;
}

TEST(ColumnBatchTest, AppendRunKeepsCarriedColumnsConstant) {
  ColumnBatch batch(3);
  // Base solution: slot 0 bound to 42, slots 1-2 unbound; slot 1 varies.
  const TermId sol[3] = {42, kInvalidTermId, kInvalidTermId};
  const TermId vals[4] = {10, 11, 12, 13};
  const ColumnBatch::RunColumn var[1] = {{1, vals}};
  batch.AppendRun(sol, 4, var, 1);

  EXPECT_EQ(batch.rows(), 4u);
  EXPECT_TRUE(batch.col(0).constant());
  EXPECT_EQ(batch.col(0).constant_value(), 42u);
  EXPECT_FALSE(batch.col(1).constant());
  EXPECT_TRUE(batch.col(2).constant());
  EXPECT_EQ(batch.col(2).constant_value(), kInvalidTermId);
  for (uint32_t r = 0; r < 4; ++r) {
    EXPECT_EQ(batch.at(r, 1), vals[r]) << r;
  }
  TermId out[3];
  batch.GatherRow(2, out);
  EXPECT_EQ(out[0], 42u);
  EXPECT_EQ(out[1], 12u);
  EXPECT_EQ(out[2], kInvalidTermId);
}

TEST(ColumnBatchTest, SelectionRoundTrip) {
  ColumnBatch batch(2);
  for (TermId r = 0; r < 6; ++r) {
    const TermId row[2] = {r, 100 + r};
    batch.AppendRow(row);
  }
  EXPECT_EQ(batch.active(), 6u);
  EXPECT_FALSE(batch.has_selection());
  EXPECT_EQ(batch.ActiveRow(3), 3u);

  batch.SetSelection({0, 2, 5});
  EXPECT_EQ(batch.rows(), 6u);  // physical rows untouched
  EXPECT_EQ(batch.active(), 3u);
  EXPECT_TRUE(batch.has_selection());
  EXPECT_EQ(batch.ActiveRow(0), 0u);
  EXPECT_EQ(batch.ActiveRow(1), 2u);
  EXPECT_EQ(batch.ActiveRow(2), 5u);
  EXPECT_EQ(batch.at(batch.ActiveRow(2), 1), 105u);

  // Re-filtering installs a subset selection in physical indices — the
  // pattern FilterBatches uses on already-filtered batches.
  batch.SetSelection({2, 5});
  EXPECT_EQ(batch.active(), 2u);
  EXPECT_EQ(batch.at(batch.ActiveRow(0), 0), 2u);

  batch.Clear();
  EXPECT_EQ(batch.rows(), 0u);
  EXPECT_EQ(batch.active(), 0u);
  EXPECT_FALSE(batch.has_selection());
}

TEST(ColumnBatchTest, RowsToBatchesChunksAtBoundary) {
  const size_t width = 2;
  for (size_t n : {size_t{0}, size_t{1}, kBatchRows - 1, kBatchRows,
                   kBatchRows + 1}) {
    std::vector<TermId> data(n * width);
    for (size_t r = 0; r < n; ++r) {
      data[r * width] = static_cast<TermId>(r);
      data[r * width + 1] = static_cast<TermId>(r * 2);
    }
    std::vector<ColumnBatch> batches = RowsToBatches(data.data(), n, width);
    const size_t want_batches = (n + kBatchRows - 1) / kBatchRows;
    ASSERT_EQ(batches.size(), want_batches) << n;
    EXPECT_EQ(TotalActiveRows(batches), n) << n;
    if (n > kBatchRows) {
      EXPECT_EQ(batches[0].rows(), kBatchRows);
      EXPECT_EQ(batches[1].rows(), n - kBatchRows);
    }
    // Logical order is row order.
    const BatchListView view(batches);
    ASSERT_EQ(view.total(), n);
    size_t li = 0;
    view.ForEachRow(0, view.total(),
                    [&](const ColumnBatch& b, uint32_t phys) {
                      EXPECT_EQ(b.at(phys, 0), static_cast<TermId>(li));
                      ++li;
                    });
    EXPECT_EQ(li, n);
  }
}

TEST(ColumnBatchTest, BatchListViewSkipsEmptyAndHonorsSelections) {
  std::vector<ColumnBatch> batches;
  // Batch 0: 3 rows, selection keeps {1}. Batch 1: empty. Batch 2: 2 rows.
  batches.emplace_back(1);
  for (TermId r = 0; r < 3; ++r) {
    batches.back().AppendRow(&r);
  }
  batches.back().SetSelection({1});
  batches.emplace_back(1);
  batches.emplace_back(1);
  for (TermId r = 10; r < 12; ++r) {
    batches.back().AppendRow(&r);
  }

  const BatchListView view(batches);
  ASSERT_EQ(view.total(), 3u);
  std::vector<TermId> seen;
  view.ForEachRow(0, view.total(), [&](const ColumnBatch& b, uint32_t phys) {
    seen.push_back(b.at(phys, 0));
  });
  EXPECT_EQ(seen, (std::vector<TermId>{1, 10, 11}));

  // Locate agrees with the iteration, including sub-ranges.
  EXPECT_EQ(view.Locate(0).first, 0u);
  EXPECT_EQ(view.Locate(0).second, 1u);
  EXPECT_EQ(view.Locate(1).first, 2u);
  EXPECT_EQ(view.Locate(1).second, 0u);
  EXPECT_EQ(view.Locate(2).second, 1u);
  seen.clear();
  view.ForEachRow(1, 3, [&](const ColumnBatch& b, uint32_t phys) {
    seen.push_back(b.at(phys, 0));
  });
  EXPECT_EQ(seen, (std::vector<TermId>{10, 11}));
}

// ---------------------------------------------------------------------------
// Engine-level chunk-boundary agreement: build stores whose solution counts
// land exactly around kBatchRows and compare the two executors wholesale.
// ---------------------------------------------------------------------------

std::string Key(const ResultTable& t) {
  return (t.ask_result ? "ask:true\n" : "ask:false\n") +
         t.ToString(t.num_rows());
}

void FillStore(size_t n, rdf::TripleStore* store) {
  std::string doc;
  for (size_t i = 0; i < n; ++i) {
    const std::string num = std::to_string(i);
    std::string padded = num;
    padded.insert(0, 6 - padded.size(), '0');  // fixed-width subject names
    doc += "<http://z/s" + padded + "> <http://z/v> \"" + num +
           "\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
  }
  ASSERT_TRUE(rdf::LoadNTriplesString(doc, store).ok());
}

TEST(BatchBoundaryTest, RowAndBatchAgreeAroundChunkBoundaries) {
  static_assert(kBatchRows == 1024, "boundary sizes assume 1K chunks");
  const char* queries[] = {
      "SELECT ?s ?v WHERE { ?s <http://z/v> ?v . }",
      "SELECT ?s WHERE { ?s <http://z/v> ?v . FILTER(?v >= 512) }",
      "SELECT DISTINCT ?v WHERE { ?s <http://z/v> ?v . }",
      "SELECT ?s WHERE { ?s <http://z/v> ?v . } LIMIT 10 OFFSET 1020",
      "SELECT ?s ?v WHERE { ?s <http://z/v> ?v . } ORDER BY DESC(?v)",
      "SELECT (COUNT(*) AS ?n) (SUM(?v) AS ?sum) WHERE "
      "{ ?s <http://z/v> ?v . }",
      "ASK { ?s <http://z/v> ?v . FILTER(?v > 1023) }",
  };
  for (size_t n : {size_t{0}, size_t{1}, kBatchRows - 1, kBatchRows,
                   kBatchRows + 1}) {
    rdf::TripleStore store;
    FillStore(n, &store);
    QueryEngine::Options row_opts;
    row_opts.exec_mode = ExecMode::kRow;
    QueryEngine::Options batch_opts;
    batch_opts.exec_mode = ExecMode::kBatch;
    QueryEngine row_engine(&store, row_opts);
    QueryEngine batch_engine(&store, batch_opts);
    for (const char* q : queries) {
      auto row = row_engine.ExecuteString(q);
      auto batch = batch_engine.ExecuteString(q);
      ASSERT_TRUE(row.ok()) << n << " " << q << "\n"
                            << row.status().ToString();
      ASSERT_TRUE(batch.ok()) << n << " " << q << "\n"
                              << batch.status().ToString();
      EXPECT_EQ(Key(row.ValueOrDie()), Key(batch.ValueOrDie()))
          << "n=" << n << " " << q;
    }
    // Spot-check the specialized filter count so both modes being equal
    // cannot hide both being wrong.
    auto filtered = batch_engine.ExecuteString(
        "SELECT ?s WHERE { ?s <http://z/v> ?v . FILTER(?v >= 512) }");
    ASSERT_TRUE(filtered.ok());
    EXPECT_EQ(filtered.ValueOrDie().num_rows(), n > 512 ? n - 512 : 0u)
        << n;
  }
}

// ---------------------------------------------------------------------------
// GROUP BY output-order determinism.
// ---------------------------------------------------------------------------

TEST(GroupByDeterminismTest, OutputOrderIsAscendingGroupKeyIds) {
  // <http://g/B> is interned before <http://g/A> (document order), so its
  // TermId is smaller and its group must come FIRST — group order is
  // ascending TermId order, not lexicographic string order. This pins the
  // sorted-keys contract of the FNV-hashed grouping map (and documents
  // that the old std::map behaved identically: both sort the TermId key
  // vector).
  const char* doc = R"(
<http://g/b1> <http://g/type> <http://g/B> .
<http://g/a1> <http://g/type> <http://g/A> .
<http://g/a2> <http://g/type> <http://g/A> .
<http://g/a3> <http://g/type> <http://g/A> .
)";
  rdf::TripleStore store;
  ASSERT_TRUE(rdf::LoadNTriplesString(doc, &store).ok());
  store.Compact();
  const char* q =
      "SELECT ?t (COUNT(*) AS ?n) WHERE { ?s <http://g/type> ?t . } "
      "GROUP BY ?t";

  for (ExecMode mode : {ExecMode::kRow, ExecMode::kBatch}) {
    QueryEngine::Options opts;
    opts.exec_mode = mode;
    QueryEngine engine(&store, opts);
    std::string first;
    for (int repeat = 0; repeat < 5; ++repeat) {
      auto got = engine.ExecuteString(q);
      ASSERT_TRUE(got.ok());
      const ResultTable& t = got.ValueOrDie();
      ASSERT_EQ(t.num_rows(), 2u);
      EXPECT_EQ(t.term(0, 0).lexical, "http://g/B");
      EXPECT_EQ(t.term(0, 1).lexical, "1");
      EXPECT_EQ(t.term(1, 0).lexical, "http://g/A");
      EXPECT_EQ(t.term(1, 1).lexical, "3");
      // And the whole rendering is identical run to run (hash-map
      // iteration order must never leak into the output).
      if (repeat == 0) {
        first = Key(t);
      } else {
        EXPECT_EQ(first, Key(t)) << "mode " << static_cast<int>(mode);
      }
    }
  }
}

}  // namespace
}  // namespace lodviz::sparql
