#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <sstream>

#include "common/random.h"
#include "rdf/ntriples.h"
#include "rdf/streaming.h"
#include "rdf/triple_store.h"
#include "rdf/vocab.h"
#include "test_util.h"

namespace lodviz::rdf {
namespace {

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary dict;
  TermId a = dict.Intern(Term::Iri("http://x/a"));
  TermId b = dict.Intern(Term::Iri("http://x/b"));
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern(Term::Iri("http://x/a")), a);
  EXPECT_EQ(dict.size(), 2u);
}

TEST(DictionaryTest, DistinguishesKindsAndTags) {
  Dictionary dict;
  TermId iri = dict.Intern(Term::Iri("v"));
  TermId lit = dict.Intern(Term::Literal("v"));
  TermId typed = dict.Intern(Term::Literal("v", vocab::kXsdString));
  TermId lang = dict.Intern(Term::LangLiteral("v", "en"));
  TermId blank = dict.Intern(Term::Blank("v"));
  std::set<TermId> ids = {iri, lit, typed, lang, blank};
  EXPECT_EQ(ids.size(), 5u);
}

TEST(DictionaryTest, RoundTrip) {
  Dictionary dict;
  Term t = Term::LangLiteral("caf\xC3\xA9", "fr");
  TermId id = dict.Intern(t);
  EXPECT_EQ(test::Unwrap(dict.GetTerm(id)), t);
  EXPECT_EQ(dict.Lookup(t), id);
}

TEST(DictionaryTest, InvalidLookups) {
  Dictionary dict;
  EXPECT_EQ(dict.Lookup(Term::Iri("nope")), kInvalidTermId);
  EXPECT_FALSE(dict.GetTerm(kInvalidTermId).ok());
  EXPECT_FALSE(dict.GetTerm(999).ok());
}

class TripleStoreFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    alice_ = store_.dict().InternIri("http://x/alice");
    bob_ = store_.dict().InternIri("http://x/bob");
    carol_ = store_.dict().InternIri("http://x/carol");
    knows_ = store_.dict().InternIri("http://x/knows");
    age_ = store_.dict().InternIri("http://x/age");
    v30_ = store_.dict().InternLiteral("30", vocab::kXsdInteger);
    v40_ = store_.dict().InternLiteral("40", vocab::kXsdInteger);
    store_.AddEncoded({alice_, knows_, bob_});
    store_.AddEncoded({bob_, knows_, carol_});
    store_.AddEncoded({alice_, age_, v30_});
    store_.AddEncoded({bob_, age_, v40_});
  }

  TripleStore store_;
  TermId alice_, bob_, carol_, knows_, age_, v30_, v40_;
};

TEST_F(TripleStoreFixture, MatchBySubject) {
  auto r = store_.Match({alice_, kInvalidTermId, kInvalidTermId});
  EXPECT_EQ(r.size(), 2u);
}

TEST_F(TripleStoreFixture, MatchByPredicate) {
  EXPECT_EQ(store_.Count({kInvalidTermId, knows_, kInvalidTermId}), 2u);
  EXPECT_EQ(store_.Count({kInvalidTermId, age_, kInvalidTermId}), 2u);
}

TEST_F(TripleStoreFixture, MatchByObject) {
  auto r = store_.Match({kInvalidTermId, kInvalidTermId, bob_});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].s, alice_);
}

TEST_F(TripleStoreFixture, MatchFullyBound) {
  EXPECT_EQ(store_.Count({alice_, knows_, bob_}), 1u);
  EXPECT_EQ(store_.Count({alice_, knows_, carol_}), 0u);
}

TEST_F(TripleStoreFixture, ScanEarlyStop) {
  int seen = 0;
  store_.Scan(TriplePattern(), [&](const Triple&) {
    ++seen;
    return seen < 2;
  });
  EXPECT_EQ(seen, 2);
}

TEST_F(TripleStoreFixture, VisibleBeforeCompaction) {
  // Small store: nothing has hit the compaction threshold, yet everything
  // must be query-visible (dynamic setting).
  EXPECT_EQ(store_.Count(TriplePattern()), 4u);
  store_.Compact();
  EXPECT_EQ(store_.Count(TriplePattern()), 4u);
}

TEST_F(TripleStoreFixture, DuplicatesRemovedOnCompact) {
  store_.AddEncoded({alice_, knows_, bob_});
  store_.Compact();
  EXPECT_EQ(store_.Count({alice_, knows_, bob_}), 1u);
}

TEST_F(TripleStoreFixture, DistinctSubjectsAndObjects) {
  auto subjects = store_.DistinctSubjects();
  EXPECT_EQ(subjects.size(), 2u);  // alice, bob
  auto ages = store_.DistinctObjects(age_);
  EXPECT_EQ(ages.size(), 2u);
  auto known = store_.DistinctObjects(knows_);
  EXPECT_EQ(known.size(), 2u);  // bob, carol
}

TEST_F(TripleStoreFixture, PredicateCounts) {
  EXPECT_EQ(store_.predicate_counts().at(knows_), 2u);
  EXPECT_EQ(store_.predicate_counts().at(age_), 2u);
}

/// Property test: for random data and every pattern shape, the indexed scan
/// must agree with a naive filter over all triples.
class PatternAgreement : public ::testing::TestWithParam<int> {};

/// Scan order of a compacted store: the permutation serving the pattern.
bool NaiveScanOrder(const TriplePattern& pat, const Triple& a,
                    const Triple& b) {
  if (pat.s != kInvalidTermId) return OrderSpo()(a, b);
  if (pat.p != kInvalidTermId) return OrderPos()(a, b);
  if (pat.o != kInvalidTermId) return OrderOsp()(a, b);
  return OrderSpo()(a, b);
}

TEST_P(PatternAgreement, IndexedMatchesNaive) {
  Rng rng(GetParam());
  TripleStore store(/*compaction_threshold=*/64);  // force compactions
  std::set<Triple, OrderSpo> all;
  std::vector<Triple> added;
  // Rounds of inserts merged into the indexes by threshold compactions and
  // explicit ones; re-adds repeat triples within one delta and across
  // deltas.
  for (int round = 0; round < 12; ++round) {
    const int n = static_cast<int>(rng.Uniform(150));
    for (int i = 0; i < n; ++i) {
      Triple t(static_cast<TermId>(1 + rng.Uniform(20)),
               static_cast<TermId>(1 + rng.Uniform(5)),
               static_cast<TermId>(1 + rng.Uniform(30)));
      if (!added.empty() && rng.Bernoulli(0.2)) {
        t = added[rng.Uniform(added.size())];
      }
      store.AddEncoded(t);
      added.push_back(t);
      all.insert(t);
    }
    if (rng.Bernoulli(0.5)) continue;  // leave a pending delta for later
    store.Compact();
    EXPECT_EQ(store.size(), all.size()) << "round=" << round;

    for (int mask = 0; mask < 8; ++mask) {
      for (int probe = 0; probe < 4; ++probe) {
        TriplePattern pat;
        if (mask & 1) pat.s = static_cast<TermId>(1 + rng.Uniform(20));
        if (mask & 2) pat.p = static_cast<TermId>(1 + rng.Uniform(5));
        if (mask & 4) pat.o = static_cast<TermId>(1 + rng.Uniform(30));
        std::vector<Triple> naive;
        for (const Triple& t : all) {
          if (pat.Matches(t)) naive.push_back(t);
        }
        std::sort(naive.begin(), naive.end(),
                  [&](const Triple& a, const Triple& b) {
                    return NaiveScanOrder(pat, a, b);
                  });
        EXPECT_EQ(store.Count(pat), naive.size()) << "mask=" << mask;
        EXPECT_EQ(store.Match(pat), naive)
            << "round=" << round << " mask=" << mask;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatternAgreement, ::testing::Range(1, 6));

TEST(NTriplesTest, ParsesBasicLine) {
  auto r = ParseNTriplesLine("<http://x/s> <http://x/p> <http://x/o> .");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->subject.lexical, "http://x/s");
  EXPECT_EQ(r->object.lexical, "http://x/o");
}

TEST(NTriplesTest, ParsesLiteralsWithDatatypeAndLang) {
  auto r1 = ParseNTriplesLine(
      "<http://x/s> <http://x/p> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->object.datatype, vocab::kXsdInteger);

  auto r2 = ParseNTriplesLine("<http://x/s> <http://x/p> \"hi\"@en .");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->object.language, "en");
}

TEST(NTriplesTest, ParsesBlankNodes) {
  auto r = ParseNTriplesLine("_:b1 <http://x/p> _:b2 .");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->subject.is_blank());
  EXPECT_TRUE(r->object.is_blank());
}

TEST(NTriplesTest, SkipsCommentsAndBlanks) {
  EXPECT_EQ(ParseNTriplesLine("# comment").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ParseNTriplesLine("   ").status().code(), StatusCode::kNotFound);
}

TEST(NTriplesTest, RejectsMalformed) {
  EXPECT_FALSE(ParseNTriplesLine("<http://x/s> <http://x/p>").ok());
  EXPECT_FALSE(ParseNTriplesLine("\"lit\" <http://x/p> <http://x/o> .").ok());
  EXPECT_FALSE(ParseNTriplesLine("<http://x/s> _:b <http://x/o> .").ok());
  EXPECT_FALSE(
      ParseNTriplesLine("<http://x/s> <http://x/p> <http://x/o>").ok());
  EXPECT_FALSE(ParseNTriplesLine("<unterminated <p> <o> .").ok());
}

TEST(NTriplesTest, DocumentRoundTrip) {
  const char* doc =
      "# people\n"
      "<http://x/alice> <http://x/knows> <http://x/bob> .\n"
      "<http://x/alice> <http://x/name> \"Alice \\\"A\\\"\"@en .\n"
      "<http://x/bob> <http://x/age> \"40\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
  TripleStore store;
  auto n = LoadNTriplesString(doc, &store);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.ValueOrDie(), 3u);

  std::ostringstream out;
  WriteNTriples(store, out);
  TripleStore store2;
  auto n2 = LoadNTriplesString(out.str(), &store2);
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(n2.ValueOrDie(), 3u);

  std::ostringstream out2;
  WriteNTriples(store2, out2);
  EXPECT_EQ(out.str(), out2.str());
}

TEST(NTriplesTest, StrictModeStopsOnBadLine) {
  const char* doc = "<http://x/a> <http://x/p> <http://x/b> .\nbad line\n";
  TripleStore strict_store;
  EXPECT_FALSE(LoadNTriplesString(doc, &strict_store, /*strict=*/true).ok());
  TripleStore lax_store;
  auto n = LoadNTriplesString(doc, &lax_store, /*strict=*/false);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.ValueOrDie(), 1u);
}

TEST(StreamingTest, VectorSourceDeliversAll) {
  std::vector<ParsedTriple> data;
  for (int i = 0; i < 10; ++i) {
    data.push_back({Term::Iri("http://x/s" + std::to_string(i)),
                    Term::Iri("http://x/p"), Term::IntLiteral(i)});
  }
  VectorStreamSource source(data);
  TripleStore store;
  size_t batches = 0;
  std::vector<Triple> seen;
  size_t total = IngestStream(&source, &store, 3,
                              [&](std::span<const Triple> batch, size_t) {
                                ++batches;
                                seen.insert(seen.end(), batch.begin(),
                                            batch.end());
                              });
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(batches, 4u);  // 3+3+3+1
  EXPECT_EQ(store.size(), 10u);
  // The hook sees every triple as encoded into the store, in order.
  ASSERT_EQ(seen.size(), 10u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], Triple(store.dict().Lookup(data[i].subject),
                              store.dict().Lookup(data[i].predicate),
                              store.dict().Lookup(data[i].object)));
  }
}

TEST(StreamingTest, GeneratorSourceStopsWhenDone) {
  int produced = 0;
  GeneratorStreamSource source([&](ParsedTriple* out) {
    if (produced >= 5) return false;
    out->subject = Term::Iri("http://x/s" + std::to_string(produced));
    out->predicate = Term::Iri("http://x/p");
    out->object = Term::IntLiteral(produced);
    ++produced;
    return true;
  });
  TripleStore store;
  EXPECT_EQ(IngestStream(&source, &store, 2), 5u);
  EXPECT_TRUE(source.Exhausted());
}

TEST(StreamingTest, EndpointSimulatorCountsRequests) {
  std::vector<ParsedTriple> data(25, {Term::Iri("http://x/s"),
                                      Term::Iri("http://x/p"),
                                      Term::Iri("http://x/o")});
  EndpointSimulator endpoint(data, /*page_size=*/10, /*per_request_ms=*/50);
  TripleStore store;
  IngestStream(&endpoint, &store, /*batch_size=*/100);
  EXPECT_EQ(endpoint.requests_made(), 3u);  // 10+10+5
  EXPECT_DOUBLE_EQ(endpoint.simulated_latency_ms(), 150.0);
}

}  // namespace
}  // namespace lodviz::rdf
