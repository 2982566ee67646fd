// Property test: the query engine's BGP evaluation (with selectivity
// ordering, indexes, and early termination) must agree with a brute-force
// reference evaluator on randomly generated stores and queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "common/random.h"
#include "rdf/triple_store.h"
#include "sparql/engine.h"
#include "sparql/fingerprint.h"
#include "sparql/parser.h"

namespace lodviz::sparql {
namespace {

using rdf::TermId;

/// Brute-force BGP evaluation: try every triple for every pattern,
/// backtracking over variable bindings. Exponential, only for tiny data.
void NaiveEval(const std::vector<rdf::Triple>& triples,
               const std::vector<TriplePatternAst>& patterns, size_t next,
               std::map<std::string, TermId>* binding,
               const rdf::Dictionary& dict,
               std::set<std::string>* results,
               const std::vector<std::string>& projection) {
  if (next == patterns.size()) {
    std::string row;
    for (const std::string& var : projection) {
      auto it = binding->find(var);
      row += (it == binding->end() ? "~" : std::to_string(it->second));
      row += "|";
    }
    results->insert(std::move(row));
    return;
  }
  const TriplePatternAst& pat = patterns[next];
  for (const rdf::Triple& t : triples) {
    std::vector<std::pair<std::string, bool>> bound_here;
    auto match = [&](const NodeOrVar& n, TermId value) {
      if (!IsVar(n)) {
        return dict.Lookup(AsTerm(n)) == value;
      }
      const std::string& name = AsVar(n).name;
      auto it = binding->find(name);
      if (it != binding->end()) return it->second == value;
      binding->emplace(name, value);
      bound_here.emplace_back(name, true);
      return true;
    };
    bool ok = match(pat.s, t.s) && match(pat.p, t.p) && match(pat.o, t.o);
    if (ok) {
      NaiveEval(triples, patterns, next + 1, binding, dict, results,
                projection);
    }
    for (const auto& [name, added] : bound_here) binding->erase(name);
  }
}

class BgpAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BgpAgreement, EngineMatchesBruteForce) {
  Rng rng(GetParam());

  // Small random store over a tiny vocabulary (forces shared variables to
  // actually join).
  rdf::TripleStore store;
  std::vector<rdf::Triple> all;
  const int kSubjects = 6, kPredicates = 3, kObjects = 6;
  std::vector<TermId> subjects, predicates, objects;
  for (int i = 0; i < kSubjects; ++i) {
    subjects.push_back(
        store.dict().InternIri("http://t/s" + std::to_string(i)));
  }
  for (int i = 0; i < kPredicates; ++i) {
    predicates.push_back(
        store.dict().InternIri("http://t/p" + std::to_string(i)));
  }
  for (int i = 0; i < kObjects; ++i) {
    objects.push_back(
        store.dict().InternIri("http://t/o" + std::to_string(i)));
  }
  for (int i = 0; i < 40; ++i) {
    rdf::Triple t(subjects[rng.Uniform(kSubjects)],
                  predicates[rng.Uniform(kPredicates)],
                  objects[rng.Uniform(kObjects)]);
    store.AddEncoded(t);
  }
  store.Compact();
  store.Scan(rdf::TriplePattern(), [&](const rdf::Triple& t) {
    all.push_back(t);
    return true;
  });

  QueryEngine engine(&store);
  const rdf::Dictionary& dict = store.dict();

  // 20 random BGP queries of 1-3 patterns over variables ?a ?b ?c ?d and
  // random constants.
  const char* var_names[] = {"a", "b", "c", "d"};
  for (int q = 0; q < 20; ++q) {
    size_t num_patterns = 1 + rng.Uniform(3);
    std::vector<TriplePatternAst> patterns;
    std::set<std::string> vars_used;
    for (size_t p = 0; p < num_patterns; ++p) {
      auto pick_node = [&](const std::vector<TermId>& pool) -> NodeOrVar {
        if (rng.Bernoulli(0.6)) {
          std::string v = var_names[rng.Uniform(4)];
          vars_used.insert(v);
          return Var{v};
        }
        return dict.term(pool[rng.Uniform(pool.size())]);
      };
      TriplePatternAst pat{pick_node(subjects), pick_node(predicates),
                           pick_node(objects)};
      patterns.push_back(std::move(pat));
    }
    std::vector<std::string> projection(vars_used.begin(), vars_used.end());

    // Engine answer.
    Query query;
    query.form = QueryForm::kSelect;
    query.select_vars = projection;
    for (auto& p : patterns) query.where.triples.push_back(p);
    auto engine_result = engine.Execute(query);
    ASSERT_TRUE(engine_result.ok()) << engine_result.status().ToString();

    std::set<std::string> engine_rows;
    for (size_t r = 0; r < engine_result->num_rows(); ++r) {
      std::string key;
      for (size_t c = 0; c < engine_result->columns().size(); ++c) {
        key += engine_result->bound(r, c)
                   ? std::to_string(dict.Lookup(engine_result->term(r, c)))
                   : "~";
        key += "|";
      }
      engine_rows.insert(std::move(key));
    }

    // Reference answer.
    std::set<std::string> naive_rows;
    std::map<std::string, TermId> binding;
    NaiveEval(all, patterns, 0, &binding, dict, &naive_rows, projection);

    EXPECT_EQ(engine_rows, naive_rows)
        << "seed " << GetParam() << " query " << q << " with "
        << num_patterns << " patterns disagrees";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BgpAgreement,
                         ::testing::Range<uint64_t>(1, 11));

// ---------------------------------------------------------------------------
// Fingerprint properties: the fingerprint is invariant under everything
// the parser erases (whitespace, comments, prefix spelling), consistent
// variable renaming, and literal re-spelling — and sensitive to every
// structural change.
// ---------------------------------------------------------------------------

uint64_t Fp(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << text << "\n" << q.status().ToString();
  return q.ok() ? QueryFingerprint(q.ValueOrDie()) : 0;
}

TEST(FingerprintProperty, WhitespaceAndPrefixSpellingInvariant) {
  const uint64_t want =
      Fp("SELECT ?s WHERE { ?s <http://x/p> ?o . FILTER(?o > 30) }");
  EXPECT_EQ(want, Fp("SELECT   ?s\nWHERE {\n  ?s <http://x/p> ?o .\n"
                     "  FILTER( ?o > 30 )\n}"));
  EXPECT_EQ(want,
            Fp("PREFIX ex: <http://x/> "
               "SELECT ?s WHERE { ?s ex:p ?o . FILTER(?o > 30) }"));
  EXPECT_EQ(want,
            Fp("PREFIX zz: <http://x/> "
               "SELECT ?s WHERE { ?s zz:p ?o . FILTER(?o > 30) }"));
}

TEST(FingerprintProperty, ConsistentVariableRenamingInvariant) {
  EXPECT_EQ(Fp("SELECT ?a ?c WHERE { ?a <http://x/p> ?b . "
               "?b <http://x/p> ?c . }"),
            Fp("SELECT ?x ?z WHERE { ?x <http://x/p> ?y . "
               "?y <http://x/p> ?z . }"));
  // Swapping two variables' roles is NOT a consistent renaming.
  EXPECT_NE(Fp("SELECT ?a WHERE { ?a <http://x/p> ?b . }"),
            Fp("SELECT ?b WHERE { ?a <http://x/p> ?b . }"));
}

TEST(FingerprintProperty, LiteralSpellingInvariant) {
  const char* tmpl = "SELECT ?s WHERE { ?s <http://x/age> %s . }";
  char buf[160];
  std::snprintf(buf, sizeof(buf), tmpl, "30");
  const uint64_t want = Fp(buf);
  std::snprintf(buf, sizeof(buf), tmpl,
                "\"30\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  EXPECT_EQ(want, Fp(buf));
  std::snprintf(buf, sizeof(buf), tmpl,
                "\"+30\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  EXPECT_EQ(want, Fp(buf));
  std::snprintf(buf, sizeof(buf), tmpl,
                "\"30.0\"^^<http://www.w3.org/2001/XMLSchema#double>");
  EXPECT_EQ(want, Fp(buf));
  // A different value is a different query.
  std::snprintf(buf, sizeof(buf), tmpl, "31");
  EXPECT_NE(want, Fp(buf));
}

TEST(FingerprintProperty, StructuralChangesChangeTheFingerprint) {
  const std::string base = "SELECT ?s WHERE { ?s <http://x/p> ?o . }";
  const uint64_t want = Fp(base);
  EXPECT_NE(want, Fp("SELECT DISTINCT ?s WHERE { ?s <http://x/p> ?o . }"));
  EXPECT_NE(want, Fp("SELECT ?s WHERE { ?s <http://x/q> ?o . }"));
  EXPECT_NE(want, Fp("SELECT ?s ?o WHERE { ?s <http://x/p> ?o . }"));
  EXPECT_NE(want, Fp("SELECT ?s WHERE { ?s <http://x/p> ?o . } LIMIT 5"));
  EXPECT_NE(want, Fp("SELECT ?s WHERE { ?s <http://x/p> ?o . } ORDER BY ?s"));
  EXPECT_NE(want, Fp("ASK { ?s <http://x/p> ?o . }"));
  EXPECT_NE(want,
            Fp("SELECT ?s WHERE { ?s <http://x/p> ?o . FILTER(?o > 1) }"));
  EXPECT_NE(want, Fp("SELECT ?s WHERE { ?s <http://x/p> ?o . "
                     "OPTIONAL { ?s <http://x/q> ?r . } }"));
  // Pattern order keys plans, so it is deliberately part of the identity.
  EXPECT_NE(Fp("SELECT ?a WHERE { ?a <http://x/p> ?b . ?b <http://x/q> ?c . }"),
            Fp("SELECT ?a WHERE { ?b <http://x/q> ?c . ?a <http://x/p> ?b . }"));
}

TEST(FingerprintProperty, RandomQueriesStableAcrossReparseAndRename) {
  // Generate random BGP queries; each must fingerprint identically after
  // (a) re-parsing the same text and (b) renaming every variable
  // consistently — and distinct structures should essentially never
  // collide (64-bit hash over ≤ a few hundred queries).
  Rng rng(99);
  const char* var_names[] = {"a", "b", "c", "d"};
  const char* renamed[] = {"long_one", "v2", "x", "qqq"};
  std::map<uint64_t, std::string> seen;
  int collisions = 0;
  for (int iter = 0; iter < 200; ++iter) {
    size_t num_patterns = 1 + rng.Uniform(3);
    std::string body;
    std::string body_renamed;
    std::string body_canonical;  // vars renumbered in first-appearance order
    std::map<size_t, size_t> canon_ids;
    for (size_t p = 0; p < num_patterns; ++p) {
      auto node = [&](int pool, std::string* plain, std::string* ren,
                      std::string* canon) {
        if (rng.Bernoulli(0.6)) {
          size_t v = rng.Uniform(4);
          *plain += "?" + std::string(var_names[v]) + " ";
          *ren += "?" + std::string(renamed[v]) + " ";
          auto [it, ignored] = canon_ids.emplace(v, canon_ids.size());
          *canon += "?v" + std::to_string(it->second) + " ";
        } else {
          std::string iri = "<http://t/c" +
                            std::to_string(rng.Uniform(pool)) + "> ";
          *plain += iri;
          *ren += iri;
          *canon += iri;
        }
      };
      node(6, &body, &body_renamed, &body_canonical);
      node(3, &body, &body_renamed, &body_canonical);
      node(6, &body, &body_renamed, &body_canonical);
      body += ". ";
      body_renamed += ". ";
      body_canonical += ". ";
    }
    const std::string text = "SELECT * WHERE { " + body + "}";
    const std::string text_renamed =
        "SELECT * WHERE { " + body_renamed + "}";
    const uint64_t fp = Fp(text);
    EXPECT_EQ(fp, Fp(text)) << text;  // reparse stability
    EXPECT_EQ(fp, Fp(text_renamed)) << text << " vs " << text_renamed;
    // Collision detection must compare canonical forms: two generated
    // texts that are consistent renamings of each other are the SAME
    // query and share a fingerprint by design.
    auto [it, inserted] = seen.emplace(fp, body_canonical);
    if (!inserted && it->second != body_canonical) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

}  // namespace
}  // namespace lodviz::sparql
