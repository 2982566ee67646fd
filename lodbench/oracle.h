#ifndef LODBENCH_ORACLE_H_
#define LODBENCH_ORACLE_H_

// The answer oracle. Every timed operation's answer is hashed inside the
// run and compared afterwards, outside the timed region, with the same
// call on stores the benchmark owns and fills straight from the generated
// triples (never through the program's load path):
//
//  - `set`: the triples as a set (compacted, so deduplicated). RDF set
//    semantics; an answer is right when it equals this one.
//  - `bag`: the same triples with their duplicates, never compacted by the
//    benchmark. It gives the answer a store that keeps duplicate triples
//    returns — the program's known defect (duplicate rows after loading a
//    document or stream that repeats a triple).
//
// An answer equal to neither is wrong and makes the run incorrect. An
// answer equal only to `bag` is counted as failed (it shows in error_frac)
// without making the run incorrect, so the known defect is measured, not
// hidden, while any other wrong answer still fails the run.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "rdf/ntriples.h"
#include "rdf/triple_store.h"
#include "util.h"

namespace lodbench {

/// The two references, each inside an Engine so that facade calls
/// (Render, BuildHierarchy, Query, ...) can run on it too. The triples go
/// straight into the stores with TripleStore::Add, bypassing the facade's
/// load path.
struct ReferenceStores {
  lodviz::core::Engine set_engine;
  lodviz::core::Engine bag_engine;

  lodviz::rdf::TripleStore& set() { return set_engine.store(); }
  lodviz::rdf::TripleStore& bag() { return bag_engine.store(); }

  /// Adds triples [begin, end) to both references; without `with_bag`
  /// only to the set one, for systems that promise deduplicated answers
  /// (there an answer with duplicate rows is simply wrong).
  void Add(const std::vector<lodviz::rdf::ParsedTriple>& triples,
           size_t begin, size_t end, bool with_bag = true) {
    for (size_t i = begin; i < end; ++i) {
      const lodviz::rdf::ParsedTriple& t = triples[i];
      set().Add(t.subject, t.predicate, t.object);
      if (with_bag) bag().Add(t.subject, t.predicate, t.object);
    }
    set().Compact();
  }
};

/// Tally of judged operations.
struct Verdicts {
  uint64_t attempted = 0;
  uint64_t right = 0;
  /// Equal to the duplicate-keeping reference only (the known defect).
  uint64_t duplicate_rows = 0;
  /// Equal to neither reference.
  uint64_t wrong = 0;
  /// Requests refused under load (HTTP 503).
  uint64_t shed = 0;
  /// Any other failed request (non-200 status or error result).
  uint64_t errors = 0;

  /// Judges one answer; `set_hash`/`bag_hash` compute the references'
  /// answers on demand (the bag one only when the set one differs).
  void Judge(uint64_t got, const std::function<uint64_t()>& set_hash,
             const std::function<uint64_t()>& bag_hash) {
    ++attempted;
    if (got == set_hash()) {
      ++right;
    } else if (got == bag_hash()) {
      ++duplicate_rows;
    } else {
      ++wrong;
    }
  }

  void Failed(bool was_shed) {
    ++attempted;
    ++(was_shed ? shed : errors);
  }

  void Merge(const Verdicts& o) {
    attempted += o.attempted;
    right += o.right;
    duplicate_rows += o.duplicate_rows;
    wrong += o.wrong;
    shed += o.shed;
    errors += o.errors;
  }

  void ApplyTo(RunResult* result) const {
    result->attempted = attempted;
    result->failed = duplicate_rows + wrong + shed + errors;
    result->correct = wrong == 0 && errors == 0 && attempted > 0;
  }
};

/// SPARQL-results JSON of `query` over `source`, as the endpoint would
/// serialize it (an error text when the query fails).
std::string ReferenceAnswer(const lodviz::rdf::TripleSource& source,
                            const std::string& query);

}  // namespace lodbench

#endif  // LODBENCH_ORACLE_H_
