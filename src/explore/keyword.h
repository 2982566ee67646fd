#ifndef LODVIZ_EXPLORE_KEYWORD_H_
#define LODVIZ_EXPLORE_KEYWORD_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rdf/triple_store.h"

namespace lodviz::explore {

/// A scored keyword hit.
struct SearchHit {
  rdf::TermId subject = rdf::kInvalidTermId;
  double score = 0.0;
  std::string label;
};

/// Tf-idf inverted index over the literal objects of a triple store
/// (labels, comments, any text). This is the "Keyword" capability of the
/// survey's Table 2 (VisiNav, LodLive, graphVizdb...): find start nodes by
/// text, then explore structurally from there.
///
/// The index follows a growing store triple by triple (Add), so arriving
/// data costs work proportional to the new triples, not a rebuild. Postings
/// hold raw weighted term frequencies; Search applies the length norm and
/// idf of the index's current state, so an index built up by Add over any
/// arrival order, with duplicates, scores exactly like Build over the
/// deduplicated store.
class KeywordIndex {
 public:
  /// rdfs:label tokens get `label_boost` times the weight.
  explicit KeywordIndex(double label_boost = 2.0)
      : label_boost_(label_boost) {}

  /// Indexes every (subject, literal-object) triple in `store`: an empty
  /// index plus Add for each stored triple.
  static KeywordIndex Build(const rdf::TripleStore& store,
                            double label_boost = 2.0);

  /// Indexes one triple whose terms are interned in `dict` (a no-op unless
  /// the object is a literal with at least one word). Idempotent: a triple
  /// the index already holds changes nothing. A subject's display label is
  /// its rdfs:label with the smallest object TermId, else its IRI.
  void Add(const rdf::Dictionary& dict, const rdf::Triple& t);

  /// Top-k subjects matching the query (AND semantics across terms; falls
  /// back to OR when the conjunction is empty), by descending score, then
  /// label, then subject TermId.
  std::vector<SearchHit> Search(const std::string& query,
                                size_t top_k = 10) const;

  size_t num_documents() const { return docs_.size(); }
  size_t num_terms() const { return postings_.size(); }
  size_t MemoryUsage() const;

 private:
  struct Posting {
    uint32_t doc = 0;  // index into docs_
    double tf = 0.0;   // weighted term frequency
  };

  /// One subject with at least one indexed literal.
  struct Doc {
    rdf::TermId subject = rdf::kInvalidTermId;
    /// Object of the label shown, kInvalidTermId while it is the IRI.
    rdf::TermId label_term = rdf::kInvalidTermId;
    std::string label;
    double length = 0.0;  // weighted token count
    /// (predicate, object) pairs already indexed, sorted.
    std::vector<std::pair<rdf::TermId, rdf::TermId>> indexed;
  };

  double label_boost_;
  /// rdfs:label's id, looked up until the dictionary first interns it.
  rdf::TermId label_pred_ = rdf::kInvalidTermId;
  std::vector<Doc> docs_;
  std::unordered_map<rdf::TermId, uint32_t> doc_of_;
  /// term -> postings sorted by doc.
  std::unordered_map<std::string, std::vector<Posting>> postings_;
};

}  // namespace lodviz::explore

#endif  // LODVIZ_EXPLORE_KEYWORD_H_
