#ifndef LODVIZ_RDF_TERM_ORDER_H_
#define LODVIZ_RDF_TERM_ORDER_H_

#include <cstdint>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/term.h"

namespace lodviz::rdf {

/// One bound term as ORDER BY sees it: its order class (0 = numeric,
/// 1 = temporal, 2 = boolean, 3 = lexical/error), its decoded value, and —
/// for class 3, the one class compared by spelling — the term itself.
/// Refers to the term it was made from, which must outlive it.
struct OrderValue {
  int cls = 3;
  DecodedValue value;
  const Term* term = nullptr;
};

/// `decoded` must be DecodeTerm(term) — for an interned term, the
/// dictionary's cached dict.decoded(id).
OrderValue OrderValueOf(const Term& term, const DecodedValue& decoded);

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
int CompareCellsForOrder(const OrderValue& a, const OrderValue& b);

/// Three-way comparison of the N-Triples spellings of two terms: the sign
/// of a.ToNTriples().compare(b.ToNTriples()), computed from the terms'
/// fields without spelling either one.
int CompareNTriples(const Term& a, const Term& b);

/// The result order of every term a dictionary holds, as one integer rank
/// per TermId: rank(a) < rank(b) iff CompareCellsForOrder puts a before b,
/// and equivalent terms (`30`, `"+30"^^xsd:integer`) share a rank. Ranks
/// start at 1; rank(kInvalidTermId) is 0, the rank ORDER BY gives an
/// unbound cell. Sorting rows on these ranks is sorting them in result
/// order, with no term decoded or spelled per query.
///
/// Immutable once built: it covers the ids the dictionary held at
/// construction (4 bytes each). Ids interned later are not covered, and
/// a consumer must fall back to comparing terms for them. Safe to read
/// from any number of threads.
class TermOrder {
 public:
  /// Ranks ids 1..dict.size() with exec::ParallelSort. `dict` is read
  /// during construction only.
  explicit TermOrder(const Dictionary& dict);

  /// True iff `id` has a rank here (kInvalidTermId always does).
  [[nodiscard]] bool Covers(TermId id) const { return id < rank_.size(); }

  /// Rank of a covered id.
  [[nodiscard]] uint32_t rank(TermId id) const { return rank_[id]; }

 private:
  std::vector<uint32_t> rank_;  // rank_[0] = 0: the unbound cell
};

}  // namespace lodviz::rdf

#endif  // LODVIZ_RDF_TERM_ORDER_H_
