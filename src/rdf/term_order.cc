#include "rdf/term_order.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string_view>

#include "exec/parallel.h"

namespace lodviz::rdf {

namespace {

int Sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

int CompareBytes(unsigned char a, unsigned char b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// Compares `x` + `close` against `y` + `close` where `close` ends the
/// term's spelling (the `>` after an IRI or a datatype IRI).
int CompareClosed(std::string_view x, std::string_view y, char close) {
  const size_t n = std::min(x.size(), y.size());
  const int c = n == 0 ? 0 : std::memcmp(x.data(), y.data(), n);
  if (c != 0 || x.size() == y.size()) return Sign(c);
  // One piece is a prefix of the other: the shorter one's `close` meets
  // the longer one's next byte, and on a tie the shorter spelling, which
  // ends there, is a proper prefix of the longer one.
  const bool x_shorter = x.size() < y.size();
  const int c_close = CompareBytes(close, x_shorter ? y[n] : x[n]);
  const int shorter_vs_longer = c_close != 0 ? c_close : -1;
  return x_shorter ? shorter_vs_longer : -shorter_vs_longer;
}

/// Compares two literal texts as N-Triples spells them: escaped and
/// followed by the closing quote. 0 only when the texts are equal.
int CompareQuoted(std::string_view x, std::string_view y) {
  const size_t n = std::min(x.size(), y.size());
  const size_t i = static_cast<size_t>(
      std::mismatch(x.begin(), x.begin() + n, y.begin()).first - x.begin());
  if (i == x.size() && i == y.size()) return 0;
  // First spelled byte at i: the closing quote past the end, a backslash
  // for an escaped byte, the byte itself otherwise. A quote inside the
  // text is escaped, so equal first bytes mean both are escapes, and the
  // escape letters then differ because the bytes do.
  auto head = [i](std::string_view s) -> unsigned char {
    if (i == s.size()) return '"';
    return NTriplesEscapeLetter(s[i]) != 0 ? '\\' : s[i];
  };
  const unsigned char hx = head(x);
  const unsigned char hy = head(y);
  if (hx != hy) return CompareBytes(hx, hy);
  return CompareBytes(NTriplesEscapeLetter(x[i]), NTriplesEscapeLetter(y[i]));
}

/// First byte of each kind's spelling: `"` < `<` < `_`.
unsigned char KindByte(TermKind kind) {
  switch (kind) {
    case TermKind::kLiteral:
      return '"';
    case TermKind::kIri:
      return '<';
    case TermKind::kBlank:
      return '_';
  }
  return 0;
}

}  // namespace

OrderValue OrderValueOf(const Term& term, const DecodedValue& decoded) {
  OrderValue v;
  v.value = decoded;
  v.term = &term;
  switch (decoded.kind) {
    case DecodedValue::Kind::kNum:
      // NaN compares false both ways; keep it out of the numeric class
      // or it would be "equivalent" to every number at once.
      v.cls = std::isnan(decoded.num) ? 3 : 0;
      break;
    case DecodedValue::Kind::kTime:
      v.cls = 1;
      break;
    case DecodedValue::Kind::kBool:
      v.cls = 2;
      break;
    case DecodedValue::Kind::kNone:
      v.cls = 3;
      break;
  }
  return v;
}

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
    default:
      return CompareNTriples(*a.term, *b.term);
  }
}

int CompareNTriples(const Term& a, const Term& b) {
  if (a.kind != b.kind) return CompareBytes(KindByte(a.kind), KindByte(b.kind));
  switch (a.kind) {
    case TermKind::kIri:
      return CompareClosed(a.lexical, b.lexical, '>');
    case TermKind::kBlank:
      return Sign(a.lexical.compare(b.lexical));
    case TermKind::kLiteral:
      break;
  }
  const int text = CompareQuoted(a.lexical, b.lexical);
  if (text != 0) return text;
  // The suffix after the closing quote: nothing, `@lang` or `^^<dt>`
  // (a language tag wins over a datatype, as in AppendNTriples).
  auto suffix = [](const Term& t) {
    return !t.language.empty() ? 1 : (!t.datatype.empty() ? 2 : 0);
  };
  const int sa = suffix(a);
  const int sb = suffix(b);
  if (sa != sb) return sa < sb ? -1 : 1;  // "" < "@" < "^"
  if (sa == 1) return Sign(a.language.compare(b.language));
  if (sa == 2) return CompareClosed(a.datatype, b.datatype, '>');
  return 0;
}

TermOrder::TermOrder(const Dictionary& dict) : rank_(dict.size() + 1, 0) {
  // Bucket the ids by order class. Classes 0-2 compare by decoded value
  // alone, so each sorts as (value, id) pairs in contiguous memory, with
  // `<` and `!=` on the value being exactly CompareCellsForOrder's test
  // within the class (NaN is class 3; -0.0 == 0.0 in both). Class 3 sorts
  // its ids by spelling. The buckets in class order are then the result
  // order, and equal neighbours — equivalent terms — share a rank. No
  // string is made per term.
  std::vector<std::pair<double, TermId>> nums;
  std::vector<std::pair<int64_t, TermId>> times;
  std::vector<std::pair<bool, TermId>> bools;
  std::vector<TermId> lexical;
  for (TermId id = 1; id < rank_.size(); ++id) {
    const OrderValue v = OrderValueOf(dict.term(id), dict.decoded(id));
    switch (v.cls) {
      case 0:
        nums.emplace_back(v.value.num, id);
        break;
      case 1:
        times.emplace_back(v.value.epoch, id);
        break;
      case 2:
        bools.emplace_back(v.value.b, id);
        break;
      default:
        lexical.push_back(id);
        break;
    }
  }
  uint32_t rank = 0;
  auto rank_by_value = [&](auto& bucket) {
    exec::ParallelSort(bucket.begin(), bucket.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
    for (size_t i = 0; i < bucket.size(); ++i) {
      if (i == 0 || bucket[i - 1].first != bucket[i].first) ++rank;
      rank_[bucket[i].second] = rank;
    }
  };
  rank_by_value(nums);
  rank_by_value(times);
  rank_by_value(bools);
  auto spelling = [&dict](TermId a, TermId b) {
    return CompareNTriples(dict.term(a), dict.term(b));
  };
  exec::ParallelSort(lexical.begin(), lexical.end(), [&](TermId a, TermId b) {
    return spelling(a, b) < 0;
  });
  for (size_t i = 0; i < lexical.size(); ++i) {
    if (i == 0 || spelling(lexical[i - 1], lexical[i]) != 0) ++rank;
    rank_[lexical[i]] = rank;
  }
}

}  // namespace lodviz::rdf
