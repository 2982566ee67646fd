#include "explore/keyword.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "rdf/vocab.h"

namespace lodviz::explore {

KeywordIndex KeywordIndex::Build(const rdf::TripleStore& store,
                                 double label_boost) {
  KeywordIndex index(label_boost);
  const rdf::Dictionary& dict = store.dict();
  store.Scan(rdf::TriplePattern(), [&](const rdf::Triple& t) {
    index.Add(dict, t);
    return true;
  });
  return index;
}

void KeywordIndex::Add(const rdf::Dictionary& dict, const rdf::Triple& t) {
  const rdf::Term& obj = dict.term(t.o);
  if (!obj.is_literal()) return;
  auto found = doc_of_.find(t.s);
  const std::pair<rdf::TermId, rdf::TermId> key(t.p, t.o);
  if (found != doc_of_.end()) {
    const auto& indexed = docs_[found->second].indexed;
    if (std::binary_search(indexed.begin(), indexed.end(), key)) return;
  }
  std::vector<std::string> tokens = TokenizeWords(obj.lexical);
  if (tokens.empty()) return;

  if (found == doc_of_.end()) {
    found = doc_of_.emplace(t.s, static_cast<uint32_t>(docs_.size())).first;
    Doc& fresh = docs_.emplace_back();
    fresh.subject = t.s;
    fresh.label = dict.term(t.s).lexical;
  }
  const uint32_t doc_id = found->second;
  Doc& doc = docs_[doc_id];
  doc.indexed.insert(
      std::lower_bound(doc.indexed.begin(), doc.indexed.end(), key), key);

  if (label_pred_ == rdf::kInvalidTermId) {
    label_pred_ = dict.Lookup(rdf::Term::Iri(rdf::vocab::kRdfsLabel));
  }
  const bool is_label = t.p == label_pred_;
  if (is_label &&
      (doc.label_term == rdf::kInvalidTermId || t.o < doc.label_term)) {
    doc.label_term = t.o;
    doc.label = obj.lexical;
  }
  const double weight = is_label ? label_boost_ : 1.0;
  for (const std::string& token : tokens) {
    std::vector<Posting>& list = postings_[token];
    doc.length += weight;
    if (list.empty() || list.back().doc < doc_id) {
      list.push_back({doc_id, weight});
      continue;
    }
    auto it = std::lower_bound(
        list.begin(), list.end(), doc_id,
        [](const Posting& p, uint32_t d) { return p.doc < d; });
    if (it != list.end() && it->doc == doc_id) {
      it->tf += weight;
    } else {
      list.insert(it, {doc_id, weight});
    }
  }
}

std::vector<SearchHit> KeywordIndex::Search(const std::string& query,
                                            size_t top_k) const {
  std::vector<std::string> terms = TokenizeWords(query);
  if (terms.empty()) return {};

  // Accumulate scores and term-match counts per doc.
  std::unordered_map<uint32_t, std::pair<double, int>> scores;
  const double n = static_cast<double>(docs_.size());
  int matched_terms = 0;
  for (const std::string& term : terms) {
    auto it = postings_.find(term);
    if (it == postings_.end()) continue;
    ++matched_terms;
    const std::vector<Posting>& list = it->second;
    const double idf =
        std::log((n + 1.0) / (static_cast<double>(list.size()) + 1.0)) + 1.0;
    for (const Posting& p : list) {
      const double norm = std::max(1.0, docs_[p.doc].length);
      auto& entry = scores[p.doc];
      entry.first += p.tf / norm * idf;
      entry.second += 1;
    }
  }
  if (matched_terms == 0) return {};

  // AND semantics first; OR fallback when no doc has all matched terms.
  std::vector<SearchHit> hits;
  for (int required : {matched_terms, 1}) {
    hits.clear();
    for (const auto& [doc, entry] : scores) {
      if (entry.second < required) continue;
      SearchHit hit;
      hit.subject = docs_[doc].subject;
      hit.score = entry.first;
      hit.label = docs_[doc].label;
      hits.push_back(std::move(hit));
    }
    if (!hits.empty()) break;
  }
  std::sort(hits.begin(), hits.end(), [](const SearchHit& a, const SearchHit& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.label != b.label) return a.label < b.label;
    return a.subject < b.subject;
  });
  if (hits.size() > top_k) hits.resize(top_k);
  return hits;
}

size_t KeywordIndex::MemoryUsage() const {
  size_t bytes = docs_.capacity() * sizeof(Doc) +
                 doc_of_.size() * (sizeof(rdf::TermId) + sizeof(uint32_t));
  for (const Doc& d : docs_) {
    bytes += d.label.capacity() + d.indexed.capacity() * sizeof(d.indexed[0]);
  }
  for (const auto& [term, list] : postings_) {
    bytes += term.capacity() + list.capacity() * sizeof(Posting);
  }
  return bytes;
}

}  // namespace lodviz::explore
