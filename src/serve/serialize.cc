#include "serve/serialize.h"

#include "obs/export.h"
#include "rdf/term.h"

namespace lodviz::serve {

namespace {

/// One term as a SPARQL-results JSON object: {"type":...,"value":...}
/// plus "xml:lang" or "datatype" when the literal carries one.
void AppendTermJson(const rdf::Term& t, std::string* out) {
  out->append("{\"type\":\"");
  switch (t.kind) {
    case rdf::TermKind::kIri:
      out->append("uri");
      break;
    case rdf::TermKind::kLiteral:
      out->append("literal");
      break;
    case rdf::TermKind::kBlank:
      out->append("bnode");
      break;
  }
  out->append("\",\"value\":\"");
  obs::AppendJsonEscaped(t.lexical, out);
  out->push_back('"');
  if (t.is_literal()) {
    if (!t.language.empty()) {
      out->append(",\"xml:lang\":\"");
      obs::AppendJsonEscaped(t.language, out);
      out->push_back('"');
    } else if (!t.datatype.empty()) {
      out->append(",\"datatype\":\"");
      obs::AppendJsonEscaped(t.datatype, out);
      out->push_back('"');
    }
  }
  out->push_back('}');
}

}  // namespace

std::string ResultTableJson(const sparql::ResultTable& table, bool is_ask) {
  std::string out;
  if (is_ask) {
    out = "{\"head\":{},\"boolean\":";
    out += table.ask_result ? "true" : "false";
    out += "}";
    return out;
  }
  out.append("{\"head\":{\"vars\":[");
  bool first = true;
  for (const std::string& v : table.columns()) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    obs::AppendJsonEscaped(v, &out);
    out.push_back('"');
  }
  out.append("]},\"results\":{\"bindings\":[");
  // Each cell's `"name":` prefix, escaped once rather than once per row.
  std::vector<std::string> keys;
  for (const std::string& v : table.columns()) {
    keys.push_back("\"");
    obs::AppendJsonEscaped(v, &keys.back());
    keys.back().append("\":");
  }
  first = true;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('{');
    bool first_cell = true;
    for (size_t c = 0; c < keys.size(); ++c) {
      if (!table.bound(r, c)) continue;  // unbound cells are simply absent
      if (!first_cell) out.push_back(',');
      first_cell = false;
      out.append(keys[c]);
      AppendTermJson(table.term(r, c), &out);
    }
    out.push_back('}');
  }
  out.append("]}}");
  return out;
}

std::string ResultTableTsv(const sparql::ResultTable& table, bool is_ask) {
  std::string out;
  if (is_ask) {
    return table.ask_result ? "true\n" : "false\n";
  }
  bool first = true;
  for (const std::string& v : table.columns()) {
    if (!first) out.push_back('\t');
    first = false;
    out.push_back('?');
    out.append(v);
  }
  out.push_back('\n');
  const size_t width = table.columns().size();
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < width; ++c) {
      if (c > 0) out.push_back('\t');
      if (table.bound(r, c)) rdf::AppendNTriples(table.term(r, c), &out);
    }
    out.push_back('\n');
  }
  return out;
}

std::string TriplesJson(const std::vector<rdf::ParsedTriple>& triples) {
  std::string out = "{\"triples\":[";
  bool first = true;
  for (const rdf::ParsedTriple& t : triples) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"s\":");
    AppendTermJson(t.subject, &out);
    out.append(",\"p\":");
    AppendTermJson(t.predicate, &out);
    out.append(",\"o\":");
    AppendTermJson(t.object, &out);
    out.push_back('}');
  }
  out.append("]}");
  return out;
}

std::string TriplesTsv(const std::vector<rdf::ParsedTriple>& triples) {
  std::string out;
  for (const rdf::ParsedTriple& t : triples) {
    rdf::AppendNTriples(t.subject, &out);
    out.push_back('\t');
    rdf::AppendNTriples(t.predicate, &out);
    out.push_back('\t');
    rdf::AppendNTriples(t.object, &out);
    out.push_back('\n');
  }
  return out;
}

}  // namespace lodviz::serve
