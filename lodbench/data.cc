#include "data.h"

#include <cstdlib>
#include <iostream>

namespace lodbench {

using lodviz::rdf::ParsedTriple;

std::string EntityIri(size_t i) { return iri::kEntity + std::to_string(i); }

Dataset GenerateDataset(uint64_t seed, size_t num_entities) {
  lodviz::workload::SyntheticLodOptions options;
  options.num_entities = num_entities;
  options.seed = seed;
  Dataset data;
  data.triples = lodviz::workload::GenerateSyntheticLodTriples(options);
  // The generator emits each entity's triples together, subject first.
  for (size_t i = 0; i < data.triples.size(); ++i) {
    if (i == 0 || data.triples[i].subject != data.triples[i - 1].subject) {
      data.entity_begin.push_back(i);
    }
  }
  data.entity_begin.push_back(data.triples.size());
  if (data.num_entities() != num_entities) {
    std::cerr << "lodbench: generator gave " << data.num_entities()
              << " entities, expected " << num_entities << "\n";
    std::exit(2);
  }
  return data;
}

std::string Dataset::LabelWords(size_t i) const {
  for (size_t t = entity_begin[i]; t < entity_begin[i + 1]; ++t) {
    if (triples[t].predicate.lexical != iri::kLabel) continue;
    const std::string& label = triples[t].object.lexical;
    return label.substr(0, label.find(' ', label.find(' ') + 1));
  }
  return "";
}

std::string ToNTriples(const std::vector<ParsedTriple>& triples, size_t begin,
                       size_t end) {
  std::string out;
  out.reserve((end - begin) * 96);
  for (size_t i = begin; i < end; ++i) {
    out += triples[i].subject.ToNTriples();
    out.push_back(' ');
    out += triples[i].predicate.ToNTriples();
    out.push_back(' ');
    out += triples[i].object.ToNTriples();
    out.append(" .\n");
  }
  return out;
}

}  // namespace lodbench
