#ifndef LODBENCH_DATA_H_
#define LODBENCH_DATA_H_

// The benchmark's input: the program's own synthetic Linked Data
// generator (DBpedia-shaped entities with a type, label, age, creation
// date, coordinates, a Zipf-popular category and preferential-attachment
// `knows` links), seeded from --seed, as parsed triples for the reference
// stores and as N-Triples bytes for the program's public load path. Links
// can repeat, so a document carries a few duplicate triples, as real
// dumps do.

#include <cstdint>
#include <string>
#include <vector>

#include "rdf/ntriples.h"
#include "rdf/vocab.h"
#include "workload/synthetic_lod.h"

namespace lodbench {

namespace iri {
namespace lod = lodviz::workload::lod;
namespace vocab = lodviz::rdf::vocab;
inline constexpr const char* kEntity = lod::kEntityPrefix;
inline constexpr const char* kLabel = vocab::kRdfsLabel;
inline constexpr const char* kAge = lod::kAge;
inline constexpr const char* kCategory = lod::kCategory;
inline constexpr const char* kKnows = lod::kKnows;
inline constexpr const char* kCategoryValue = lod::kCategoryPrefix;
}  // namespace iri

std::string EntityIri(size_t i);

struct Dataset {
  /// Every triple in emission order, duplicates included.
  std::vector<lodviz::rdf::ParsedTriple> triples;
  /// Entity i owns triples [entity_begin[i], entity_begin[i + 1]).
  std::vector<size_t> entity_begin;

  size_t num_entities() const { return entity_begin.size() - 1; }
  /// The first two words of entity i's label (a keyword query that
  /// matches it and others built from the same words).
  std::string LabelWords(size_t i) const;
};

/// `num_entities` entities (about ten triples each) drawn from `seed`.
Dataset GenerateDataset(uint64_t seed, size_t num_entities);

/// N-Triples document for triples [begin, end).
std::string ToNTriples(const std::vector<lodviz::rdf::ParsedTriple>& triples,
                       size_t begin, size_t end);

}  // namespace lodbench

#endif  // LODBENCH_DATA_H_
