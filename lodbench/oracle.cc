#include "oracle.h"

#include "serve/serialize.h"
#include "sparql/engine.h"

namespace lodbench {

std::string ReferenceAnswer(const lodviz::rdf::TripleSource& source,
                            const std::string& query) {
  const lodviz::sparql::QueryEngine engine(&source);
  lodviz::Result<lodviz::sparql::ResultTable> table =
      engine.ExecuteString(query);
  if (!table.ok()) return "error: " + table.status().ToString();
  const bool is_ask = query.rfind("ASK", 0) == 0;
  return lodviz::serve::ResultTableJson(table.ValueOrDie(), is_ask);
}

}  // namespace lodbench
