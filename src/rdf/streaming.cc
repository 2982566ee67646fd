#include "rdf/streaming.h"

#include <algorithm>

namespace lodviz::rdf {

std::vector<ParsedTriple> VectorStreamSource::NextBatch(size_t max_batch) {
  std::vector<ParsedTriple> out;
  size_t n = std::min(max_batch, triples_.size() - next_);
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(triples_[next_ + i]);
  next_ += n;
  return out;
}

std::vector<ParsedTriple> GeneratorStreamSource::NextBatch(size_t max_batch) {
  std::vector<ParsedTriple> out;
  if (exhausted_) return out;
  out.reserve(max_batch);
  for (size_t i = 0; i < max_batch; ++i) {
    ParsedTriple pt;
    if (!gen_(&pt)) {
      exhausted_ = true;
      break;
    }
    out.push_back(std::move(pt));
  }
  return out;
}

std::vector<ParsedTriple> EndpointSimulator::NextBatch(size_t max_batch) {
  std::vector<ParsedTriple> out;
  if (Exhausted()) return out;
  ++requests_;
  latency_ms_ += per_request_ms_;
  size_t n = std::min({max_batch, page_size_, dataset_.size() - next_});
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(dataset_[next_ + i]);
  next_ += n;
  return out;
}

size_t IngestStream(
    StreamSource* source, TripleStore* store, size_t batch_size,
    const std::function<void(std::span<const Triple> batch, size_t total)>&
        on_batch) {
  size_t total = 0;
  std::vector<Triple> encoded;
  while (!source->Exhausted()) {
    std::vector<ParsedTriple> batch = source->NextBatch(batch_size);
    if (batch.empty()) break;
    encoded.clear();
    for (const ParsedTriple& pt : batch) {
      encoded.push_back(store->Add(pt.subject, pt.predicate, pt.object));
    }
    total += batch.size();
    if (on_batch) on_batch(encoded, total);
  }
  return total;
}

}  // namespace lodviz::rdf
