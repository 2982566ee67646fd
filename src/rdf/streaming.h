#ifndef LODVIZ_RDF_STREAMING_H_
#define LODVIZ_RDF_STREAMING_H_

#include <functional>
#include <span>
#include <vector>

#include "rdf/ntriples.h"
#include "rdf/triple_store.h"

namespace lodviz::rdf {

/// Pull-based source of triples arriving over time (the survey's "dynamic
/// data" setting: endpoints, APIs, streams). Consumers repeatedly call
/// NextBatch until it returns an empty batch.
class StreamSource {
 public:
  virtual ~StreamSource() = default;

  /// Returns up to `max_batch` decoded triples; empty when exhausted.
  virtual std::vector<ParsedTriple> NextBatch(size_t max_batch) = 0;

  /// True once the source can deliver no more triples.
  virtual bool Exhausted() const = 0;
};

/// Source backed by a pre-materialized vector (tests, replay).
class VectorStreamSource : public StreamSource {
 public:
  explicit VectorStreamSource(std::vector<ParsedTriple> triples)
      : triples_(std::move(triples)) {}

  std::vector<ParsedTriple> NextBatch(size_t max_batch) override;
  bool Exhausted() const override { return next_ >= triples_.size(); }

 private:
  std::vector<ParsedTriple> triples_;
  size_t next_ = 0;
};

/// Source backed by a generator function; the function returns false when
/// no more triples exist. Lets workload generators stream without
/// materializing the whole dataset (bounded-memory experiments).
class GeneratorStreamSource : public StreamSource {
 public:
  using Generator = std::function<bool(ParsedTriple*)>;

  explicit GeneratorStreamSource(Generator gen) : gen_(std::move(gen)) {}

  std::vector<ParsedTriple> NextBatch(size_t max_batch) override;
  bool Exhausted() const override { return exhausted_; }

 private:
  Generator gen_;
  bool exhausted_ = false;
};

/// Simulates a remote SPARQL/API endpoint serving a dataset in pages:
/// each NextBatch costs one round trip (counted, and optionally padded with
/// synthetic latency accumulated in `simulated_latency_ms`). This stands in
/// for live WoD endpoints, exercising the same paged-retrieval code path.
class EndpointSimulator : public StreamSource {
 public:
  /// `per_request_ms` models network + server time per page.
  EndpointSimulator(std::vector<ParsedTriple> dataset, size_t page_size,
                    double per_request_ms = 0.0)
      : dataset_(std::move(dataset)),
        page_size_(page_size),
        per_request_ms_(per_request_ms) {}

  std::vector<ParsedTriple> NextBatch(size_t max_batch) override;
  bool Exhausted() const override { return next_ >= dataset_.size(); }

  uint64_t requests_made() const { return requests_; }
  double simulated_latency_ms() const { return latency_ms_; }

 private:
  std::vector<ParsedTriple> dataset_;
  size_t page_size_;
  double per_request_ms_;
  size_t next_ = 0;
  uint64_t requests_ = 0;
  double latency_ms_ = 0.0;
};

/// Drains `source` into `store` in batches of `batch_size`, invoking
/// `on_batch` (if set) after each batch with the batch's triples as
/// encoded into `store` (re-delivered ones included) and the running
/// total — the hook where incremental indexing / progressive visualization
/// reacts to new data.
size_t IngestStream(
    StreamSource* source, TripleStore* store, size_t batch_size,
    const std::function<void(std::span<const Triple> batch, size_t total)>&
        on_batch = {});

}  // namespace lodviz::rdf

#endif  // LODVIZ_RDF_STREAMING_H_
