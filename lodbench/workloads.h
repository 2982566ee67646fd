#ifndef LODBENCH_WORKLOADS_H_
#define LODBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "util.h"

namespace lodbench {

struct RunOptions {
  uint64_t seed = 1;
  /// Length of the timed window.
  double seconds = 10;
  /// false: end-to-end metrics from an untraced run; true: per-layer
  /// metrics from a traced run (plus the tracing overhead).
  bool trace = false;
  /// Per-run scratch directory (page files, span dumps); removed at exit.
  std::string workdir;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string trace_dir;
  /// Closed-loop clients (at most the host's core count).
  size_t clients = 4;
};

/// 4 HTTP clients against serve::Server over a memory-backend engine.
RunResult RunServeHttp(const RunOptions& options);
/// 4 in-process clients calling Frontend::Handle over a disk-backend engine
/// whose buffer pool holds at most an eighth of the page file.
RunResult RunDiskPool(const RunOptions& options);
/// One explorer's session: ingest a batch, then facets, keyword search,
/// HETree drill-down, a rendering and a SPARQL query, step after step.
RunResult RunExploreIngest(const RunOptions& options);

}  // namespace lodbench

#endif  // LODBENCH_WORKLOADS_H_
