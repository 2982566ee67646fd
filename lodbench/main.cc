// lodbench: runs one workload against lodviz's public API and prints its
// metrics. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). See lodbench/README.md.
//
// Usage: lodbench --workload serve_http|disk_pool|explore_ingest
//                 --seed N --seconds S --trace 0|1 [--workdir DIR]

#include <stdlib.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "util.h"
#include "workloads.h"

#ifndef LODBENCH_BUILD_TYPE
#define LODBENCH_BUILD_TYPE "unknown"
#endif

#ifdef __clang__
#define LODBENCH_COMPILER "clang " __clang_version__
#else
#define LODBENCH_COMPILER "GCC " __VERSION__
#endif

namespace {

/// The per-run scratch directory; a static object, so it is removed on
/// normal return and on std::exit alike.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    if (path.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};
ScratchDir scratch;

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, ec == std::errc() ? end : buf);
}

int Usage(const std::string& why) {
  std::cerr << "lodbench: " << why
            << "\nusage: lodbench --workload serve_http|disk_pool|"
               "explore_ingest --seed N --seconds S --trace 0|1 "
               "[--workdir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, workdir = ".bench_build";
  lodbench::RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0;
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
        have_trace = true;
      } else if (flag == "--workdir") {
        workdir = value;
      } else {
        return Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Usage("bad value for " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  lodbench::RunResult (*run)(const lodbench::RunOptions&) = nullptr;
  if (workload == "serve_http") run = lodbench::RunServeHttp;
  if (workload == "disk_pool") run = lodbench::RunDiskPool;
  if (workload == "explore_ingest") run = lodbench::RunExploreIngest;
  if (run == nullptr) return Usage("unknown workload '" + workload + "'");

  std::error_code ec;
  std::filesystem::create_directories(workdir + "/traces", ec);
  std::string pattern = workdir + "/run-XXXXXX";
  if (ec || mkdtemp(pattern.data()) == nullptr) {
    std::cerr << "lodbench: cannot create a scratch directory in " << workdir
              << "\n";
    return 2;
  }
  scratch.path = pattern;
  options.workdir = pattern;
  options.trace_dir = workdir + "/traces";
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  options.clients = std::min<size_t>(4, cores);

  std::cout << "host: nproc=" << cores << " compiler=\"" << LODBENCH_COMPILER
            << "\" build_type=" << LODBENCH_BUILD_TYPE
            << " workload=" << workload << " seed=" << options.seed
            << " seconds=" << options.seconds
            << " trace=" << options.trace << " clients=" << options.clients
            << std::endl;

  const lodbench::RunResult result = run(options);

  for (const lodbench::Metric& m : result.metrics) {
    std::cout << m.name << " = " << Number(m.value) << " " << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const lodbench::Metric& m = result.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name
              << "\": {\"value\": " << Number(m.value) << ", \"unit\": \""
              << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
