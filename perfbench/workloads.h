#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;   ///< adapt-nasa or mutate-xmark.
  uint64_t seed = 1;      ///< Arrival order and mutation batches.
  double seconds = 10;    ///< Length of the measured window.
  bool trace = false;     ///< Record spans and report per-layer metrics.
  bool fault = false;     ///< Answer-check self-test (see README).
  std::string data_dir;   ///< Holds the .mrxg inputs (see GenerateData).
  std::string spans_path; ///< Span JSONL output of a traced run.
  uint64_t start_ns = 0;  ///< NowNs() at process start.
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> problems;  ///< Why `correct` is false.
};

/// Writes the graphs the workloads load into `dir` (skipping files that
/// already exist). The graphs do not depend on the run's seed.
bool GenerateData(const std::string& dir, std::string* error);

/// Runs one workload end to end. Unknown workload names and unreadable
/// inputs come back with `correct == false` and a problem.
RunReport RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
