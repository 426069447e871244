// perfbench: the end-to-end benchmark of the Figure 5 loop.
//
//   perfbench gen --data DIR
//       writes the input graphs into DIR (once; existing files are kept).
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --data DIR [--spans FILE] [--fault 1]
//       runs workload W and prints one JSON result line last.
//
// run.py builds this program and calls both; see README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "spans.h"
#include "workloads.h"

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const perfbench::RunReport& report, bool trace) {
  std::ostringstream out;
  out << "{\"correct\": " << (report.correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  const auto& metrics = trace ? report.per_layer : report.end_to_end;
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << JsonNumber(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int Usage() {
  std::cerr << "usage: perfbench gen --data DIR\n"
               "       perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --data DIR [--spans FILE] [--fault 0|1]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t start_ns = perfbench::NowNs();
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  if ((argc - 2) % 2 != 0 || flags.count("data") == 0) return Usage();

  if (command == "gen") {
    std::string error;
    if (!perfbench::GenerateData(flags["data"], &error)) {
      std::cerr << "perfbench gen: " << error << "\n";
      return 1;
    }
    return 0;
  }
  if (command != "run") return Usage();
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (flags.count(required) == 0) return Usage();
  }
  perfbench::RunOptions options;
  options.workload = flags["workload"];
  options.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  options.seconds = std::atof(flags["seconds"].c_str());
  options.trace = flags["trace"] == "1";
  options.fault = flags.count("fault") != 0 && flags["fault"] == "1";
  options.data_dir = flags["data"];
  options.spans_path = flags.count("spans") != 0 ? flags["spans"] : "";
  options.start_ns = start_ns;
  if (!(options.seconds > 0)) return Usage();

  const perfbench::RunReport report = perfbench::RunWorkload(options);
  for (const std::string& problem : report.problems) {
    std::cerr << "perfbench: " << problem << "\n";
  }
  PrintResult(report, options.trace);
  return 0;
}
