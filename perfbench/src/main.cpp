// perfbench: runs one workload of the repository benchmark.
//
//   perfbench --workload batch-llm|http-generator|campaign-mp --seed N
//             --seconds S --trace 0|1 [--workdir DIR]
//
// Prints a run descriptor line, then one JSON line with the outcome and
// the metric values (end-to-end with --trace 0, per-layer with --trace 1).
// perfbench/run.py builds this binary, attaches units from BENCHMARK.json
// and prints the final result line.
#include <iostream>

#include "harness.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string error;
  if (!parse_options(argc, argv, &options, &error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }
  void (*workload)(const Options&, Report&) = nullptr;
  if (options.workload == "batch-llm") {
    workload = run_batch_llm;
  } else if (options.workload == "http-generator") {
    workload = run_http_generator;
  } else if (options.workload == "campaign-mp") {
    workload = run_campaign_mp;
  } else {
    std::cerr << "perfbench: unknown workload " << options.workload << "\n";
    return 2;
  }
  std::cout << descriptor_json(options) << std::endl;

  Report report;
  try {
    workload(options, report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << ": " << e.what() << "\n";
    remove_run_dir(options);
    return 1;
  }
  remove_run_dir(options);
  std::cout << report.to_json() << std::endl;
  return 0;
}
