// churnbench: one seeded run of one churn-path workload.
//
//   churnbench --workload <greedy-churn|serve-elastic|pregel-tweet>
//              --seed <n> --seconds <s> --trace <0|1> [--threads <n>]
//   churnbench --selftest
//
// --threads overrides the workload's own thread count (greedy-churn's
// decision threads, pregel-tweet's runtime threads) for one-off
// reference figures; the benchmark's runs never pass it.
//
// The last line of standard output is one JSON object: correctness, the
// operations attempted and failed, and the end-to-end metrics (--trace 0)
// or the per-layer metrics (--trace 1). A failed check exits with code 1.

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "common.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "churnbench: " << why
            << "\nusage: churnbench --workload <greedy-churn|serve-elastic|"
               "pregel-tweet> --seed <n> --seconds <s> --trace <0|1> "
               "[--threads <n>]\n"
               "       churnbench --selftest\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace churnbench;
  std::string workload;
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") return runSelfTest();
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        config.trace = value == "1";
      } else if (flag == "--threads") {
        config.threads = std::stoul(value);
        if (config.threads == 0 || config.threads > 8) usage("--threads takes 1 to 8");
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (config.seconds <= 0.0) usage("--seconds must be positive");
  if (workload != "greedy-churn" && workload != "serve-elastic" &&
      workload != "pregel-tweet") {
    usage("unknown workload '" + workload + "'");
  }

  // Checkpoints go under the build directory of the checkout the
  // benchmark runs from, one directory per process, removed at exit.
  config.scratchDir = ".bench_build/churnbench-" + std::to_string(::getpid());
  std::filesystem::create_directories(config.scratchDir);
  RunResult result;
  try {
    if (workload == "greedy-churn") {
      result = runGreedyChurn(config);
    } else if (workload == "serve-elastic") {
      result = runServeElastic(config);
    } else {
      result = runPregelTweet(config);
    }
  } catch (const std::exception& error) {
    std::cerr << "churnbench: " << workload << " aborted: " << error.what() << "\n";
    std::filesystem::remove_all(config.scratchDir);
    return 2;
  }
  std::filesystem::remove_all(config.scratchDir);
  printResult(result, config.trace);
  return result.correct() ? 0 : 1;
}
