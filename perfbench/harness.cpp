// perfbench_harness — runs one benchmark workload in this process and
// prints its metrics as the last line of stdout (see perfbench/run.py,
// which builds this binary and is the command BENCHMARK.json names).
//
//   perfbench_harness --workload admit_slo|admit_durable|sweep_csigma
//                     --seed N --seconds S --trace 0|1 --scratch DIR
//   perfbench_harness --record-reference FIRST LAST
#include <csignal>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& error) {
  std::cerr << "perfbench_harness: " << error
            << "\nusage: perfbench_harness --workload NAME --seed N --seconds S"
               " --trace 0|1 --scratch DIR\n"
               "       perfbench_harness --record-reference FIRST LAST\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_seed = false;
  bool have_seconds = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
        return argv[++i];
      };
      if (flag == "--record-reference") {
        const int first = std::stoi(value());
        const int last = std::stoi(value());
        return perfbench::record_sweep_reference(first, last);
      } else if (flag == "--workload") {
        options.workload = value();
      } else if (flag == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value());
        have_seconds = true;
      } else if (flag == "--trace") {
        const std::string trace = value();
        if (trace != "0" && trace != "1")
          throw std::invalid_argument("--trace takes 0 or 1");
        options.trace = trace == "1";
      } else if (flag == "--scratch") {
        options.scratch_dir = value();
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!have_seed || !have_seconds || options.seconds <= 0.0)
    return usage("--seed and a positive --seconds are required");
  if (options.scratch_dir.empty()) return usage("--scratch is required");

  // The daemon writes to pipes; a reader that went away must surface as
  // EPIPE, not kill the run.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    perfbench::RunResult result;
    if (options.workload == "admit_slo") {
      result = perfbench::run_admit_slo(options);
    } else if (options.workload == "admit_durable") {
      result = perfbench::run_admit_durable(options);
    } else if (options.workload == "sweep_csigma") {
      result = perfbench::run_sweep_csigma(options);
    } else {
      return usage("unknown workload \"" + options.workload + "\"");
    }
    perfbench::print_result(result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << options.workload << ": " << e.what()
              << '\n';
    return 1;
  }
  return 0;
}
