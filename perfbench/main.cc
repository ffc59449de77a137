// perfbench: runs one benchmark workload and prints one JSON object
// (metrics, checks, provenance) as its last line of standard output.
//
//   perfbench measure   --workload NAME --seed N --seconds S
//                        [--trace 0|1] [--scale X] [--spans-out FILE]
//   perfbench reference --workload NAME --seed N [--scale X]
//
// `reference` (sim workloads only) runs the materialized core::run_scheduler
// on the same jobs, in a process of its own so that its memory stays out of
// the measured process' peak RSS; run.py compares the two fingerprints.
// Exit code 0 means the workload ran (its checks may still have failed);
// anything else means it could not run.

#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "probe.h"
#include "workloads.h"

namespace {

int usage() {
  std::cerr << "usage: perfbench measure|reference --workload NAME "
               "--seed N [--seconds S] [--trace 0|1] [--scale X] "
               "[--spans-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  perfbench::RunArgs args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--scale") args.scale = std::stod(value);
    else if (key == "--spans-out") args.spans_out = value;
    else return usage();
  }
  if ((argc % 2) != 0 || args.seconds <= 0.0 || args.scale <= 0.0)
    return usage();

  const bool sim = perfbench::is_sim_workload(args.workload);
  if (!sim && !perfbench::is_daemon_workload(args.workload)) {
    std::cerr << "perfbench: unknown workload '" << args.workload
              << "'\n";
    return 2;
  }
  perfbench::Report report;
  try {
    if (mode == "measure" && sim) {
      perfbench::run_sim(args, report);
    } else if (mode == "measure") {
      perfbench::run_daemon(args, report);
    } else if (mode == "reference" && sim) {
      perfbench::run_sim_reference(args, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  report.text("pipeline", sim ? "sim" : "daemon");
  report.text("build_type", PERFBENCH_BUILD_TYPE);
  report.text("compiler", PERFBENCH_COMPILER);
  report.text("nproc", std::to_string(std::thread::hardware_concurrency()));
  std::cout << report.json() << std::endl;
  return 0;
}
