// The benchmark's workloads.  Each fills a Report with the metrics of the
// layers it exercises and with its output checks; see README.md for why
// each workload exists.
#pragma once

#include <string>

#include "probe.h"

namespace perfbench {

/// What every workload is given on the command line.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scales the input (sim job counts, daemon send window) down for
  /// smoke runs; 1 in measured runs.
  double scale = 1.0;
  std::string spans_out;  ///< where a traced run writes its spans ("" = not)
};

bool is_sim_workload(const std::string& name);
bool is_daemon_workload(const std::string& name);

/// Streamed run plus bounds: once at full size, then timed repetitions for
/// args.seconds.
void run_sim(const RunArgs& args, Report& report);
/// The materialized core::run_scheduler reference for the full-size run's
/// seed and job count; reports only its result fingerprint.
void run_sim_reference(const RunArgs& args, Report& report);

/// An in-process Daemon fed over one Unix-socket connection.
void run_daemon(const RunArgs& args, Report& report);

}  // namespace perfbench
