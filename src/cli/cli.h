// Command-line front end for the library, factored as a testable function.
// The `pjsched_cli` binary (tools/pjsched_cli.cc) forwards argv here.
//
// Commands:
//   run       stream a generated or loaded workload through a scheduler and
//             through the lower bounds, and print the flow summary and the
//             ratio to the combined bound (optionally CSV, a spilled trace
//             file, a Gantt chart, a Chrome trace file, a utilization
//             profile); --trials=R aggregates R resampled runs instead
//   generate  write a generated instance to stdout in instance_io format
//   bounds    print every lower bound for an instance (one streamed pass)
//
// Common flags:
//   --workload=bing|finance|lognormal   (default bing)
//   --jobs=N --qps=Q --seed=S --grains=G --units-per-ms=U --weights=W,...
//   --load=FILE                         read instance instead of generating
// run flags:
//   --scheduler=NAME   (fifo, bwf, admit-first, steal-<k>-first, opt,
//                       lifo, sjf, round-robin, equi; default steal-16-first)
//   --m=M --speed=S --degrade=t:m[:s],...
//   --trials=R         aggregate R seeds (no trace flags, no --load)
//   --trace-out=F      spill the trace to file F (bounded memory)
//   --gantt[=WIDTH]    print an ASCII Gantt chart (in-core trace)
//   --chrome-trace=F   write Chrome trace JSON to file F (in-core trace)
//   --utilization=B    print the B-bucket busy-processor profile
//   --csv              machine-readable summary line
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace pjsched::cli {

/// Returns a process exit code (0 success, 2 usage error).
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

}  // namespace pjsched::cli
