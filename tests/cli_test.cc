// Tests for the CLI front end (src/cli/cli.h), exercised in-process.
#include "src/cli/cli.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "src/core/run.h"
#include "src/metrics/table.h"
#include "src/workload/distributions.h"
#include "src/workload/generator.h"

namespace pjsched::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> cells;
  std::istringstream iss(line);
  std::string cell;
  while (std::getline(iss, cell, sep)) cells.push_back(cell);
  return cells;
}

/// The value row of a one-row `--csv` output, keyed by header name.
std::map<std::string, std::string> csv_row(const std::string& out) {
  std::istringstream lines(out);
  std::string header, row;
  std::getline(lines, header);
  std::getline(lines, row);
  const auto keys = split(header, ',');
  const auto values = split(row, ',');
  std::map<std::string, std::string> cells;
  for (std::size_t i = 0; i < keys.size() && i < values.size(); ++i)
    cells[keys[i]] = values[i];
  return cells;
}

TEST(CliTest, MissingCommandIsUsageError) {
  const auto r = run({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownFlagRejected) {
  const auto r = run({"run", "--frobnicate=1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown flag"), std::string::npos);
}

TEST(CliTest, BadValueRejected) {
  EXPECT_EQ(run({"run", "--jobs=banana"}).code, 2);
  EXPECT_EQ(run({"run", "--workload=unknown"}).code, 2);
  EXPECT_EQ(run({"run", "--scheduler=unknown"}).code, 2);
}

TEST(CliTest, RunPrintsSummary) {
  const auto r = run({"run", "--jobs=30", "--qps=500", "--m=4",
                      "--scheduler=fifo", "--seed=3"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("scheduler:        fifo"), std::string::npos);
  EXPECT_NE(r.out.find("max flow:"), std::string::npos);
  EXPECT_NE(r.out.find("opt lower bound:"), std::string::npos);
  EXPECT_NE(r.out.find("p99 flow:"), std::string::npos);
  EXPECT_NE(r.out.find("combined bound:"), std::string::npos);
  EXPECT_NE(r.out.find("ratio to bound:"), std::string::npos);
}

TEST(CliTest, StreamedFlagIsUnknown) {
  const auto r = run({"run", "--jobs=10", "--streamed"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown flag '--streamed'"), std::string::npos);
}

// The streamed CLI row reports the same schedule as a materialized
// core::run_scheduler over the same generated instance: every max and the
// makespan are bitwise equal (so their cells match); the mean differs only
// by summation order.
TEST(CliTest, CsvRowMatchesMaterializedRun) {
  for (const char* name : {"fifo", "steal-8-first"}) {
    SCOPED_TRACE(name);
    const auto r = run({"run", "--jobs=200", "--qps=900", "--m=4",
                        "--seed=7", "--weights=1,3",
                        std::string("--scheduler=") + name, "--csv"});
    ASSERT_EQ(r.code, 0) << r.err;
    const auto cells = csv_row(r.out);

    workload::GeneratorConfig gen;
    gen.num_jobs = 200;
    gen.qps = 900.0;
    gen.seed = 7;
    gen.units_per_ms = 100.0;
    gen.weight_classes = {1.0, 3.0};
    const double u = gen.units_per_ms;
    const core::Instance inst =
        workload::generate_instance(workload::bing_distribution(), gen);
    auto spec = core::parse_scheduler(name);
    spec.seed = 7;
    const auto res = core::run_scheduler(inst, spec, {4, 1.0});

    EXPECT_EQ(cells.at("jobs"), "200");
    EXPECT_EQ(cells.at("max_flow_ms"), metrics::Table::cell(res.max_flow / u));
    EXPECT_EQ(cells.at("max_weighted_flow_ms"),
              metrics::Table::cell(res.max_weighted_flow / u));
    EXPECT_EQ(cells.at("makespan_ms"), metrics::Table::cell(res.makespan / u));
    EXPECT_EQ(cells.at("steals"),
              metrics::Table::cell(res.stats.steal_attempts));
    EXPECT_EQ(cells.at("admissions"),
              metrics::Table::cell(res.stats.admissions));
    EXPECT_NEAR(std::stod(cells.at("mean_flow_ms")), res.mean_flow / u, 1e-4);
    EXPECT_GT(std::stod(cells.at("combined_bound_ms")), 0.0);
    EXPECT_GE(std::stod(cells.at("ratio")), 1.0);
  }
}

TEST(CliTest, DegradeEventsEchoedOnMachineLine) {
  const auto r = run({"run", "--jobs=30", "--m=4", "--scheduler=fifo",
                      "--degrade=100:2,300:4:1.5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("machine:          m=4, speed 1, @100->m=2/s=1, "
                       "@300->m=4/s=1.5\n"),
            std::string::npos)
      << r.out;
}

TEST(CliTest, TraceOutWritesAndCountsIntervals) {
  const std::string path = ::testing::TempDir() + "cli_test_spill.trace";
  const auto r = run({"run", "--jobs=20", "--m=2",
                      "--scheduler=steal-4-first",
                      std::string("--trace-out=") + path});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::size_t intervals = 0;
  for (std::string line; std::getline(f, line);)
    if (line.rfind("i ", 0) == 0) ++intervals;
  EXPECT_GT(intervals, 0u);
  EXPECT_NE(r.out.find("trace written to " + path + " (" +
                       std::to_string(intervals) + " intervals, "),
            std::string::npos)
      << r.out;
  EXPECT_EQ(run({"run", "--jobs=5", "--gantt", "--trace-out=" + path}).code,
            2);
  std::remove(path.c_str());
}

TEST(CliTest, RunCsvOutput) {
  const auto r = run({"run", "--jobs=20", "--m=2", "--scheduler=admit-first",
                      "--csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("scheduler,jobs,m,speed,max_flow_ms"),
            std::string::npos);
  EXPECT_NE(r.out.find("admit-first,20,2,"), std::string::npos);
}

TEST(CliTest, RunWithGantt) {
  const auto r = run({"run", "--jobs=10", "--m=2", "--scheduler=fifo",
                      "--gantt=40"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("P0"), std::string::npos);
  EXPECT_NE(r.out.find("P1"), std::string::npos);
}

TEST(CliTest, RunWithUtilizationProfile) {
  const auto r = run({"run", "--jobs=10", "--m=2", "--scheduler=fifo",
                      "--utilization=5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("utilization profile"), std::string::npos);
}

TEST(CliTest, DeterministicAcrossInvocations) {
  const auto a = run({"run", "--jobs=50", "--scheduler=steal-8-first",
                      "--seed=11", "--csv"});
  const auto b = run({"run", "--jobs=50", "--scheduler=steal-8-first",
                      "--seed=11", "--csv"});
  EXPECT_EQ(a.out, b.out);
}

TEST(CliTest, MultiTrialRun) {
  const auto r = run({"run", "--jobs=100", "--trials=3", "--m=4",
                      "--scheduler=admit-first"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("3 trials"), std::string::npos);
  EXPECT_NE(r.out.find("max_flow_ms"), std::string::npos);
  EXPECT_NE(r.out.find("ratio_to_opt"), std::string::npos);
}

TEST(CliTest, MultiTrialCsv) {
  const auto r = run({"run", "--jobs=100", "--trials=3", "--m=4",
                      "--scheduler=admit-first", "--csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.rfind("metric,mean,stddev,min,max\n", 0), 0u) << r.out;
  EXPECT_NE(r.out.find("\nratio_to_opt,"), std::string::npos);
  EXPECT_EQ(r.out.find("trials"), std::string::npos);
}

TEST(CliTest, TrialsRejectBadCombinations) {
  EXPECT_EQ(run({"run", "--trials=0"}).code, 2);
  EXPECT_EQ(run({"run", "--trials=2", "--load=/tmp/x"}).code, 2);
  // Each trial has its own schedule, so no one trace exists to render.
  EXPECT_EQ(run({"run", "--trials=2", "--gantt=40"}).code, 2);
  EXPECT_EQ(run({"run", "--trials=2", "--chrome-trace=/tmp/x"}).code, 2);
  EXPECT_EQ(run({"run", "--trials=2", "--utilization=5"}).code, 2);
  EXPECT_EQ(run({"run", "--trials=2", "--trace-out=/tmp/x"}).code, 2);
}

TEST(CliTest, WeightsFlag) {
  const auto r = run({"run", "--jobs=50", "--weights=1,4,16", "--m=4",
                      "--scheduler=steal-4-first-bwf", "--csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("steal-4-first-bwf"), std::string::npos);
  EXPECT_EQ(run({"run", "--weights=banana"}).code, 2);
}

TEST(CliTest, BoundsCommand) {
  const auto r = run({"bounds", "--jobs=25", "--workload=finance", "--m=8"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("span (max P_i)"), std::string::npos);
  EXPECT_NE(r.out.find("combined"), std::string::npos);
}

TEST(CliTest, GenerateThenLoadRoundTrip) {
  const auto gen = run({"generate", "--jobs=15", "--workload=lognormal",
                        "--seed=5"});
  ASSERT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("instance 15"), std::string::npos);

  const std::string path = "/tmp/pjsched_cli_test_instance.txt";
  {
    std::ofstream f(path);
    f << gen.out;
  }
  const auto loaded = run({"run", std::string("--load=") + path, "--m=4",
                           "--scheduler=fifo", "--csv"});
  EXPECT_EQ(loaded.code, 0) << loaded.err;
  EXPECT_NE(loaded.out.find("fifo,15,4,"), std::string::npos);
  const auto gantt = run({"run", std::string("--load=") + path, "--m=2",
                          "--scheduler=fifo", "--gantt=40"});
  EXPECT_EQ(gantt.code, 0) << gantt.err;
  EXPECT_NE(gantt.out.find("jobs:             15\n"), std::string::npos);
  EXPECT_NE(gantt.out.find("P1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, LoadMissingFileFails) {
  const auto r = run({"run", "--load=/nonexistent/path.txt"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(CliTest, ChromeTraceWritten) {
  const std::string path = "/tmp/pjsched_cli_test_trace.json";
  const auto r = run({"run", "--jobs=8", "--m=2", "--scheduler=admit-first",
                      std::string("--chrome-trace=") + path});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_NE(ss.str().find("traceEvents"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pjsched::cli
