// Exit-code contract of the `servescope` analysis CLI, driven as a process:
// 0 success, 1 a gate failed (diff regression, trace check, check
// regression), 2 unreadable, malformed or wrong-schema input or a bad
// command line. Also pins the satellite fixes: deeply nested JSON exits 2
// instead of overflowing the stack, `diff` and `report` print the same
// clamped p99, and numeric options must be whole finite numbers.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <string>

#include "servescope_fixtures.h"

namespace {

namespace fs = std::filesystem;
using fixtures::with;

struct CliResult {
  int exit_code = -1;
  std::string out;  ///< stdout; stderr goes to the test log
};

class ServescopeCli : public ::testing::Test {
 protected:
  void SetUp() override {
    // Not named after the test: the paths appear in the output under test.
    dir_ = fs::temp_directory_path() / ("servescope_cli_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Writes `content` to `name` in the test's temporary directory; returns the path.
  std::string file(const std::string& name, const std::string& content) const {
    const fs::path p = dir_ / name;
    std::ofstream(p, std::ios::binary) << content;
    return p.string();
  }

  static CliResult servescope(const std::string& args) {
    const std::string cmd = std::string(SERVESCOPE_CLI) + " " + args;
    CliResult r;
    std::FILE* pipe = ::popen(cmd.c_str(), "r");
    if (pipe == nullptr) return r;
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) r.out.append(buf, n);
    const int status = ::pclose(pipe);
    r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    return r;
  }

  fs::path dir_;
};

TEST_F(ServescopeCli, MalformedInputExits2) {
  const std::string bad = file("broken.json", "{ this is not json");
  for (const char* sub : {"report", "capacity", "trace"}) {
    EXPECT_EQ(servescope(std::string(sub) + " " + bad).exit_code, 2) << sub;
  }
  const std::string good = file("t.json", fixtures::kTelemetry);
  EXPECT_EQ(servescope("diff " + good + " " + bad).exit_code, 2);
  EXPECT_EQ(servescope("check " + bad + " " + good).exit_code, 2);
  EXPECT_EQ(servescope("report " + dir_.string() + "/missing.json").exit_code, 2);
}

TEST_F(ServescopeCli, DeepNestingExits2) {
  // Two million '[' overflowed the recursive parser's stack (SIGSEGV).
  const std::string deep = file("deep.json", std::string(2'000'000, '['));
  for (const char* sub : {"report", "capacity", "trace"}) {
    EXPECT_EQ(servescope(std::string(sub) + " " + deep).exit_code, 2) << sub;
  }
  EXPECT_EQ(servescope("diff " + deep + " " + deep).exit_code, 2);
  EXPECT_EQ(servescope("check " + deep + " " + deep).exit_code, 2);
}

TEST_F(ServescopeCli, WrongSchemaExits2) {
  const std::string telemetry = file("t.json", fixtures::kTelemetry);
  const std::string trace = file("trace.json", fixtures::kTrace);
  const std::string bench = file("bench.json", fixtures::kBenchmark);
  EXPECT_EQ(servescope("report " + trace).exit_code, 2);
  EXPECT_EQ(servescope("capacity " + bench).exit_code, 2);
  EXPECT_EQ(servescope("diff " + telemetry + " " + bench).exit_code, 2);
  EXPECT_EQ(servescope("trace " + telemetry).exit_code, 2);
  EXPECT_EQ(servescope("check " + bench + " " + trace).exit_code, 2);
  // A benchmarks array with no usable row is no baseline either.
  const std::string empty = file("d.json", fixtures::kDegenerate);
  EXPECT_EQ(servescope("check " + empty + " " + bench).exit_code, 2);
}

TEST_F(ServescopeCli, BadCommandLinesExit2) {
  const std::string telemetry = file("t.json", fixtures::kTelemetry);
  EXPECT_EQ(servescope("").exit_code, 2);
  EXPECT_EQ(servescope("bogus " + telemetry).exit_code, 2);
  EXPECT_EQ(servescope("report").exit_code, 2);
  EXPECT_EQ(servescope("report " + telemetry + " " + telemetry).exit_code, 2);
  EXPECT_EQ(servescope("diff " + telemetry).exit_code, 2);
  EXPECT_EQ(servescope("report " + telemetry + " --bogus 1").exit_code, 2);
  EXPECT_EQ(servescope("report " + telemetry + " --slo").exit_code, 2);
  // --width and --threshold are fixed at 64 columns and 0.9 now.
  EXPECT_EQ(servescope("capacity " + telemetry + " --width 64").exit_code, 2);
  EXPECT_EQ(servescope("capacity " + telemetry + " --threshold 0.9").exit_code, 2);
  EXPECT_EQ(servescope("--help").exit_code, 0);
  EXPECT_EQ(servescope("check --help").exit_code, 0);
}

TEST_F(ServescopeCli, MalformedNumericOptionsExit2) {
  const std::string telemetry = file("t.json", fixtures::kTelemetry);
  const std::string trace = file("trace.json", fixtures::kTrace);
  const std::string bench = file("bench.json", fixtures::kBenchmark);
  // Each of these used to run with a silently truncated or zero value.
  EXPECT_EQ(servescope("diff " + telemetry + " " + telemetry + " --tolerance abc").exit_code, 2);
  EXPECT_EQ(servescope("report " + telemetry + " --slo 0.25ms").exit_code, 2);
  EXPECT_EQ(servescope("report " + telemetry + " --slo-target ''").exit_code, 2);
  EXPECT_EQ(servescope("trace " + trace + " --tolerance nan").exit_code, 2);
  EXPECT_EQ(servescope("trace " + trace + " --top 2.5").exit_code, 2);
  EXPECT_EQ(servescope("check " + bench + " " + bench + " --tolerance 0.3x").exit_code, 2);
  EXPECT_EQ(servescope("check " + bench + " " + bench + " --tolerance 1e999").exit_code, 2);
  // Out-of-range but well-formed values are still refused by report.
  EXPECT_EQ(servescope("report " + telemetry + " --slo-target 1").exit_code, 2);
  // Well-formed values pass.
  EXPECT_EQ(servescope("diff " + telemetry + " " + telemetry + " --tolerance 0.5").exit_code, 0);
  EXPECT_EQ(servescope("report " + telemetry + " --slo 0.001 --slo-target 0.9").exit_code, 0);
  EXPECT_EQ(servescope("trace " + trace + " --top 0 --tolerance 1e-3").exit_code, 0);
}

TEST_F(ServescopeCli, ReportAndCapacityRenderEverySection) {
  const std::string telemetry = file("t.json", fixtures::kTelemetry);
  const CliResult report = servescope("report " + telemetry);
  EXPECT_EQ(report.exit_code, 0);
  for (const char* section : {"Timeline (", "Per-stage time", "Latency SLO", "Alerts:",
                              "Fleet health", "Capacity (", "SATURATED", "Shape checks: 1/1"}) {
    EXPECT_NE(report.out.find(section), std::string::npos) << section << "\n" << report.out;
  }
  const CliResult capacity = servescope("capacity " + telemetry);
  EXPECT_EQ(capacity.exit_code, 0);
  for (const char* section : {"Utilization timelines", "<< SATURATED",
                              "Binding-resource segments:", "120.5 req/s", "deviated at: 0.2s"}) {
    EXPECT_NE(capacity.out.find(section), std::string::npos) << section << "\n" << capacity.out;
  }
}

TEST_F(ServescopeCli, DegenerateTelemetryPrintsNoNanOrInf) {
  const std::string degenerate = file("d.json", fixtures::kDegenerate);
  const std::regex nan_or_inf("nan|[^a-z]inf", std::regex::icase);
  for (const char* sub : {"report", "capacity"}) {
    const CliResult r = servescope(std::string(sub) + " " + degenerate);
    EXPECT_EQ(r.exit_code, 0) << sub;
    EXPECT_FALSE(std::regex_search(r.out, nan_or_inf)) << sub << ":\n" << r.out;
  }
  const CliResult diff = servescope("diff " + degenerate + " " + degenerate);
  EXPECT_EQ(diff.exit_code, 0);
  EXPECT_FALSE(std::regex_search(diff.out, nan_or_inf)) << diff.out;
}

TEST_F(ServescopeCli, DiffExitsZeroOnIdenticalAndOneOnRegression) {
  const std::string base = file("base.json", fixtures::kTelemetry);
  EXPECT_EQ(servescope("diff " + base + " " + base).exit_code, 0);
  // Inference doubles from 0.6 to 1.2 ms/req: a regression, blamed on it.
  const std::string slow =
      file("slow.json", with(fixtures::kTelemetry, "\"value\": 0.006", "\"value\": 0.012"));
  const CliResult r = servescope("diff " + base + " " + slow);
  EXPECT_EQ(r.exit_code, 1) << r.out;
  EXPECT_NE(r.out.find("attribution: shift driven by stage 'inference'"), std::string::npos)
      << r.out;
  // The gate is one-sided: the faster run is not a regression.
  EXPECT_EQ(servescope("diff " + slow + " " + base).exit_code, 0);
}

TEST_F(ServescopeCli, DiffAndReportPrintTheSameClampedP99) {
  // One bucket (le 2 ms) holding every observation, min 1.0 ms, max 1.2 ms.
  // diff used to interpolate from 0 without clamping and print 1.98 ms.
  const std::string path = file("t.json", fixtures::kTelemetry);
  std::smatch m;
  const CliResult report = servescope("report " + path);
  ASSERT_TRUE(std::regex_search(report.out, m, std::regex(R"(p99 ([0-9.]+) ms)"))) << report.out;
  const double report_p99 = std::stod(m[1]);
  const CliResult diff = servescope("diff " + path + " " + path);
  ASSERT_TRUE(std::regex_search(diff.out, m, std::regex(R"(p99 latency +([0-9.]+) ->)")))
      << diff.out;
  const double diff_p99 = std::stod(m[1]);
  EXPECT_NEAR(report_p99, diff_p99, 0.05);  // printed to 1 and 2 decimals
  for (const double p99 : {report_p99, diff_p99}) {
    EXPECT_GE(p99, 1.0);
    EXPECT_LE(p99, 1.2);
  }
}

TEST_F(ServescopeCli, TraceExitsOneOnOrphanedSpans) {
  EXPECT_EQ(servescope("trace " + file("trace.json", fixtures::kTrace)).exit_code, 0);
  const std::string orphaned =
      file("orphan.json", with(fixtures::kTrace, "\"parent_span_id\": \"1\"",
                               "\"parent_span_id\": \"7\""));
  const CliResult r = servescope("trace " + orphaned);
  EXPECT_EQ(r.exit_code, 1) << r.out;
  EXPECT_NE(r.out.find("orphaned spans 1"), std::string::npos) << r.out;
}

TEST_F(ServescopeCli, CheckGatesRegressionsAndDebugBuilds) {
  const std::string base = file("base.json", fixtures::kBenchmark);
  EXPECT_EQ(servescope("check " + base + " " + base).exit_code, 0);
  const std::string slow =
      file("slow.json", with(fixtures::kBenchmark, "\"real_time\": 100.0", "\"real_time\": 200.0"));
  EXPECT_EQ(servescope("check " + base + " " + slow).exit_code, 1);
  EXPECT_EQ(servescope("check " + base + " " + slow + " --tolerance 1.5").exit_code, 0);
  const std::string debug = file(
      "debug.json", with(fixtures::kBenchmark, "\"build_type\": \"release\"",
                         "\"build_type\": \"debug\""));
  EXPECT_EQ(servescope("check " + base + " " + debug).exit_code, 1);
  EXPECT_EQ(servescope("check " + base + " " + debug + " --allow-debug").exit_code, 0);
  // Telemetry exports carry benchmark rows too and gate the same way.
  const std::string telemetry = file("t.json", fixtures::kTelemetry);
  EXPECT_EQ(servescope("check " + telemetry + " " + telemetry).exit_code, 0);
}

}  // namespace
