// The verdict rule every gated bench exits with: BenchReport::Finish()
// returns 0 when every check passed, 1 when a hard check failed and 2
// when only speed checks failed. A wrong verdict would make every CI
// bench gate vacuous, so each case here pins one branch of the rule.

#include "bench/bench_util.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace dbs3 {
namespace {

/// Finishes `report` for bench `bench`, removes the written file and
/// returns the exit status.
int FinishAndRemove(const BenchReport& report, const std::string& bench) {
  const int status = report.Finish();
  std::remove(("BENCH_" + bench + ".json").c_str());
  return status;
}

TEST(BenchReportTest, EveryCheckPassingExitsZero) {
  BenchReport report("report_test_pass", "queue");
  report.Check("rows", BenchReport::kHard, true, "identical");
  report.Check("speedup", BenchReport::kSpeed, true, "2.5x");
  EXPECT_EQ(FinishAndRemove(report, "report_test_pass"), 0);
}

TEST(BenchReportTest, FailedSpeedCheckExitsTwo) {
  BenchReport report("report_test_speed", "kernels");
  report.Check("rows", BenchReport::kHard, true, "identical");
  report.Check("speedup", BenchReport::kSpeed, false, "1.5x < 2.0x");
  EXPECT_EQ(FinishAndRemove(report, "report_test_speed"), 2);
}

TEST(BenchReportTest, FailedHardCheckExitsOneAloneOrBesideFailedSpeedChecks) {
  BenchReport alone("report_test_hard", "spill");
  alone.Check("rows", BenchReport::kHard, false, "mismatch");
  alone.Check("speedup", BenchReport::kSpeed, true, "2.5x");
  EXPECT_EQ(FinishAndRemove(alone, "report_test_hard"), 1);

  // Order does not matter: a later failed speed check cannot turn a hard
  // failure into a retryable one.
  BenchReport both("report_test_both", "spill");
  both.Check("speedup", BenchReport::kSpeed, false, "1.5x < 2.0x");
  both.Check("rows", BenchReport::kHard, false, "mismatch");
  both.Check("p99", BenchReport::kSpeed, false, "slower");
  EXPECT_EQ(FinishAndRemove(both, "report_test_both"), 1);
}

TEST(BenchReportTest, FileHoldsEveryRecordAndCheckEscaped) {
  BenchReport report("report_test_file", "spill");
  report.Record("budget=96", "high_water_units", "count", BenchReport::kLower,
                102);
  report.Record("budget=1024", "spill_bytes", "bytes", BenchReport::kLower,
                0.5);
  report.Record("sessions=8", "speedup", "ratio", BenchReport::kHigher, 1.25);
  report.Check("quota high water", BenchReport::kHard, true,
               "said \"ok\" at C:\\tmp");
  report.Check("speedup", BenchReport::kSpeed, false, "1.25x");
  EXPECT_EQ(report.Finish(), 2);

  std::ifstream in("BENCH_report_test_file.json");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  std::remove("BENCH_report_test_file.json");

  EXPECT_NE(json.find("\"bench\": \"report_test_file\""), std::string::npos);
  EXPECT_NE(json.find("{\"case\": \"budget=96\", \"layer\": \"spill\", "
                      "\"name\": \"high_water_units\", \"unit\": \"count\", "
                      "\"better\": \"lower\", \"value\": 102}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\": \"spill_bytes\", \"unit\": \"bytes\", "
                      "\"better\": \"lower\", \"value\": 0.5}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\": \"speedup\", \"unit\": \"ratio\", "
                      "\"better\": \"higher\", \"value\": 1.25}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"name\": \"quota high water\", \"kind\": \"hard\", "
                      "\"pass\": true, \"detail\": "
                      "\"said \\\"ok\\\" at C:\\\\tmp\"}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"name\": \"speedup\", \"kind\": \"speed\", "
                      "\"pass\": false, \"detail\": \"1.25x\"}"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace dbs3
