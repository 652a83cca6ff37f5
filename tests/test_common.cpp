#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "common/breaker.hpp"
#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"

namespace mf {
namespace {

TEST(Check, PassesOnTrue) { EXPECT_NO_THROW(MF_CHECK(1 + 1 == 2)); }

TEST(Check, ThrowsOnFalse) {
  EXPECT_THROW(MF_CHECK(false), CheckError);
  EXPECT_THROW(MF_CHECK_MSG(false, "context"), CheckError);
}

TEST(Check, MessageCarriesContext) {
  try {
    MF_CHECK_MSG(false, "the detail");
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("the detail"), std::string::npos);
  }
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.row().cell("a").cell(1);
  t.row().cell("long-name").cell(12345);
  const std::string out = t.str();
  EXPECT_NE(out.find("| name "), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_NE(out.find("12345"), std::string::npos);
  // Header + rule + 2 rows = 4 lines.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, RejectsTooManyCells) {
  Table t({"only"});
  t.row().cell("x");
  EXPECT_THROW(t.cell("overflow"), CheckError);
}

TEST(Table, CellBeforeRowThrows) {
  Table t({"a"});
  EXPECT_THROW(t.cell("x"), CheckError);
}

TEST(Table, FormatsDoublesWithPrecision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 3), "2.000");
}

TEST(BarChart, ScalesToPeak) {
  const std::string out = bar_chart({{"a", 10.0}, {"b", 5.0}}, 10);
  // "a" gets the full 10 hashes, "b" half.
  EXPECT_NE(out.find("##########"), std::string::npos);
  EXPECT_NE(out.find("#####"), std::string::npos);
}

TEST(Histogram, BucketsAndClampsOutliers) {
  const std::string out =
      histogram({0.95, 0.95, 1.05, 5.0 /* clamped into last bin */}, 0.9, 1.2,
                0.1, 10);
  EXPECT_NE(out.find("0.90"), std::string::npos);
  EXPECT_NE(out.find("1.00"), std::string::npos);
  EXPECT_NE(out.find("1.10"), std::string::npos);
}

TEST(Csv, EscapesSpecialCharacters) {
  CsvWriter csv({"a", "b"});
  csv.row().cell("plain").cell("with,comma");
  csv.row().cell("with\"quote").cell(1.5, 1);
  const std::string out = csv.str();
  EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"with\"\"quote\""), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
}

TEST(Csv, HeaderFirstLine) {
  CsvWriter csv({"x", "y"});
  csv.row().cell(1).cell(2);
  EXPECT_EQ(csv.str().substr(0, 4), "x,y\n");
}

// -- Breaker: the consecutive-failure kernel on a synthetic clock ----------

/// One breaker call at synthetic time `t` seconds: 'a' = allow() (expect
/// 1 = pass, 0 = fail fast), 'f' = on_failure() (expect the Transition),
/// 's' = on_success() (expect unused).
struct BreakerStep {
  char op;
  double t;
  int expect;
};

void run_breaker_table(int threshold, double cooldown_s,
                       const std::vector<BreakerStep>& steps) {
  Breaker breaker(threshold, cooldown_s);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const BreakerStep& step = steps[i];
    const Breaker::Clock::time_point now =
        Breaker::Clock::time_point{} +
        std::chrono::duration_cast<Breaker::Clock::duration>(
            std::chrono::duration<double>(step.t));
    SCOPED_TRACE("step " + std::to_string(i) + " '" + step.op + "' at t=" +
                 std::to_string(step.t));
    if (step.op == 'a') {
      EXPECT_EQ(breaker.allow(now) ? 1 : 0, step.expect);
    } else if (step.op == 'f') {
      EXPECT_EQ(static_cast<int>(breaker.on_failure(now)), step.expect);
    } else {
      breaker.on_success();
    }
  }
}

constexpr int kNone = static_cast<int>(Breaker::Transition::None);
constexpr int kOpened = static_cast<int>(Breaker::Transition::Opened);
constexpr int kRearmed = static_cast<int>(Breaker::Transition::Rearmed);

TEST(BreakerKernel, DisabledAtThresholdZero) {
  run_breaker_table(0, 1.0, {{'f', 0, kNone}, {'f', 0, kNone},
                             {'f', 0, kNone}, {'a', 0, 1}, {'a', 0.5, 1}});
}

TEST(BreakerKernel, TripsAtThresholdAndFailsFastInsideCooldown) {
  run_breaker_table(3, 10.0, {{'a', 0, 1},
                              {'f', 0, kNone},
                              {'f', 1, kNone},
                              {'a', 1.5, 1},  // still closed below threshold
                              {'f', 2, kOpened},
                              {'a', 2, 0},
                              {'a', 11.9, 0}});
}

TEST(BreakerKernel, SuccessBelowThresholdResetsTheCount) {
  run_breaker_table(2, 1.0, {{'f', 0, kNone}, {'s', 0, 0}, {'f', 0, kNone},
                             {'f', 0, kOpened}});
}

TEST(BreakerKernel, ExactlyOneProbeAfterCooldown) {
  run_breaker_table(1, 10.0, {{'f', 0, kOpened},
                              {'a', 10, 1},     // the half-open probe
                              {'a', 10, 0},     // concurrent callers wait
                              {'a', 19.9, 0},   // retry pushed to t=20
                              {'a', 20, 1}});   // a stuck probe is retried
}

TEST(BreakerKernel, FailedProbeRearms) {
  run_breaker_table(2, 10.0, {{'f', 0, kNone},
                              {'f', 0, kOpened},
                              {'a', 10, 1},
                              {'f', 13, kRearmed},
                              {'a', 22.9, 0},
                              {'a', 23, 1},
                              {'f', 23, kRearmed}});
}

TEST(BreakerKernel, SuccessClosesAndRestartsTheCount) {
  run_breaker_table(2, 10.0, {{'f', 0, kNone},
                              {'f', 0, kOpened},
                              {'a', 10, 1},
                              {'s', 10, 0},
                              {'a', 10, 1},
                              {'a', 10, 1},
                              {'f', 11, kNone},  // count restarted at 0
                              {'f', 12, kOpened},
                              {'a', 12, 0}});
}

TEST(BreakerKernel, ZeroCooldownProbesImmediately) {
  run_breaker_table(1, 0.0, {{'f', 5, kOpened},
                             {'a', 5, 1},
                             {'f', 5, kRearmed},
                             {'a', 5, 1},
                             {'s', 5, 0},
                             {'a', 5, 1}});
}

}  // namespace
}  // namespace mf
