// Self-tests of the benchmark's measurement primitives (src/harness.h).
// run.py runs this binary before every measurement.
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(Percentile(OneTo(100), 50), 50.0);
  EXPECT_EQ(Percentile(OneTo(100), 90), 90.0);
  EXPECT_EQ(Percentile(OneTo(1000), 99), 990.0);
  EXPECT_EQ(Percentile(OneTo(101), 50), 51.0);
}

TEST(Percentile, RefusesFewerThanTenBeyond) {
  // p99 of 1000 leaves exactly ten beyond rank 990; of 999, nine.
  EXPECT_TRUE(Percentile(OneTo(1000), 99).has_value());
  EXPECT_FALSE(Percentile(OneTo(999), 99).has_value());
  EXPECT_TRUE(Percentile(OneTo(100), 90).has_value());
  EXPECT_FALSE(Percentile(OneTo(99), 90).has_value());
  EXPECT_FALSE(Percentile(OneTo(19), 50).has_value());
  EXPECT_FALSE(Percentile({}, 50).has_value());
  EXPECT_FALSE(Percentile(OneTo(100), 100).has_value());
}

TEST(Percentile, WindowedIsMedianOfWindows) {
  // Three windows of 100; the middle one holds a stall that would
  // dominate a whole-sample p90.
  std::vector<double> v;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 100; ++i) v.push_back(w == 1 ? 1000.0 + i : i);
  }
  EXPECT_EQ(WindowedPercentile(v, 90, 3), 90.0);
  EXPECT_FALSE(WindowedPercentile(v, 90, 4).has_value());  // 75 per window
}

TEST(Median, EvenAndOdd) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_FALSE(Median({}).has_value());
}

TEST(PoissonSchedule, SameSeedSameSchedule) {
  const std::vector<double> a = PoissonSchedule(7, 800, 2.0);
  const std::vector<double> b = PoissonSchedule(7, 800, 2.0);
  const std::vector<double> c = PoissonSchedule(8, 800, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // About rate x seconds arrivals, strictly increasing, inside [0, 2).
  EXPECT_NEAR(static_cast<double>(a.size()), 1600.0, 200.0);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_LT(a[i - 1], a[i]);
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 2.0);
}

TEST(FirstBitMismatch, CatchesOneUlp) {
  shflbw::Matrix<float> a(3, 4, 1.5f);
  shflbw::Matrix<float> b = a;
  EXPECT_EQ(FirstBitMismatch(a, b), -1);
  b.data()[6] = std::nextafter(b.data()[6], 2.0f);
  EXPECT_EQ(FirstBitMismatch(a, b), 6);
  shflbw::Matrix<float> z(1, 1, 0.0f), nz(1, 1, -0.0f);
  EXPECT_EQ(FirstBitMismatch(z, nz), 0);
  EXPECT_EQ(FirstBitMismatch(a, shflbw::Matrix<float>(4, 3, 1.5f)), 0);
}

TEST(SelfSeconds, SubtractsUnionOfChildrenInsideParent) {
  const Span parent{"call", 10.0, 20.0};
  EXPECT_DOUBLE_EQ(SelfSeconds(parent, {}), 10.0);
  // Disjoint children: 2 + 3 covered.
  EXPECT_DOUBLE_EQ(
      SelfSeconds(parent, {{"a", 11.0, 13.0}, {"b", 15.0, 18.0}}), 5.0);
  // Overlapping children count once: [11, 16) covered.
  EXPECT_DOUBLE_EQ(
      SelfSeconds(parent, {{"a", 11.0, 14.0}, {"b", 12.0, 16.0}}), 5.0);
  // Parts outside the parent do not count: [10, 12) + [19, 20).
  EXPECT_DOUBLE_EQ(
      SelfSeconds(parent, {{"a", 8.0, 12.0}, {"b", 19.0, 25.0}}), 7.0);
}

TEST(WriteChromeTrace, ReportsSelfTimeOverDirectChildren) {
  SpanLog log;
  const std::int32_t root = log.Add({"root", 0.0, 10.0});
  const std::int32_t child = log.Add({"child", 1.0, 5.0, root, 7});
  log.Add({"grandchild", 2.0, 3.0, child});
  std::ostringstream os;
  WriteChromeTrace(os, {&log}, 0.0);
  const std::string json = os.str();
  // root: 10 s minus its child's 4 s; child: 4 s minus 1 s.
  EXPECT_NE(json.find("\"name\":\"root\""), std::string::npos);
  EXPECT_NE(json.find("\"self_us\":6e+06"), std::string::npos);
  EXPECT_NE(json.find("\"parent\":0,\"request\":7,\"self_us\":3e+06"),
            std::string::npos);
  EXPECT_EQ(log.Durations("child"), std::vector<double>{4.0});
}

}  // namespace
}  // namespace perfbench
