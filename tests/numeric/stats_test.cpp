#include "stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace rmp::num {
namespace {

TEST(StatsTest, MeanVarianceStddev) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(StatsTest, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{3.0}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{3.0}), 0.0);
}

TEST(StatsTest, PercentileInterpolation) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(StatsTest, PercentileOutOfRangeClampsInsteadOfIndexingOutOfBounds) {
  // Out-of-range p used to be guarded only by assert(), so Release builds
  // read past the sorted buffer; it now clamps to the nearest bound.
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, -1e9), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 150.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1e9), 4.0);
}

TEST(StatsTest, PercentileOfEmptyThrows) {
  EXPECT_THROW((void)percentile(std::vector<double>{}, 50.0), std::invalid_argument);
  EXPECT_THROW((void)median(std::vector<double>{}), std::invalid_argument);
}

TEST(StatsTest, SummarizeEmptyIsZeroedAndDoesNotThrow) {
  const Summary s = summarize(std::vector<double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.median, 0.0);
  EXPECT_DOUBLE_EQ(s.p25, 0.0);
  EXPECT_DOUBLE_EQ(s.p75, 0.0);
}

TEST(StatsTest, PercentileUnsortedInput) {
  const std::vector<double> xs{9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(median(xs), 5.0);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  const std::vector<double> yn{-2.0, -4.0, -6.0, -8.0};
  EXPECT_NEAR(pearson(x, yn), -1.0, 1e-12);
}

TEST(StatsTest, PearsonDegenerate) {
  const std::vector<double> x{1.0, 1.0, 1.0};
  const std::vector<double> y{2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(StatsTest, SummaryFields) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.p25, 2.0);
  EXPECT_DOUBLE_EQ(s.p75, 4.0);
}

TEST(StatsTest, SummaryEmpty) {
  const Summary s = summarize(std::vector<double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

// Percentile must be monotone in p.
class PercentileMonotone : public ::testing::TestWithParam<double> {};

TEST_P(PercentileMonotone, NonDecreasing) {
  const std::vector<double> xs{5.0, -1.0, 3.5, 0.0, 2.0, 2.0, 9.0};
  const double p = GetParam();
  EXPECT_LE(percentile(xs, p), percentile(xs, std::min(p + 10.0, 100.0)) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Grid, PercentileMonotone,
                         ::testing::Values(0.0, 10.0, 25.0, 40.0, 60.0, 75.0, 90.0));

}  // namespace
}  // namespace rmp::num
