#include "causaliot/stats/jenks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "causaliot/util/rng.hpp"

namespace causaliot::stats {
namespace {

// Reference oracle: the general k-class Fisher–Jenks dynamic program
// (O(k * m^2) over the m sorted distinct values), exactly as production
// ran it before the two-class scan replaced it. jenks_binary_threshold
// must return its k = 2 break bit for bit.
struct OracleBreaks {
  /// Last value of each class except the highest; size k - 1.
  std::vector<double> breaks;
  /// Goodness of variance fit in [0, 1]; 1 means perfect separation.
  double goodness_of_fit = 0.0;
};

std::optional<OracleBreaks> oracle_natural_breaks(
    std::span<const double> values, std::size_t class_count) {
  std::map<double, double> counts;
  for (double v : values) counts[v] += 1.0;
  std::vector<double> value;
  std::vector<double> weight;
  for (const auto& [v, w] : counts) {
    value.push_back(v);
    weight.push_back(w);
  }
  const std::size_t m = value.size();
  if (class_count < 2 || m < class_count) return std::nullopt;

  std::vector<double> pw(m + 1, 0.0), pwv(m + 1, 0.0), pwv2(m + 1, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    pw[i + 1] = pw[i] + weight[i];
    pwv[i + 1] = pwv[i] + weight[i] * value[i];
    pwv2[i + 1] = pwv2[i] + weight[i] * value[i] * value[i];
  }
  const auto sse = [&](std::size_t i, std::size_t j) {
    const double w = pw[j + 1] - pw[i];
    const double s = pwv[j + 1] - pwv[i];
    const double s2 = pwv2[j + 1] - pwv2[i];
    return s2 - s * s / w;
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> cost(class_count,
                                        std::vector<double>(m, kInf));
  std::vector<std::vector<std::size_t>> cut(class_count,
                                            std::vector<std::size_t>(m, 0));
  for (std::size_t j = 0; j < m; ++j) cost[0][j] = sse(0, j);
  for (std::size_t c = 1; c < class_count; ++c) {
    for (std::size_t j = c; j < m; ++j) {
      for (std::size_t i = c; i <= j; ++i) {
        const double candidate = cost[c - 1][i - 1] + sse(i, j);
        if (candidate < cost[c][j]) {
          cost[c][j] = candidate;
          cut[c][j] = i;
        }
      }
    }
  }

  OracleBreaks result;
  result.breaks.resize(class_count - 1);
  std::size_t j = m - 1;
  for (std::size_t c = class_count - 1; c >= 1; --c) {
    const std::size_t start = cut[c][j];
    result.breaks[c - 1] = value[start - 1];
    j = start - 1;
  }
  const double total_sse = sse(0, m - 1);
  result.goodness_of_fit =
      total_sse > 0.0 ? 1.0 - cost[class_count - 1][m - 1] / total_sse : 1.0;
  return result;
}

// jenks_binary_threshold equals the oracle's two-class break exactly
// (EXPECT_EQ on the double, not approximately).
void expect_matches_oracle(const std::vector<double>& values) {
  const auto oracle = oracle_natural_breaks(values, 2);
  ASSERT_TRUE(oracle.has_value());
  const auto threshold = jenks_binary_threshold(values);
  ASSERT_TRUE(threshold.ok());
  EXPECT_EQ(threshold.value(), oracle->breaks[0]);
}

TEST(Jenks, TwoClearClusters) {
  const std::vector<double> values{1, 2, 1.5, 2.5, 100, 101, 99, 102};
  const auto threshold = jenks_binary_threshold(values);
  ASSERT_TRUE(threshold.ok());
  EXPECT_EQ(threshold.value(), 2.5);
  expect_matches_oracle(values);
}

TEST(Jenks, DuplicatesAreWeighted) {
  // The heavy cluster at 10 should not shift the break toward sparse
  // outliers.
  std::vector<double> values(100, 10.0);
  values.insert(values.end(), {200.0, 201.0, 202.0});
  const auto threshold = jenks_binary_threshold(values);
  ASSERT_TRUE(threshold.ok());
  EXPECT_GE(threshold.value(), 10.0);
  EXPECT_LT(threshold.value(), 200.0);
  expect_matches_oracle(values);
}

TEST(Jenks, ErrorOnTooFewDistinctValues) {
  const auto threshold = jenks_binary_threshold(std::vector<double>{5, 5, 5});
  ASSERT_FALSE(threshold.ok());
  EXPECT_EQ(threshold.error().code, util::ErrorCode::kFailedPrecondition);
}

TEST(Jenks, ErrorOnEmptyInput) {
  const auto threshold = jenks_binary_threshold(std::vector<double>{});
  ASSERT_FALSE(threshold.ok());
  EXPECT_EQ(threshold.error().code, util::ErrorCode::kInvalidArgument);
}

TEST(Jenks, ExactlyTwoDistinctValues) {
  const std::vector<double> values{7, 0, 7, 0, 0};
  const auto threshold = jenks_binary_threshold(values);
  ASSERT_TRUE(threshold.ok());
  EXPECT_EQ(threshold.value(), 0.0);
  expect_matches_oracle(values);
}

TEST(Jenks, ExactSseTieGoesToTheSmallestCut) {
  // Both cuts of {0, 1, 2} leave SSE 0.5 exactly, and so do both cuts of
  // the doubled multiset (SSE 1.0); the smallest cut wins.
  for (const std::vector<double>& values :
       {std::vector<double>{2, 1, 0}, std::vector<double>{0, 1, 2, 2, 1, 0}}) {
    const auto threshold = jenks_binary_threshold(values);
    ASSERT_TRUE(threshold.ok());
    EXPECT_EQ(threshold.value(), 0.0);
    expect_matches_oracle(values);
  }
}

TEST(JenksBinaryThreshold, SplitsBimodalData) {
  util::Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 300; ++i) values.push_back(rng.normal(5.0, 1.0));
  for (int i = 0; i < 300; ++i) values.push_back(rng.normal(120.0, 10.0));
  const auto threshold = jenks_binary_threshold(values);
  ASSERT_TRUE(threshold.ok());
  EXPECT_GT(threshold.value(), 2.0);
  EXPECT_LT(threshold.value(), 100.0);
  expect_matches_oracle(values);
}

// Seeded property: the O(m) scan equals the oracle's two-class break on
// every input shape the preprocessor feeds it.
class JenksOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JenksOracle, HeavyDuplicates) {
  util::Rng rng(GetParam());
  std::vector<double> values;
  const std::int64_t distinct = 2 + rng.uniform_int(0, 20);
  for (int i = 0; i < 2000; ++i) {
    values.push_back(0.5 * static_cast<double>(rng.uniform_int(0, distinct)));
  }
  expect_matches_oracle(values);
}

TEST_P(JenksOracle, IntegerValuedReadings) {
  // Brightness/temperature sensors report integers: many repeated values
  // spread over two overlapping modes.
  util::Rng rng(GetParam());
  std::vector<double> values;
  for (int i = 0; i < 1500; ++i) {
    values.push_back(std::round(rng.normal(18.0, 3.0)));
    values.push_back(std::round(rng.normal(60.0, 15.0)));
  }
  expect_matches_oracle(values);
}

TEST_P(JenksOracle, ContinuousBimodal) {
  util::Rng rng(GetParam());
  std::vector<double> values;
  const double low_center = rng.uniform_real(0, 20);
  const double high_center = low_center + rng.uniform_real(5, 200);
  for (int i = 0; i < 400; ++i) values.push_back(rng.normal(low_center, 3));
  for (int i = 0; i < 200; ++i) values.push_back(rng.normal(high_center, 8));
  expect_matches_oracle(values);
}

TEST_P(JenksOracle, MirrorSymmetric) {
  // Mirrored cuts of a mirror-symmetric multiset have equal SSE up to
  // rounding: near-ties, where only identical arithmetic picks the
  // oracle's cut.
  util::Rng rng(GetParam());
  std::vector<double> values;
  for (int i = 0; i < 30; ++i) {
    const double v = static_cast<double>(rng.uniform_int(1, 8));
    values.push_back(v);
    values.push_back(-v);
  }
  expect_matches_oracle(values);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JenksOracle,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL,
                                           6ULL, 7ULL, 8ULL));

TEST(JenksOracleLarge, FiftyThousandValues) {
  // Paper-scale per-device reading set: 50k readings at a sensor's 0.1
  // resolution (a few thousand distinct values keep the O(m^2) oracle
  // affordable under the sanitizers).
  util::Rng rng(2023);
  std::vector<double> values;
  values.reserve(50000);
  const auto reading = [&](double mean, double stddev) {
    return std::round(rng.normal(mean, stddev) * 10.0) / 10.0;
  };
  for (int i = 0; i < 30000; ++i) values.push_back(reading(40.0, 6.0));
  for (int i = 0; i < 20000; ++i) values.push_back(reading(300.0, 40.0));
  expect_matches_oracle(values);
}

// Property: for 2 classes, every value below the break is closer to the
// low-class mean and most values above are closer to the high-class mean.
class JenksSeparation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JenksSeparation, BreakSeparatesBimodalMass) {
  util::Rng rng(GetParam());
  std::vector<double> values;
  const double low_center = rng.uniform_real(0, 20);
  const double high_center = low_center + rng.uniform_real(60, 200);
  for (int i = 0; i < 200; ++i) values.push_back(rng.normal(low_center, 3));
  for (int i = 0; i < 200; ++i) values.push_back(rng.normal(high_center, 3));
  const auto threshold = jenks_binary_threshold(values);
  ASSERT_TRUE(threshold.ok());
  std::size_t misassigned = 0;
  for (double v : values) {
    const bool below = v <= threshold.value();
    const bool from_low_cluster =
        std::abs(v - low_center) < std::abs(v - high_center);
    misassigned += below != from_low_cluster;
  }
  EXPECT_LE(misassigned, values.size() / 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JenksSeparation,
                         ::testing::Values(10ULL, 20ULL, 30ULL, 40ULL,
                                           50ULL));

// The oracle itself, k > 2 (production only ever needs two classes).
TEST(JenksOracleSelf, ThreeClusters) {
  std::vector<double> values;
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) values.push_back(rng.normal(0.0, 0.5));
  for (int i = 0; i < 50; ++i) values.push_back(rng.normal(50.0, 0.5));
  for (int i = 0; i < 50; ++i) values.push_back(rng.normal(100.0, 0.5));
  const auto result = oracle_natural_breaks(values, 3);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->breaks.size(), 2u);
  // A break is the last value of its class, so breaks sit at the upper
  // edge of each cluster.
  EXPECT_GT(result->breaks[0], -5.0);
  EXPECT_LT(result->breaks[0], 45.0);
  EXPECT_GT(result->breaks[1], 45.0);
  EXPECT_LT(result->breaks[1], 95.0);
  EXPECT_GT(result->goodness_of_fit, 0.99);
}

TEST(JenksOracleSelf, FourClassBreaksAreSorted) {
  util::Rng rng(2);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.uniform_real(0, 1000));
  const auto result = oracle_natural_breaks(values, 4);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(std::is_sorted(result->breaks.begin(), result->breaks.end()));
}

}  // namespace
}  // namespace causaliot::stats
