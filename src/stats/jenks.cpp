#include "causaliot/stats/jenks.hpp"

#include <algorithm>
#include <limits>
#include <vector>

namespace causaliot::stats {

util::Result<double> jenks_binary_threshold(std::span<const double> values) {
  if (values.empty()) {
    return util::Error::invalid_argument("empty value set");
  }
  // Sorted distinct values weighted by their occurrence counts. The sort
  // is stable so equal-comparing values (-0.0 / 0.0) keep the first one
  // seen as their representative.
  std::vector<double> sorted(values.begin(), values.end());
  std::stable_sort(sorted.begin(), sorted.end());
  std::vector<double> value;
  std::vector<double> weight;
  for (const double v : sorted) {
    if (value.empty() || value.back() < v) {
      value.push_back(v);
      weight.push_back(0.0);
    }
    weight.back() += 1.0;
  }
  const std::size_t m = value.size();
  if (m < 2) {
    return util::Error::failed_precondition(
        "fewer distinct values than classes");
  }

  // Prefix sums for O(1) within-class sum of squared errors.
  std::vector<double> pw(m + 1, 0.0), pwv(m + 1, 0.0), pwv2(m + 1, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    pw[i + 1] = pw[i] + weight[i];
    pwv[i + 1] = pwv[i] + weight[i] * value[i];
    pwv2[i + 1] = pwv2[i] + weight[i] * value[i] * value[i];
  }
  // SSE of the class covering distinct indices [i, j] inclusive.
  const auto sse = [&](std::size_t i, std::size_t j) {
    const double w = pw[j + 1] - pw[i];
    const double s = pwv[j + 1] - pwv[i];
    const double s2 = pwv2[j + 1] - pwv2[i];
    return s2 - s * s / w;
  };

  // The high class starts at distinct index `cut`; the strict < keeps the
  // first minimum, so ties go to the smallest cut.
  double best = std::numeric_limits<double>::infinity();
  std::size_t cut = 1;
  for (std::size_t i = 1; i < m; ++i) {
    const double candidate = sse(0, i - 1) + sse(i, m - 1);
    if (candidate < best) {
      best = candidate;
      cut = i;
    }
  }
  return value[cut - 1];
}

}  // namespace causaliot::stats
