// Two-class Fisher–Jenks natural break for 1-D discretization.
//
// The Event Preprocessor (§V-A) unifies ambient-numeric device states
// (brightness, temperature) to binary Low/High by splitting at the natural
// break that minimizes within-class variance. For two classes the exact
// Fisher (1958) / Jenks (1967) optimum is one scan over the cut points of
// the sorted distinct values with prefix sums: O(n log n) for the sort,
// O(m) for the scan over m distinct values.
#pragma once

#include <span>

#include "causaliot/util/result.hpp"

namespace causaliot::stats {

/// The Low/High cut point: the last value of the low class, so a value v
/// is Low iff v <= threshold. Ties in within-class SSE go to the smallest
/// cut. Fails with invalid_argument on empty input and failed_precondition
/// when `values` holds fewer than two distinct values.
util::Result<double> jenks_binary_threshold(std::span<const double> values);

}  // namespace causaliot::stats
