// DIG analysis utilities: degree statistics (the max-degree k that bounds
// TemporalPC's O(n^k) test count, §V-D) and structural diffing between two
// mined graphs — the ops-facing primitive for detecting behavioural drift
// ("the interaction graph is outdated", the paper's main false-alarm
// source) by periodically re-mining and comparing.
#pragma once

#include <string>
#include <vector>

#include "causaliot/graph/dig.hpp"

namespace causaliot::graph {

struct GraphSummary {
  std::size_t device_count = 0;
  std::size_t edge_count = 0;
  /// Device-level interactions (lagged edges collapsed per (cause, child)).
  std::size_t interaction_count = 0;
  std::size_t self_loop_count = 0;
  /// Max in-degree over children (number of lagged causes) — the k in the
  /// paper's O(n^k) complexity bound.
  std::size_t max_in_degree = 0;
  double mean_in_degree = 0.0;
  /// Devices with no causes at all (purely marginal behaviour).
  std::size_t orphan_count = 0;
  /// Total CPT assignments stored across all devices (model size).
  std::size_t cpt_assignment_count = 0;
};

GraphSummary summarize(const InteractionGraph& graph);

/// Structural difference between two DIGs over the same device set.
struct GraphDiff {
  /// Lagged edges present in `after` but not `before`.
  std::vector<Edge> added;
  /// Lagged edges present in `before` but not `after`.
  std::vector<Edge> removed;
  /// Jaccard similarity of the lagged edge sets (1 = identical).
  double edge_jaccard = 1.0;

  bool identical() const { return added.empty() && removed.empty(); }
};

/// CHECKs if the two graphs disagree on device count.
GraphDiff diff(const InteractionGraph& before, const InteractionGraph& after);

/// One-line rendering of a diff for logs:
/// "drift: +3 edges, -1 edge, jaccard 0.87".
std::string describe_diff(const GraphDiff& diff);

}  // namespace causaliot::graph
