// The Device Interaction Graph (Definition 1).
//
// Under the tau-th-order Markov and stationarity assumptions the DIG is
// fully described by, for each device i, the set of lagged causes
// Ca(S_i^t) with lags in [1, tau] plus a CPT over those causes. Edges are
// always oriented lagged -> present (the cause precedes the effect).
//
// Each device owns one Cpt, which holds both its canonical cause list
// and its counts; the graph is a plain value type. Fleet sharing happens
// one level up: serve::TemplateRegistry publishes a trained graph inside
// one immutable ModelSnapshot, and every tenant of that template holds a
// shared_ptr to the same snapshot. Personalizing a tenant means copying
// the graph, update_cpts on the copy, and swap_model to a new snapshot.
#pragma once

#include <string>
#include <vector>

#include "causaliot/graph/cpt.hpp"
#include "causaliot/telemetry/device.hpp"
#include "causaliot/util/result.hpp"

namespace causaliot::graph {

/// A directed interaction edge: cause (lagged) -> child (present).
struct Edge {
  LaggedNode cause;
  telemetry::DeviceId child = telemetry::kInvalidDevice;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class InteractionGraph {
 public:
  InteractionGraph() = default;
  InteractionGraph(std::size_t device_count, std::size_t max_lag);

  std::size_t device_count() const { return cpts_.size(); }
  std::size_t max_lag() const { return max_lag_; }

  /// Installs the cause set (any order; canonicalized) for `child`,
  /// resetting its CPT. All lags must be in [1, max_lag].
  void set_causes(telemetry::DeviceId child, std::vector<LaggedNode> causes);

  const std::vector<LaggedNode>& causes(telemetry::DeviceId child) const;
  const Cpt& cpt(telemetry::DeviceId child) const;
  Cpt& cpt(telemetry::DeviceId child);

  /// All edges, grouped by child.
  std::vector<Edge> edges() const;
  std::size_t edge_count() const;

  /// True if `cause_device` at lag `lag` is a cause of `child`.
  bool has_edge(telemetry::DeviceId cause_device, std::uint32_t lag,
                telemetry::DeviceId child) const;

  /// True if `cause_device` is a cause of `child` at *any* lag — the
  /// device-level interaction relation used for ground-truth matching.
  bool has_interaction(telemetry::DeviceId cause_device,
                       telemetry::DeviceId child) const;

  /// Devices that have `device` among their causes (at any lag): the
  /// devices a state change of `device` can directly affect. Used for
  /// collective-anomaly chain tracking diagnostics.
  std::vector<telemetry::DeviceId> children(telemetry::DeviceId device) const;

  /// Estimated resident bytes: the sum of Cpt::approx_bytes over all
  /// devices (the unit of the serve_model_* gauges).
  std::size_t approx_bytes() const;

  /// Graphviz DOT rendering with device names from `catalog`.
  std::string to_dot(const telemetry::DeviceCatalog& catalog) const;

  /// Plain-text serialization (stable across runs).
  util::Status save(const std::string& path) const;
  static util::Result<InteractionGraph> load(const std::string& path);

 private:
  std::size_t max_lag_ = 0;
  std::vector<Cpt> cpts_;
};

}  // namespace causaliot::graph
