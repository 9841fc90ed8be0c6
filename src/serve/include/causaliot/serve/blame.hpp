// Fleet-wide root-cause blame aggregation behind /rootcausez.
//
// Every alarm the service delivers carries a ranked RootCauseAttribution
// (detect/root_cause.hpp). The BlameLedger folds those attributions into
// the operator-facing surfaces: per-device fleet totals (how often a
// device was blamed at all, and at rank 1), a last-K ring of full
// attributions per tenant, and the registry counters
// `serve_root_cause_blame_total{tenant,device}` /
// `serve_root_cause_rank1_total{device}` plus the attribution-latency
// histogram — which therefore flow into /metrics and the
// --metrics-interval JSONL (the root_cause_blame_spike rule in
// deploy/alert_rules.yml watches the rank-1 counter).
//
// record() runs on shard worker threads but only on the alarm path; a
// plain mutex is fine there and keeps the scrape-side reads trivially
// consistent. The no-alarm event hot path never touches the ledger.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "causaliot/detect/root_cause.hpp"
#include "causaliot/obs/registry.hpp"
#include "causaliot/telemetry/device.hpp"

namespace causaliot::serve {

/// Renders an attribution's ranked list as a JSON array — the `root_causes`
/// field of the alarm JSONL and the per-attribution payload of
/// /rootcausez share this shape. `catalog` may be nullptr; devices then
/// render as "device-<id>".
std::string root_causes_json(const detect::RootCauseAttribution& attribution,
                             const telemetry::DeviceCatalog* catalog);

class BlameLedger {
 public:
  /// Registers the aggregate metrics on `registry` (per-tenant and
  /// per-device instances are resolved lazily as devices get blamed).
  /// `catalog` labels blamed devices by name and may be nullptr; it must
  /// outlive the ledger when given. `history_per_tenant` bounds the
  /// last-K attribution ring each tenant keeps for /rootcausez.
  BlameLedger(obs::Registry& registry, const telemetry::DeviceCatalog* catalog,
              std::size_t history_per_tenant);

  BlameLedger(const BlameLedger&) = delete;
  BlameLedger& operator=(const BlameLedger&) = delete;

  /// Folds one delivered alarm's attribution into the ledger. `timestamp`
  /// is the alarm head's stream timestamp, `latency_ns` the measured
  /// attribute_root_cause() cost.
  void record(const std::string& tenant,
              const detect::RootCauseAttribution& attribution,
              double timestamp, std::uint64_t model_version,
              std::uint64_t latency_ns);

  /// Attributions recorded so far.
  std::uint64_t attributions() const;

  /// The /rootcausez payloads: fleet-wide ranked blame table plus the
  /// last-K attributions per tenant. `tenant_filter` non-empty restricts
  /// the per-tenant section to that tenant (the fleet table is global
  /// either way).
  std::string to_json(std::string_view tenant_filter) const;
  std::string to_text(std::string_view tenant_filter) const;

 private:
  struct DeviceStats {
    std::uint64_t blamed = 0;  // appeared anywhere in a ranked list
    std::uint64_t rank1 = 0;   // topped a ranked list
    double score_sum = 0.0;    // over all appearances (avg = sum/blamed)
  };
  struct Record {
    double timestamp = 0.0;
    std::uint64_t model_version = 0;
    std::uint64_t latency_ns = 0;
    detect::RootCauseAttribution attribution;
  };

  std::string device_label(telemetry::DeviceId device) const;

  obs::Registry& registry_;
  const telemetry::DeviceCatalog* catalog_;
  std::size_t history_per_tenant_;
  obs::Counter* attributions_total_;
  obs::Histogram* latency_;

  mutable std::mutex mutex_;
  /// Device-id keys: iteration (and therefore exposition) order is the
  /// deterministic tie-break order.
  std::map<telemetry::DeviceId, DeviceStats> fleet_;
  std::map<std::string, std::deque<Record>> tenants_;
  /// Lazily resolved labeled counter handles, cached so the alarm path
  /// pays the registry lookup once per (tenant, device) / device.
  std::map<std::pair<std::string, telemetry::DeviceId>, obs::Counter*>
      blame_counters_;
  std::map<telemetry::DeviceId, obs::Counter*> rank1_counters_;
};

}  // namespace causaliot::serve
