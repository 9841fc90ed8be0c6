// Serve-side self-monitoring: turns the shard workers' liveness
// evidence (DetectionService::ShardProgress) into registry gauges, so
// a wedged worker or a queue pinned at its high watermark shows up on
// /metrics and /statusz. Alerting on those gauges belongs to the
// scraper: deploy/alert_rules.yml holds the stock Prometheus rules.
//
// refresh(now_ns) runs wherever the other scrape-derived gauges are
// refreshed: at the top of each /metrics and /statusz scrape and on
// each --metrics-interval snapshot. The stall detector distinguishes
// idle from stuck: a frozen heartbeat only counts as a stall while the
// shard queue is non-empty and has stayed frozen for kStallSeconds,
// which takes two refreshes at least that far apart.
//
// Exported gauges (all refreshed per scrape, never on the event path):
//   serve_watchdog_shard_heartbeat{shard}       items dequeued so far
//   serve_watchdog_shard_stalled{shard}         0 | 1
//   serve_watchdog_queue_saturation_ppm{shard}  depth/capacity * 1e6
//   serve_watchdog_stalled_shards               roll-up
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "causaliot/obs/registry.hpp"
#include "causaliot/serve/service.hpp"

namespace causaliot::serve {

class Watchdog {
 public:
  /// A non-empty queue whose worker heartbeat has not advanced for this
  /// long is a stalled shard.
  static constexpr double kStallSeconds = 5.0;

  /// Registers the serve_watchdog_* gauges on the service's registry.
  /// The service must outlive the watchdog.
  explicit Watchdog(DetectionService& service);

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// One evaluation pass: samples every shard's progress, advances the
  /// stall tracking, publishes the gauges. Safe from concurrent scrapes
  /// (serialized internally); a now_ns older than an earlier refresh's
  /// counts as no time elapsed.
  void refresh(std::uint64_t now_ns);

  /// Shards currently considered stalled (as of the last refresh).
  std::size_t stalled_shards() const;

  /// The /statusz fragment: {"stalled_shards": N, "shards": [...]}.
  std::string json(std::uint64_t now_ns) const;

 private:
  struct ShardTrack {
    std::uint64_t heartbeat = 0;
    /// When the heartbeat was last seen advancing (or first observed).
    std::uint64_t changed_ns = 0;
    std::uint64_t queue_depth = 0;
    std::uint64_t last_item_ns = 0;
    bool stalled = false;
  };

  DetectionService& service_;
  /// Guards tracks_; refresh() writes, json()/stalled_shards() read.
  mutable std::mutex mutex_;
  std::vector<ShardTrack> tracks_;
  std::vector<obs::Gauge*> heartbeat_gauges_;
  std::vector<obs::Gauge*> stalled_gauges_;
  std::vector<obs::Gauge*> saturation_gauges_;
  obs::Gauge* stalled_total_ = nullptr;
};

}  // namespace causaliot::serve
