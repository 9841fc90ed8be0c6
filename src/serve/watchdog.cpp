#include "causaliot/serve/watchdog.hpp"

#include <cinttypes>

#include "causaliot/util/strings.hpp"

namespace causaliot::serve {

Watchdog::Watchdog(DetectionService& service) : service_(service) {
  obs::Registry& registry = service_.registry();
  const std::size_t shards = service_.shard_count();
  tracks_.resize(shards);
  heartbeat_gauges_.reserve(shards);
  stalled_gauges_.reserve(shards);
  saturation_gauges_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    const std::string label = std::to_string(i);
    heartbeat_gauges_.push_back(&registry.gauge(
        "serve_watchdog_shard_heartbeat", {{"shard", label}},
        "Items the shard worker has dequeued (events + controls)"));
    stalled_gauges_.push_back(&registry.gauge(
        "serve_watchdog_shard_stalled", {{"shard", label}},
        "1 while the shard has queued work but a frozen heartbeat"));
    saturation_gauges_.push_back(&registry.gauge(
        "serve_watchdog_queue_saturation_ppm", {{"shard", label}},
        "Shard queue occupancy in parts-per-million of capacity"));
  }
  stalled_total_ = &registry.gauge("serve_watchdog_stalled_shards", {},
                                   "Shards currently considered stalled");
}

void Watchdog::refresh(std::uint64_t now_ns) {
  const double capacity = static_cast<double>(service_.queue_capacity());
  constexpr auto stall_ns = static_cast<std::uint64_t>(kStallSeconds * 1e9);
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t stalled_total = 0;
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    const DetectionService::ShardProgress progress =
        service_.shard_progress(i);
    ShardTrack& track = tracks_[i];
    if (track.changed_ns == 0 || progress.heartbeat != track.heartbeat) {
      track.heartbeat = progress.heartbeat;
      track.changed_ns = now_ns;
      track.stalled = false;
    } else if (progress.queue_depth > 0 && now_ns > track.changed_ns &&
               now_ns - track.changed_ns >= stall_ns) {
      // Concurrent scrapes can deliver an older now_ns after a newer
      // one; the guard keeps that from wrapping into a huge elapsed.
      track.stalled = true;
    } else if (progress.queue_depth == 0) {
      // Idle, not stuck: nothing to dequeue proves nothing about the
      // worker, so never hold a stall verdict against an empty queue.
      track.stalled = false;
    }
    track.queue_depth = progress.queue_depth;
    track.last_item_ns = progress.last_item_ns;
    if (track.stalled) ++stalled_total;

    heartbeat_gauges_[i]->set(
        static_cast<std::int64_t>(progress.heartbeat));
    stalled_gauges_[i]->set(track.stalled ? 1 : 0);
    const double saturation =
        capacity > 0.0
            ? static_cast<double>(progress.queue_depth) / capacity
            : 0.0;
    saturation_gauges_[i]->set(static_cast<std::int64_t>(saturation * 1e6));
  }
  stalled_total_->set(stalled_total);
}

std::size_t Watchdog::stalled_shards() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t out = 0;
  for (const ShardTrack& track : tracks_) {
    if (track.stalled) ++out;
  }
  return out;
}

std::string Watchdog::json(std::uint64_t now_ns) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t stalled_total = 0;
  for (const ShardTrack& track : tracks_) {
    if (track.stalled) ++stalled_total;
  }
  std::string out =
      util::format("{\"stalled_shards\": %zu, \"stall_seconds\": %.1f, "
                   "\"shards\": [",
                   stalled_total, kStallSeconds);
  const std::size_t capacity = service_.queue_capacity();
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    const ShardTrack& track = tracks_[i];
    if (i != 0) out += ", ";
    const double last_item_age_seconds =
        track.last_item_ns != 0 && now_ns > track.last_item_ns
            ? static_cast<double>(now_ns - track.last_item_ns) / 1e9
            : 0.0;
    out += util::format(
        "{\"shard\": %zu, \"heartbeat\": %" PRIu64
        ", \"queue_depth\": %" PRIu64 ", \"queue_capacity\": %zu, "
        "\"stalled\": %s, \"last_item_age_seconds\": %.3f}",
        i, track.heartbeat, track.queue_depth, capacity,
        track.stalled ? "true" : "false", last_item_age_seconds);
  }
  out += "]}";
  return out;
}

}  // namespace causaliot::serve
