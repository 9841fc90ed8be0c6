// Watchdog semantics over a real DetectionService: the stall detector
// (frozen heartbeat + non-empty queue, with idle explicitly not stuck),
// exact queue-saturation ppm math, the /statusz JSON fragment, and
// refreshes from concurrent scrapes, including out-of-clock-order ones.
//
// Determinism comes from an UNSTARTED service: events submitted before
// start() sit in the shard queue (depth > 0) while the worker heartbeat
// stays frozen at zero — a perfect, reproducible stall. Timestamps are
// synthetic; nothing here sleeps or races a real worker.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "causaliot/core/experiment.hpp"
#include "causaliot/serve/service.hpp"
#include "causaliot/serve/watchdog.hpp"

namespace causaliot::serve {
namespace {

constexpr std::uint64_t kSecond = 1'000'000'000ull;

class ServeWatchdogTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::HomeProfile profile = sim::contextact_profile();
    profile.days = 6.0;
    core::ExperimentConfig config;
    config.seed = 77;
    experiment_ =
        new core::Experiment(core::build_experiment(std::move(profile), config));
  }
  static void TearDownTestSuite() {
    delete experiment_;
    experiment_ = nullptr;
  }

  static std::shared_ptr<const ModelSnapshot> snapshot(std::uint64_t version) {
    const core::TrainedModel& model = experiment_->model;
    return make_snapshot(model.graph, model.score_threshold,
                         model.laplace_alpha, version);
  }

  /// A one-shard service with `queued` events parked in its queue and
  /// the worker not yet started: heartbeat 0, depth `queued`.
  static std::unique_ptr<DetectionService> parked_service(
      std::size_t queue_capacity, std::size_t queued) {
    ServiceConfig config;
    config.shard_count = 1;
    config.queue_capacity = queue_capacity;
    config.overflow = util::OverflowPolicy::kBlock;
    auto service = std::make_unique<DetectionService>(
        std::move(config), [](const ServedAlarm&) {});
    const TenantHandle home = service->add_tenant(
        "home-0", snapshot(1), experiment_->test_series.snapshot_state(0));
    EXPECT_NE(home, DetectionService::kInvalidTenant);
    for (std::size_t i = 0; i < queued; ++i) {
      EXPECT_EQ(service->submit(home, experiment_->test_runtime_events[i]),
                DetectionService::SubmitResult::kAccepted);
    }
    return service;
  }

  static core::Experiment* experiment_;
};

core::Experiment* ServeWatchdogTest::experiment_ = nullptr;

TEST_F(ServeWatchdogTest, FrozenHeartbeatWithQueuedWorkIsAStall) {
  auto service = parked_service(/*queue_capacity=*/64, /*queued=*/8);
  Watchdog watchdog(*service);  // default stall_seconds = 5

  // First observation only initializes the tracking: a watchdog that
  // boots next to an already-wedged shard must still wait out
  // stall_seconds before accusing it.
  watchdog.refresh(1 * kSecond);
  EXPECT_EQ(watchdog.stalled_shards(), 0u);

  // 4s frozen: under the bar.
  watchdog.refresh(5 * kSecond);
  EXPECT_EQ(watchdog.stalled_shards(), 0u);

  // 6s frozen with depth 8: stalled.
  watchdog.refresh(7 * kSecond);
  EXPECT_EQ(watchdog.stalled_shards(), 1u);
  obs::Registry& registry = service->registry();
  EXPECT_EQ(registry.gauge("serve_watchdog_shard_stalled", {{"shard", "0"}})
                .value(),
            1);
  EXPECT_EQ(registry.gauge("serve_watchdog_stalled_shards").value(), 1);
  EXPECT_EQ(registry.gauge("serve_watchdog_shard_heartbeat", {{"shard", "0"}})
                .value(),
            0);

  const std::string json = watchdog.json(7 * kSecond);
  EXPECT_NE(json.find("\"stalled_shards\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"stalled\": true"), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\": 8"), std::string::npos);

  // The worker comes to life and drains the queue: the very next
  // refresh sees the heartbeat advance and clears the verdict.
  service->start();
  service->shutdown();
  watchdog.refresh(8 * kSecond);
  EXPECT_EQ(watchdog.stalled_shards(), 0u);
  EXPECT_EQ(registry.gauge("serve_watchdog_shard_stalled", {{"shard", "0"}})
                .value(),
            0);
  // Every parked event was dequeued exactly once (no pre-start controls
  // ride the queue), so the heartbeat is exact.
  EXPECT_EQ(service->shard_progress(0).heartbeat, 8u);
  EXPECT_EQ(registry.gauge("serve_watchdog_shard_heartbeat", {{"shard", "0"}})
                .value(),
            8);
}

TEST_F(ServeWatchdogTest, WorkerWedgedMidBatchIsAStall) {
  // A running worker takes its whole batch off the queue before it
  // processes it. Wedged on the first of two events, its queue is empty,
  // but the backlog still counts both items in hand, so the watchdog
  // calls the shard stalled, not idle.
  ServiceConfig config;
  config.shard_count = 1;
  config.queue_capacity = 64;
  config.debug_event_delay_us = 1'000'000;
  DetectionService service(config, [](const ServedAlarm&) {});
  const TenantHandle home = service.add_tenant(
      "home-0", snapshot(1), experiment_->test_series.snapshot_state(0));
  for (std::size_t i = 0; i < 2; ++i) {  // queued before start: one batch
    ASSERT_EQ(service.submit(home, experiment_->test_runtime_events[i]),
              DetectionService::SubmitResult::kAccepted);
  }
  service.start();
  while (service.shard_progress(0).heartbeat == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const DetectionService::ShardProgress progress = service.shard_progress(0);
  EXPECT_EQ(progress.heartbeat, 1u);
  EXPECT_EQ(progress.queue_depth, 2u);
  Watchdog watchdog(service);
  watchdog.refresh(1 * kSecond);
  watchdog.refresh(7 * kSecond);
  EXPECT_EQ(watchdog.stalled_shards(), 1u);
  // The serve_queue_depth gauge reads the same backlog.
  (void)service.stats();
  EXPECT_EQ(service.registry().gauge("serve_queue_depth", {{"shard", "0"}})
                .value(),
            2);
  service.shutdown();
  EXPECT_EQ(service.shard_progress(0).queue_depth, 0u);
  EXPECT_EQ(service.stats().events_processed, 2u);
}

TEST_F(ServeWatchdogTest, IdleShardIsNeverStalled) {
  // No queued work at all: the heartbeat is frozen at zero forever, but
  // an empty queue proves nothing about the worker.
  auto service = parked_service(/*queue_capacity=*/64, /*queued=*/0);
  Watchdog watchdog(*service);
  watchdog.refresh(1 * kSecond);
  watchdog.refresh(100 * kSecond);
  watchdog.refresh(1000 * kSecond);
  EXPECT_EQ(watchdog.stalled_shards(), 0u);
  EXPECT_EQ(service->registry()
                .gauge("serve_watchdog_shard_stalled", {{"shard", "0"}})
                .value(),
            0);
}

TEST_F(ServeWatchdogTest, SaturationGaugeIsExactPartsPerMillion) {
  auto service = parked_service(/*queue_capacity=*/10, /*queued=*/5);
  Watchdog watchdog(*service);
  watchdog.refresh(1 * kSecond);
  EXPECT_EQ(service->registry()
                .gauge("serve_watchdog_queue_saturation_ppm", {{"shard", "0"}})
                .value(),
            500000);  // 5 / 10 in ppm, exactly
}

TEST_F(ServeWatchdogTest, OutOfOrderRefreshIsNoElapsedTime) {
  // Scrapes refresh from several HTTP workers, so a refresh stamped
  // earlier can land after a later one. Going back in time must not
  // read as an enormous elapsed interval on a frozen, non-empty queue.
  auto service = parked_service(/*queue_capacity=*/64, /*queued=*/8);
  Watchdog watchdog(*service);
  watchdog.refresh(10 * kSecond);
  watchdog.refresh(9 * kSecond);
  EXPECT_EQ(watchdog.stalled_shards(), 0u);
  EXPECT_EQ(service->registry().gauge("serve_watchdog_stalled_shards").value(),
            0);
}

TEST_F(ServeWatchdogTest, ConcurrentScrapeRefreshesWhileShardsRun) {
  // Every /metrics and /statusz scrape refreshes the watchdog on its own
  // HTTP worker while the shard workers run (TSan job: no data race).
  auto service = parked_service(/*queue_capacity=*/64, /*queued=*/0);
  Watchdog watchdog(*service);
  service->start();
  std::atomic<bool> stop{false};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&] {
      std::uint64_t now_ns = kSecond;
      while (!stop.load(std::memory_order_relaxed)) {
        watchdog.refresh(now_ns);
        EXPECT_FALSE(watchdog.json(now_ns).empty());
        now_ns += kSecond / 10;
      }
    });
  }
  const std::size_t events =
      std::min<std::size_t>(2000, experiment_->test_runtime_events.size());
  const TenantHandle home = 0;  // the one tenant parked_service() adds
  for (std::size_t i = 0; i < events; ++i) {
    EXPECT_EQ(service->submit(home, experiment_->test_runtime_events[i]),
              DetectionService::SubmitResult::kAccepted);
  }
  service->shutdown();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& scraper : scrapers) scraper.join();
  watchdog.refresh(1000 * kSecond);
  EXPECT_EQ(watchdog.stalled_shards(), 0u);
  EXPECT_EQ(service->shard_progress(0).heartbeat, events);
}

}  // namespace
}  // namespace causaliot::serve
