// Fleet-scale model sharing: a template is a name bound to one immutable
// ModelSnapshot, and every tenant of it holds the same pointer. The bars:
//
//   * alarm streams (scores, root-cause rankings, everything) of
//     templated tenants are bit-identical to tenants given private
//     snapshot copies, across every mined model variant (plain /
//     PC-stable skeleton x G-square / CMH) and across a mid-stream hot
//     model swap;
//   * golden fingerprints pin the plain G-square model bytes, its
//     threshold and the served alarm stream, so no storage refactor can
//     change detection without a reviewed diff;
//   * personalization (copy the graph, update_cpts, swap_model) never
//     writes the template's snapshot, even under concurrent updates;
//   * instantiate() returns the template's own snapshot, and eviction
//     frees it once the last tenant drops it;
//   * the service's dedup accounting is exact — resident bytes count
//     each distinct snapshot once, private-equivalent bytes sum every
//     tenant's, and both return to zero under churn;
//   * /statusz tenant pagination windows the fleet without losing the
//     total.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "causaliot/core/experiment.hpp"
#include "causaliot/mining/temporal_pc.hpp"
#include "causaliot/serve/service.hpp"
#include "causaliot/serve/template_registry.hpp"
#include "causaliot/util/thread_pool.hpp"

namespace causaliot::serve {
namespace {

struct AlarmLog {
  std::mutex mutex;
  std::map<std::string, std::vector<ServedAlarm>> by_tenant;

  AlarmCallback callback() {
    return [this](const ServedAlarm& alarm) {
      std::lock_guard<std::mutex> lock(mutex);
      by_tenant[alarm.tenant_name].push_back(alarm);
    };
  }
};

void expect_bit_identical(const std::vector<ServedAlarm>& got,
                          const std::vector<ServedAlarm>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].report.entries.size(), want[i].report.entries.size())
        << "alarm " << i;
    for (std::size_t e = 0; e < want[i].report.entries.size(); ++e) {
      EXPECT_EQ(got[i].report.entries[e].stream_index,
                want[i].report.entries[e].stream_index);
      EXPECT_EQ(got[i].report.entries[e].event,
                want[i].report.entries[e].event);
      // Same Cpt::probability code path over the same tables: the
      // doubles must match bitwise, not approximately.
      EXPECT_EQ(got[i].report.entries[e].score,
                want[i].report.entries[e].score);
    }
    EXPECT_EQ(got[i].model_version, want[i].model_version) << "alarm " << i;
    const auto& got_ranked = got[i].root_causes.ranked;
    const auto& want_ranked = want[i].root_causes.ranked;
    ASSERT_EQ(got_ranked.size(), want_ranked.size()) << "alarm " << i;
    for (std::size_t r = 0; r < want_ranked.size(); ++r) {
      EXPECT_EQ(got_ranked[r].device, want_ranked[r].device);
      EXPECT_EQ(got_ranked[r].score, want_ranked[r].score);  // bitwise
      EXPECT_EQ(got_ranked[r].flagged, want_ranked[r].flagged);
      EXPECT_EQ(got_ranked[r].path, want_ranked[r].path);
    }
  }
}

std::string saved_text(const graph::InteractionGraph& graph,
                       const std::string& path) {
  EXPECT_TRUE(graph.save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void wait_processed(const DetectionService& service, std::uint64_t target) {
  while (service.stats().events_processed < target) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// A tiny hand-built private model for the registry/accounting/paging
/// tests (no simulation needed).
graph::InteractionGraph small_graph(std::uint64_t salt = 0) {
  graph::InteractionGraph graph(4, 2);
  graph.set_causes(1, {{0, 1}, {1, 1}});
  graph.set_causes(2, {{1, 2}});
  graph.cpt(1).observe(graph.cpt(1).pack({0, 0}), 1);
  graph.cpt(1).observe(graph.cpt(1).pack({1, 0}), 0);
  graph.cpt(2).observe(graph.cpt(2).pack({1}), salt % 2 == 0 ? 1 : 0);
  return graph;
}

// ---------------------------------------------------------------------
// The seed-77, 6-day contextact fixture shared by the equivalence suite
// and the golden fingerprints.
// ---------------------------------------------------------------------

struct FleetFixture {
  core::Experiment experiment;
  /// v2: drift-adapted tables over the test series (structure
  /// unchanged) — the hot-swap payload.
  graph::InteractionGraph v2_graph;
};

FleetFixture build_fixture(bool stable, mining::CiTest ci_test) {
  sim::HomeProfile profile = sim::contextact_profile();
  profile.days = 6.0;
  core::ExperimentConfig config;
  config.seed = 77;  // same home as test_serve: known to alarm
  config.pipeline.pc_stable = stable;
  config.pipeline.use_cmh_test = ci_test == mining::CiTest::kCmh;
  FleetFixture out{core::build_experiment(std::move(profile), config), {}};
  out.v2_graph = out.experiment.model.graph;
  mining::MinerConfig miner_config;
  miner_config.max_lag = 2;
  mining::InteractionMiner(miner_config)
      .update_cpts(out.experiment.test_series, out.v2_graph,
                   /*forget_factor=*/0.5);
  return out;
}

struct FleetRun {
  std::map<std::string, std::vector<ServedAlarm>> alarms;
  /// Model accounting with both tenants on v1, and after t0's swap.
  DetectionService::ModelStats mid;
  DetectionService::ModelStats end;
};

/// Serves the test stream to tenants t0 and t1, each added by
/// `v1(service, name, state)`, and hot-swaps t0 to `v2()` at the
/// stream's midpoint.
/// The quiescence point before the swap makes the adoption boundary —
/// and so the alarm stream — deterministic and comparable across runs.
template <typename V1, typename V2>
FleetRun run_fleet(const FleetFixture& fixture, TemplateRegistry* registry,
                   V1 v1, V2 v2) {
  const auto& events = fixture.experiment.test_runtime_events;
  const std::vector<std::uint8_t> initial_state =
      fixture.experiment.test_series.snapshot_state(0);
  AlarmLog log;
  ServiceConfig service_config;
  service_config.shard_count = 2;
  service_config.queue_capacity = 256;
  service_config.session.k_max = 3;
  service_config.templates = registry;
  DetectionService service(service_config, log.callback());
  std::vector<TenantHandle> handles;
  for (const char* name : {"t0", "t1"}) {
    handles.push_back(v1(service, name, initial_state));
    EXPECT_NE(handles.back(), DetectionService::kInvalidTenant);
  }
  service.start();

  FleetRun out;
  const std::size_t half = events.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    for (const TenantHandle handle : handles) {
      EXPECT_EQ(service.submit(handle, events[i]),
                DetectionService::SubmitResult::kAccepted);
    }
  }
  wait_processed(service, 2 * half);
  out.mid = service.model_stats();
  service.swap_model(handles[0], v2());
  for (std::size_t i = half; i < events.size(); ++i) {
    for (const TenantHandle handle : handles) {
      EXPECT_EQ(service.submit(handle, events[i]),
                DetectionService::SubmitResult::kAccepted);
    }
  }
  out.end = service.model_stats();
  service.shutdown();
  out.alarms = std::move(log.by_tenant);
  return out;
}

/// The production shape: both tenants added by template name, t0
/// swapped to the "v2" template's snapshot.
FleetRun run_templated(const FleetFixture& fixture) {
  const core::TrainedModel& model = fixture.experiment.model;
  TemplateRegistry registry;
  EXPECT_NE(registry.publish("v1", model.graph, model.score_threshold,
                             model.laplace_alpha, /*version=*/1),
            nullptr);
  const auto v2 = registry.publish("v2", fixture.v2_graph,
                                   model.score_threshold, model.laplace_alpha,
                                   /*version=*/2);
  EXPECT_NE(v2, nullptr);
  return run_fleet(
      fixture, &registry,
      [](DetectionService& service, const char* name,
         const std::vector<std::uint8_t>& state) {
        return service.add_tenant(name, "v1", state);
      },
      [&] { return instantiate(*v2); });
}

std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash = 14695981039346656037ull) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t fnv1a_u64(std::uint64_t value, std::uint64_t hash) {
  unsigned char bytes[8];
  for (unsigned char& byte : bytes) {
    byte = static_cast<unsigned char>(value & 0xff);
    value >>= 8;
  }
  return fnv1a(bytes, sizeof bytes, hash);
}

// ---------------------------------------------------------------------
// Golden fingerprints (plain G-square): any change to the trained model
// bytes, its threshold or the served alarm stream fails here and must
// come with a reviewed update of these constants.
// ---------------------------------------------------------------------

TEST(GoldenFingerprint, PlainGSquareModelAndServedAlarms) {
  const FleetFixture fixture =
      build_fixture(/*stable=*/false, mining::CiTest::kGSquare);
  const core::TrainedModel& model = fixture.experiment.model;

  const std::string dig = saved_text(
      model.graph, ::testing::TempDir() + "golden_model.dig");
  char threshold[64];
  std::snprintf(threshold, sizeof threshold, "%.17g", model.score_threshold);
  const std::uint64_t model_hash = fnv1a(
      threshold, std::strlen(threshold), fnv1a(dig.data(), dig.size()));
  EXPECT_EQ(model_hash, 0x850a89704c0f94e4ull) << std::hex << model_hash;

  const FleetRun run = run_templated(fixture);
  std::uint64_t alarm_hash = fnv1a(nullptr, 0);
  std::size_t entries = 0;
  for (const auto& [tenant, alarms] : run.alarms) {
    alarm_hash = fnv1a(tenant.data(), tenant.size(), alarm_hash);
    for (const ServedAlarm& alarm : alarms) {
      for (const detect::AnomalyEntry& entry : alarm.report.entries) {
        std::uint64_t score_bits = 0;
        std::memcpy(&score_bits, &entry.score, sizeof score_bits);
        alarm_hash = fnv1a_u64(entry.stream_index, alarm_hash);
        alarm_hash = fnv1a_u64(entry.event.device, alarm_hash);
        alarm_hash = fnv1a_u64(entry.event.state, alarm_hash);
        alarm_hash = fnv1a_u64(score_bits, alarm_hash);
        ++entries;
      }
    }
  }
  EXPECT_GT(entries, 0u);
  EXPECT_EQ(alarm_hash, 0xa8b1945ffdefaeeeull) << std::hex << alarm_hash;
}

// ---------------------------------------------------------------------
// Alarm equivalence: templated tenants vs private snapshot copies, per
// mined-model variant, with a mid-stream hot swap to a personalized
// (update_cpts) v2 model.
// ---------------------------------------------------------------------

class TemplateAlarmEquivalence
    : public ::testing::TestWithParam<std::tuple<bool, mining::CiTest>> {};

TEST_P(TemplateAlarmEquivalence, SharedMatchesPrivateAcrossHotSwap) {
  const auto [stable, ci_test] = GetParam();
  const FleetFixture fixture = build_fixture(stable, ci_test);
  const core::TrainedModel& model = fixture.experiment.model;

  const FleetRun templated = run_templated(fixture);
  // Oracle: every tenant gets its own snapshot of a graph copy.
  const FleetRun copies = run_fleet(
      fixture, nullptr,
      [&](DetectionService& service, const char* name,
          const std::vector<std::uint8_t>& state) {
        return service.add_tenant(
            name,
            make_snapshot(model.graph, model.score_threshold,
                          model.laplace_alpha, /*version=*/1),
            state);
      },
      [&] {
        return make_snapshot(fixture.v2_graph, model.score_threshold,
                             model.laplace_alpha, /*version=*/2);
      });

  auto& want = copies.alarms;
  auto& got = templated.alarms;
  ASSERT_TRUE(want.contains("t0"));  // the bar is meaningful
  ASSERT_TRUE(got.contains("t0"));
  expect_bit_identical(got.at("t0"), want.at("t0"));
  ASSERT_EQ(got.contains("t1"), want.contains("t1"));
  if (want.contains("t1")) expect_bit_identical(got.at("t1"), want.at("t1"));

  // Sharing showed up in the accounting: two tenants on one template
  // pay for one snapshot; after the swap splits them across templates
  // nothing is shared. Private copies pay full price throughout.
  EXPECT_DOUBLE_EQ(templated.mid.dedup_ratio, 2.0);
  EXPECT_EQ(templated.mid.private_equivalent_bytes,
            2 * templated.mid.resident_bytes);
  EXPECT_EQ(templated.end.resident_bytes,
            templated.end.private_equivalent_bytes);
  EXPECT_DOUBLE_EQ(copies.mid.dedup_ratio, 1.0);
  EXPECT_EQ(copies.end.resident_bytes, copies.end.private_equivalent_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, TemplateAlarmEquivalence,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(mining::CiTest::kGSquare,
                                         mining::CiTest::kCmh)),
    [](const ::testing::TestParamInfo<std::tuple<bool, mining::CiTest>>&
           info) {
      return std::string(std::get<0>(info.param) ? "Stable" : "Plain") +
             (std::get<1>(info.param) == mining::CiTest::kCmh ? "Cmh"
                                                              : "GSquare");
    });

// ---------------------------------------------------------------------
// Personalization: concurrent update_cpts on copies, then swap_model.
// ---------------------------------------------------------------------

TEST(TemplatePersonalization, ConcurrentUpdateCptsNeverWritesTheTemplate) {
  sim::HomeProfile profile = sim::contextact_profile();
  profile.days = 4.0;
  core::ExperimentConfig config;
  config.seed = 77;
  const core::Experiment experiment =
      core::build_experiment(std::move(profile), config);
  const core::TrainedModel& model = experiment.model;

  TemplateRegistry registry;
  const auto tpl = registry.publish("t", model.graph, model.score_threshold,
                                    model.laplace_alpha, 1);
  ASSERT_NE(tpl, nullptr);
  const std::string base_text =
      saved_text(model.graph, ::testing::TempDir() + "tpl_base.dig");
  ServiceConfig service_config;
  service_config.templates = &registry;
  DetectionService service(service_config, nullptr);
  const TenantHandle a = service.add_tenant("a", "t");
  const TenantHandle b = service.add_tenant("b", "t");
  ASSERT_NE(a, DetectionService::kInvalidTenant);
  ASSERT_NE(b, DetectionService::kInvalidTenant);

  // Two tenants personalize copies of the shared graph concurrently
  // with different forget factors; each update_cpts also parallelizes
  // internally across children.
  graph::InteractionGraph tenant_a = instantiate(*tpl)->graph;
  graph::InteractionGraph tenant_b = instantiate(*tpl)->graph;
  mining::MinerConfig miner_config;
  miner_config.max_lag = 2;
  const mining::InteractionMiner miner(miner_config);
  std::thread update_a([&] {
    util::ThreadPool pool(4);
    miner.update_cpts(experiment.test_series, tenant_a, 0.5, &pool);
  });
  std::thread update_b([&] {
    util::ThreadPool pool(4);
    miner.update_cpts(experiment.test_series, tenant_b, 0.9, &pool);
  });
  update_a.join();
  update_b.join();

  // The tables match a serial update of a private copy bit for bit.
  graph::InteractionGraph private_a = model.graph;
  miner.update_cpts(experiment.test_series, private_a, 0.5);
  graph::InteractionGraph private_b = model.graph;
  miner.update_cpts(experiment.test_series, private_b, 0.9);
  EXPECT_EQ(saved_text(tenant_a, ::testing::TempDir() + "tenant_a.dig"),
            saved_text(private_a, ::testing::TempDir() + "private_a.dig"));
  EXPECT_EQ(saved_text(tenant_b, ::testing::TempDir() + "tenant_b.dig"),
            saved_text(private_b, ::testing::TempDir() + "private_b.dig"));
  // Different forget factors diverged — the copies are really separate.
  EXPECT_NE(saved_text(tenant_a, ::testing::TempDir() + "tenant_a2.dig"),
            saved_text(tenant_b, ::testing::TempDir() + "tenant_b2.dig"));

  // Rolling the personalized models out re-bills each tenant for its
  // own snapshot; the template's snapshot is untouched and unbilled.
  const auto snapshot_a = make_snapshot(std::move(tenant_a), 0.9, 0.1, 2);
  const auto snapshot_b = make_snapshot(std::move(tenant_b), 0.9, 0.1, 2);
  service.swap_model(a, snapshot_a);
  service.swap_model(b, snapshot_b);
  const DetectionService::ModelStats stats = service.model_stats();
  EXPECT_EQ(stats.resident_bytes, snapshot_a->graph.approx_bytes() +
                                      snapshot_b->graph.approx_bytes());
  EXPECT_EQ(stats.resident_bytes, stats.private_equivalent_bytes);
  EXPECT_EQ(saved_text(instantiate(*tpl)->graph,
                       ::testing::TempDir() + "untouched.dig"),
            base_text);
  service.shutdown();
}

// ---------------------------------------------------------------------
// Registry: one snapshot per template, freed on eviction.
// ---------------------------------------------------------------------

TEST(TemplateRegistryTest, OneSnapshotPerTemplateFreedOnEviction) {
  TemplateRegistry registry;
  auto a = registry.publish("a", small_graph(0), 0.9, 0.1, 1);
  auto b = registry.publish("b", small_graph(2), 0.8, 0.1, 2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(registry.template_count(), 2u);

  // Every instantiation of one template is the same snapshot, carrying
  // the published threshold, smoothing and version.
  std::shared_ptr<const ModelSnapshot> survivor = instantiate(*a);
  EXPECT_EQ(survivor, instantiate(*a));
  EXPECT_EQ(survivor, instantiate(*registry.find("a")));
  EXPECT_NE(survivor, instantiate(*b));
  EXPECT_DOUBLE_EQ(survivor->score_threshold, 0.9);
  EXPECT_DOUBLE_EQ(survivor->laplace_alpha, 0.1);
  EXPECT_EQ(survivor->version, 1u);

  // Name collisions are refused, not overwritten.
  EXPECT_EQ(registry.publish("a", small_graph(0), 0.5, 0.1, 9), nullptr);
  EXPECT_EQ(registry.template_count(), 2u);
  EXPECT_EQ(instantiate(*registry.find("a")), survivor);

  // A live tenant keeps serving across eviction of its template...
  const std::weak_ptr<const ModelSnapshot> weak_a = survivor;
  EXPECT_TRUE(registry.evict("a"));
  EXPECT_FALSE(registry.evict("a"));  // already gone
  EXPECT_EQ(registry.find("a"), nullptr);
  EXPECT_EQ(registry.template_count(), 1u);
  a.reset();
  EXPECT_FALSE(weak_a.expired());
  EXPECT_EQ(survivor->graph.edge_count(), 3u);

  // ...and the snapshot frees once the last reference drops.
  survivor.reset();
  EXPECT_TRUE(weak_a.expired());
  const std::weak_ptr<const ModelSnapshot> weak_b = instantiate(*b);
  EXPECT_TRUE(registry.evict("b"));
  EXPECT_FALSE(weak_b.expired());  // this test's `b` still pins it
  b.reset();
  EXPECT_TRUE(weak_b.expired());
}

// ---------------------------------------------------------------------
// Dedup accounting: exact per-snapshot math, conservation under churn.
// ---------------------------------------------------------------------

TEST(TemplateAccounting, ResidentBytesAreExactAndConserveUnderChurn) {
  TemplateRegistry registry;
  const auto tpl = registry.publish("t", small_graph(), 0.9, 0.1, 1);
  ASSERT_NE(tpl, nullptr);

  ServiceConfig config;
  config.templates = &registry;
  DetectionService service(config, nullptr);
  constexpr std::size_t kFleet = 8;
  std::vector<TenantHandle> handles;
  for (std::size_t i = 0; i < kFleet; ++i) {
    handles.push_back(
        service.add_tenant("home-" + std::to_string(i), "t"));
    ASSERT_NE(handles.back(), DetectionService::kInvalidTenant);
  }

  // The fleet pays for one model; a private copy per tenant would pay
  // kFleet of them.
  const std::size_t one = instantiate(*tpl)->graph.approx_bytes();
  ASSERT_GT(one, 0u);
  const DetectionService::ModelStats stats = service.model_stats();
  EXPECT_EQ(stats.templates, 1u);
  EXPECT_EQ(stats.resident_bytes, one);
  EXPECT_EQ(stats.private_equivalent_bytes, kFleet * one);
  EXPECT_DOUBLE_EQ(stats.dedup_ratio, static_cast<double>(kFleet));

  // Unknown template and duplicate name are both refused.
  EXPECT_EQ(service.add_tenant("home-x", "missing"),
            DetectionService::kInvalidTenant);
  EXPECT_EQ(service.add_tenant("home-0", "t"),
            DetectionService::kInvalidTenant);

  // Churn re-bills exactly: removing half halves the equivalent bytes
  // while the shared snapshot stays resident; removing all zeroes both.
  for (std::size_t i = 0; i < kFleet / 2; ++i) {
    ASSERT_TRUE(service.remove_tenant(handles[i]));
  }
  const DetectionService::ModelStats half = service.model_stats();
  EXPECT_EQ(half.resident_bytes, one);
  EXPECT_EQ(half.private_equivalent_bytes, (kFleet / 2) * one);
  for (std::size_t i = kFleet / 2; i < kFleet; ++i) {
    ASSERT_TRUE(service.remove_tenant(handles[i]));
  }
  const DetectionService::ModelStats empty = service.model_stats();
  EXPECT_EQ(empty.resident_bytes, 0u);
  EXPECT_EQ(empty.private_equivalent_bytes, 0u);
  EXPECT_DOUBLE_EQ(empty.dedup_ratio, 1.0);
  service.shutdown();
}

TEST(TemplateAccounting, SwapRebillsPrivateCopiesAndSharedSnapshots) {
  TemplateRegistry registry;
  const auto tpl = registry.publish("t", small_graph(), 0.9, 0.1, 1);
  ASSERT_NE(tpl, nullptr);
  const std::shared_ptr<const ModelSnapshot> shared = instantiate(*tpl);

  ServiceConfig config;
  config.templates = &registry;
  DetectionService service(config, nullptr);
  const TenantHandle t0 = service.add_tenant("a", "t");
  const TenantHandle t1 = service.add_tenant("b", "t");
  ASSERT_NE(t0, DetectionService::kInvalidTenant);
  ASSERT_NE(t1, DetectionService::kInvalidTenant);
  EXPECT_DOUBLE_EQ(service.model_stats().dedup_ratio, 2.0);

  // Swapping both tenants to private copies bills each copy in full.
  const auto copy0 = make_snapshot(shared->graph, 0.9, 0.1, 2);
  const auto copy1 = make_snapshot(shared->graph, 0.9, 0.1, 2);
  service.swap_model(t0, copy0);
  service.swap_model(t1, copy1);
  const DetectionService::ModelStats copies = service.model_stats();
  EXPECT_EQ(copies.resident_bytes,
            copy0->graph.approx_bytes() + copy1->graph.approx_bytes());
  EXPECT_EQ(copies.resident_bytes, copies.private_equivalent_bytes);
  EXPECT_DOUBLE_EQ(copies.dedup_ratio, 1.0);

  // Swapping both back onto the template bills its snapshot once.
  service.swap_model(t0, instantiate(*tpl));
  service.swap_model(t1, instantiate(*tpl));
  const DetectionService::ModelStats back = service.model_stats();
  EXPECT_EQ(back.resident_bytes, shared->graph.approx_bytes());
  EXPECT_EQ(back.private_equivalent_bytes, 2 * back.resident_bytes);
  service.shutdown();
}

// ---------------------------------------------------------------------
// /statusz tenant pagination.
// ---------------------------------------------------------------------

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(StatusPagination, WindowsTenantsAndReportsTotal) {
  TemplateRegistry registry;
  ASSERT_NE(registry.publish("t", small_graph(), 0.9, 0.1, 1), nullptr);
  ServiceConfig config;
  config.templates = &registry;
  DetectionService service(config, nullptr);
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_NE(service.add_tenant("home-" + std::to_string(i), "t"),
              DetectionService::kInvalidTenant);
  }

  // Default window covers a small fleet entirely.
  const std::string full = service.status_json();
  EXPECT_EQ(count_occurrences(full, "{\"name\": \"home-"), 5u);
  EXPECT_NE(full.find("\"tenant_window\": {\"offset\": 0, \"limit\": 100, "
                      "\"total\": 5}"),
            std::string::npos);
  EXPECT_NE(full.find("\"models\": {\"templates\": 1"), std::string::npos);

  // An interior window: exactly the requested slice, total unchanged.
  const std::string page = service.status_json(2, 2);
  EXPECT_EQ(count_occurrences(page, "{\"name\": \"home-"), 2u);
  EXPECT_NE(page.find("\"name\": \"home-2\""), std::string::npos);
  EXPECT_NE(page.find("\"name\": \"home-3\""), std::string::npos);
  EXPECT_NE(page.find("\"tenant_window\": {\"offset\": 2, \"limit\": 2, "
                      "\"total\": 5}"),
            std::string::npos);

  // Past the end: empty slice, total still reported.
  const std::string past = service.status_json(10, 5);
  EXPECT_EQ(count_occurrences(past, "{\"name\": \"home-"), 0u);
  EXPECT_NE(past.find("\"total\": 5"), std::string::npos);
  service.shutdown();
}

}  // namespace
}  // namespace causaliot::serve
