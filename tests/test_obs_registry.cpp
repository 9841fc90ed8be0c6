// Registry semantics: instance identity under label reordering, exact
// concurrent counting through registry-resolved handles, and both
// serializations — including the Prometheus label-escaping round-trip.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "causaliot/obs/registry.hpp"

namespace causaliot::obs {
namespace {

TEST(ObsRegistry, SameLabelsAnyOrderNameTheSameInstance) {
  Registry registry;
  Counter& a = registry.counter("requests_total",
                                {{"method", "get"}, {"code", "200"}});
  Counter& b = registry.counter("requests_total",
                                {{"code", "200"}, {"method", "get"}});
  EXPECT_EQ(&a, &b);
  Counter& c = registry.counter("requests_total",
                                {{"code", "500"}, {"method", "get"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(registry.family_count(), 1u);
}

TEST(ObsRegistry, RepeatedLookupReturnsStableReference) {
  Registry registry;
  Gauge& first = registry.gauge("depth");
  first.set(7);
  EXPECT_EQ(registry.gauge("depth").value(), 7);
  EXPECT_EQ(&registry.gauge("depth"), &first);
}

TEST(ObsRegistry, DuplicateLabelKeysAreRejected) {
  Registry registry;
  EXPECT_DEATH(registry.counter("dup_total", {{"k", "a"}, {"k", "b"}}),
               "duplicate label key");
}

TEST(ObsRegistry, ConcurrentIncrementsSumExactly) {
  Registry registry;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // Resolve once (the intended hot-path discipline), then hammer.
      Counter& counter = registry.counter("hits_total", {{"worker", "w"}});
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.counter("hits_total", {{"worker", "w"}}).value(),
            kThreads * kPerThread);
}

// Inverse of the exposition escaping; a fixpoint check that every escaped
// byte maps back to the original label value.
std::string prometheus_unescape(const std::string& text) {
  std::string out;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) {
      const char next = text[++i];
      out += next == 'n' ? '\n' : next;
    } else {
      out += text[i];
    }
  }
  return out;
}

TEST(ObsRegistry, PrometheusLabelEscapingRoundTrips) {
  Registry registry;
  const std::string nasty = "a\\b\"c\nd";
  registry.counter("escaped_total", {{"tenant", nasty}}, "escape probe")
      .add(3);
  const std::string prom = registry.to_prometheus();
  const std::string expected =
      "escaped_total{tenant=\"a\\\\b\\\"c\\nd\"} 3\n";
  ASSERT_NE(prom.find(expected), std::string::npos) << prom;

  // Round trip: the escaped value decodes back to the original.
  const std::size_t open = prom.find("tenant=\"") + 8;
  const std::size_t close = prom.find("\"}", open);
  EXPECT_EQ(prometheus_unescape(prom.substr(open, close - open)), nasty);
}

TEST(ObsRegistry, PrometheusExposesHelpTypeAndSummaries) {
  Registry registry;
  registry.counter("events_total", {}, "Total events").add(5);
  registry.gauge("depth", {{"shard", "0"}}, "Queue depth").set(-2);
  Histogram& histogram =
      registry.histogram("latency_ns", {}, "Latency distribution");
  histogram.record(100);
  histogram.record(200);

  const std::string prom = registry.to_prometheus();
  EXPECT_NE(prom.find("# HELP events_total Total events\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE events_total counter\n"), std::string::npos);
  EXPECT_NE(prom.find("events_total 5\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE depth gauge\n"), std::string::npos);
  EXPECT_NE(prom.find("depth{shard=\"0\"} -2\n"), std::string::npos);
  // Histograms surface as summaries: quantile samples plus _sum/_count.
  EXPECT_NE(prom.find("# TYPE latency_ns summary\n"), std::string::npos);
  EXPECT_NE(prom.find("latency_ns{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(prom.find("latency_ns{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(prom.find("latency_ns_sum 300\n"), std::string::npos);
  EXPECT_NE(prom.find("latency_ns_count 2\n"), std::string::npos);
}

TEST(ObsRegistry, JsonSnapshotCarriesEveryKind) {
  Registry registry;
  registry.counter("a_total").add(1);
  registry.gauge("b_level").set(2);
  registry.histogram("c_ns").record(9);
  const std::string json = registry.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("{\"name\": \"a_total\", \"labels\": {}, \"kind\": "
                      "\"counter\", \"value\": 1}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"b_level\", \"labels\": {}, \"kind\": "
                      "\"gauge\", \"value\": 2}"),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"histogram\", \"count\": 1, \"sum\": 9"),
            std::string::npos);
}

TEST(ObsRegistry, ExportOrderIsDeterministicAcrossRegistrationOrder) {
  // The exposition order — families sorted by name, instances sorted by
  // label vector — is a documented contract (registry.hpp): dashboards
  // diff /metrics payloads, the JSONL metrics log is compared across
  // runs, and visit_scalars() walks the same order. Two registries fed the same metrics in opposite
  // orders must serialize byte-identically.
  const auto populate = [](Registry& registry, bool reversed) {
    const std::vector<std::pair<std::string, std::string>> instances = {
        {"zeta_total", "1"}, {"alpha_total", "0"}, {"mid_total", "2"},
        {"alpha_total", "2"}, {"mid_total", "0"}, {"zeta_total", "0"},
    };
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const auto& [name, shard] =
          instances[reversed ? instances.size() - 1 - i : i];
      registry.counter(name, {{"shard", shard}}).add(7);
    }
    registry.gauge(reversed ? "b_level" : "a_level").set(1);
    registry.gauge(reversed ? "a_level" : "b_level").set(1);
  };
  Registry forward;
  Registry backward;
  populate(forward, false);
  populate(backward, true);
  EXPECT_EQ(forward.to_json(), backward.to_json());
  EXPECT_EQ(forward.to_prometheus(), backward.to_prometheus());

  // And the order really is sorted, not merely consistent.
  const std::string json = forward.to_json();
  EXPECT_LT(json.find("a_level"), json.find("alpha_total"));
  EXPECT_LT(json.find("alpha_total"), json.find("b_level"));
  EXPECT_LT(json.find("b_level"), json.find("mid_total"));
  EXPECT_LT(json.find("mid_total"), json.find("zeta_total"));
  const std::size_t alpha0 = json.find("\"alpha_total\"");
  const std::size_t alpha2 = json.find("\"alpha_total\"", alpha0 + 1);
  ASSERT_NE(alpha2, std::string::npos);
  EXPECT_LT(json.find("\"shard\": \"0\"", alpha0),
            json.find("\"shard\": \"2\"", alpha0));

  // visit_scalars() walks the identical order, so readers that walk
  // the registry see it as deterministically as the exports.
  std::vector<std::string> visited;
  forward.visit_scalars([&](const std::string& name, const Labels& labels,
                            MetricKind, double) {
    std::string key = name;
    for (const auto& [k, v] : labels) key += "{" + k + "=" + v + "}";
    visited.push_back(std::move(key));
  });
  const std::vector<std::string> expected = {
      "a_level",
      "alpha_total{shard=0}",
      "alpha_total{shard=2}",
      "b_level",
      "mid_total{shard=0}",
      "mid_total{shard=2}",
      "zeta_total{shard=0}",
      "zeta_total{shard=1}",
  };
  EXPECT_EQ(visited, expected);
}

TEST(ObsRegistry, GlobalRegistryIsAProcessSingleton) {
  EXPECT_EQ(&Registry::global(), &Registry::global());
}

TEST(ObsRegistry, ResetForTestDropsEveryFamily) {
  Registry registry;
  registry.counter("a_total").add(3);
  registry.gauge("b_level", {{"shard", "0"}}).set(1);
  ASSERT_EQ(registry.family_count(), 2u);

  registry.reset_for_test();
  EXPECT_EQ(registry.family_count(), 0u);
  // Re-registering after a reset starts from zero, so suites sharing a
  // registry (in particular Registry::global()) can assert exact values.
  EXPECT_EQ(registry.counter("a_total").value(), 0u);
}

}  // namespace
}  // namespace causaliot::obs
