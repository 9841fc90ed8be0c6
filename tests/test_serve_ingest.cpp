// The ingestion plane's protocol core: the flat-JSONL scanner, the
// shared IngestRouter (outcomes + rejection counters + control verbs),
// the HTTP ingest/tenant routes, and a raw-TCP end-to-end through
// net::LineProtocolServer — one line handler behind every transport.
#include "causaliot/serve/ingest.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <thread>
#include <string>
#include <vector>

#include "causaliot/core/experiment.hpp"
#include "causaliot/net/line_server.hpp"
#include "causaliot/obs/http_server.hpp"
#include "causaliot/util/batch_scope.hpp"
#include "causaliot/util/strings.hpp"

namespace causaliot::serve {
namespace {

// --- scanner units (no service needed) ---

TEST(ScanIngestLine, ParsesFullEventLine) {
  IngestFields fields;
  ASSERT_TRUE(scan_ingest_line(
      R"({"tenant": "home-0", "device": "pe_kitchen", "value": 1, )"
      R"("timestamp": 12.5})",
      fields));
  EXPECT_EQ(fields.tenant, "home-0");
  EXPECT_EQ(fields.device, "pe_kitchen");
  EXPECT_EQ(fields.value, 1.0);
  EXPECT_EQ(fields.timestamp, 12.5);
  EXPECT_FALSE(fields.has_op);
}

TEST(ScanIngestLine, ParsesControlLineAndUnknownKeys) {
  IngestFields fields;
  ASSERT_TRUE(scan_ingest_line(
      R"({"op": "add_tenant", "tenant": "t", "note": "hi", "n": 3, )"
      R"("flag": true})",
      fields));
  EXPECT_TRUE(fields.has_op);
  EXPECT_EQ(fields.op, "add_tenant");
  EXPECT_EQ(fields.tenant, "t");
}

TEST(ScanIngestLine, ToleratesWhitespaceAndCrlf) {
  IngestFields fields;
  EXPECT_TRUE(scan_ingest_line(
      "  { \"device\" : \"d\" , \"value\" : 0 , \"timestamp\" : 1e3 }\r",
      fields));
  EXPECT_EQ(fields.timestamp, 1000.0);
  IngestFields empty;
  EXPECT_TRUE(scan_ingest_line("{}", empty));
  EXPECT_FALSE(empty.has_device);
}

TEST(ScanIngestLine, RejectsMalformedLines) {
  IngestFields fields;
  EXPECT_FALSE(scan_ingest_line("not json", fields));
  EXPECT_FALSE(scan_ingest_line("{\"device\": }", fields));
  EXPECT_FALSE(scan_ingest_line("{\"device\": \"d\"", fields));  // no brace
  EXPECT_FALSE(scan_ingest_line("{\"value\": \"str\"}", fields));
  EXPECT_FALSE(scan_ingest_line("{\"device\": \"a\\\"b\"}", fields));
  EXPECT_FALSE(scan_ingest_line("{\"a\": 1} trailing", fields));
  EXPECT_FALSE(scan_ingest_line("{\"a\": {\"nested\": 1}}", fields));
}

TEST(ScanIngestLine, RejectsNonFiniteNumbers) {
  // std::from_chars reads these; JSON has no such numbers and no sensor
  // reading or timestamp may be one.
  for (const char* number : {"nan", "NaN", "inf", "-inf", "infinity",
                             "-Infinity", "1e999"}) {
    for (const char* key : {"value", "timestamp", "other"}) {
      IngestFields fields;
      const std::string line =
          std::string("{\"") + key + "\": " + number + "}";
      EXPECT_FALSE(scan_ingest_line(line, fields)) << line;
    }
  }
}

// --- router + transports over a real service ---

class IngestTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::HomeProfile profile = sim::contextact_profile();
    profile.days = 4.0;
    core::ExperimentConfig config;
    config.seed = 99;
    experiment_ = new core::Experiment(
        core::build_experiment(std::move(profile), config));
  }
  static void TearDownTestSuite() {
    delete experiment_;
    experiment_ = nullptr;
  }

  /// Service (2 shards, kReject unless given) + router with "base"
  /// preregistered and a default tenant. Returns after start().
  struct Plane {
    std::unique_ptr<DetectionService> service;
    std::unique_ptr<IngestRouter> router;
  };
  static Plane make_plane(
      std::size_t queue_capacity = 4096,
      util::OverflowPolicy overflow = util::OverflowPolicy::kReject) {
    const core::TrainedModel& model = experiment_->model;
    auto snapshot = make_snapshot(model.graph, model.score_threshold,
                                  model.laplace_alpha, /*version=*/1);
    ServiceConfig config;
    config.shard_count = 2;
    config.queue_capacity = queue_capacity;
    config.overflow = overflow;
    Plane plane;
    plane.service = std::make_unique<DetectionService>(
        config, [](const ServedAlarm&) {});
    plane.service->add_tenant("base", snapshot,
                              experiment_->test_series.snapshot_state(0));
    IngestConfig ingest;
    ingest.model = snapshot;
    ingest.initial_state = experiment_->test_series.snapshot_state(0);
    ingest.default_tenant = "base";
    plane.router = std::make_unique<IngestRouter>(
        *plane.service, experiment_->catalog(), std::move(ingest));
    plane.service->start();
    return plane;
  }

  static std::string device_name(std::size_t id) {
    return experiment_->catalog().info(id).name;
  }
  static std::string event_line(const std::string& tenant, std::size_t device,
                                double timestamp, int value = 1) {
    std::string line = "{";
    if (!tenant.empty()) line += "\"tenant\": \"" + tenant + "\", ";
    return line + "\"device\": \"" + device_name(device) +
           "\", \"value\": " + std::to_string(value) +
           ", \"timestamp\": " + std::to_string(timestamp) + "}";
  }

  static core::Experiment* experiment_;
};

core::Experiment* IngestTest::experiment_ = nullptr;

using Outcome = IngestRouter::Outcome;

TEST_F(IngestTest, RoutesEventsAndCountsEveryRejection) {
  Plane plane = make_plane();
  IngestRouter& router = *plane.router;

  EXPECT_EQ(router.handle_line(event_line("base", 0, 1.0)).outcome,
            Outcome::kAccepted);
  EXPECT_EQ(router.handle_line(event_line("", 1, 2.0)).outcome,
            Outcome::kAccepted);  // default tenant
  EXPECT_EQ(router.handle_line("   ").outcome, Outcome::kBlank);
  EXPECT_EQ(router.handle_line("garbage").outcome, Outcome::kParseError);
  EXPECT_EQ(router.handle_line("{\"device\": \"x\"}").outcome,
            Outcome::kParseError);  // missing fields
  EXPECT_EQ(router.handle_line(event_line("ghost", 0, 3.0)).outcome,
            Outcome::kUnknownTenant);
  EXPECT_EQ(
      router
          .handle_line("{\"device\": \"no_such\", \"value\": 1, "
                       "\"timestamp\": 4}")
          .outcome,
      Outcome::kUnknownDevice);

  for (const char* line :
       {R"({"device": "x", "value": nan, "timestamp": 5})",
        R"({"device": "x", "value": 1, "timestamp": inf})"}) {
    const IngestRouter::LineResult result = router.handle_line(line);
    EXPECT_EQ(result.outcome, Outcome::kParseError) << line;
    EXPECT_EQ(*IngestRouter::response_line(result), "ERR parse") << line;
  }

  EXPECT_EQ(router.lines_total(), 8u);  // blank not counted
  EXPECT_EQ(router.accepted_total(), 2u);
  EXPECT_EQ(router.rejected_total(), 6u);

  plane.service->shutdown();
  const ServiceStats stats = plane.service->stats();
  EXPECT_EQ(stats.events_submitted, 2u);
  EXPECT_EQ(stats.events_processed, 2u);
  // The rejection reasons surface as labeled counters on the registry.
  const std::string prom = plane.service->registry().to_prometheus();
  EXPECT_NE(prom.find("serve_ingest_rejected_total{reason=\"parse\"} 4"),
            std::string::npos);
  EXPECT_NE(
      prom.find("serve_ingest_rejected_total{reason=\"unknown-tenant\"} 1"),
      std::string::npos);
  EXPECT_NE(
      prom.find("serve_ingest_rejected_total{reason=\"unknown-device\"} 1"),
      std::string::npos);
}

std::uint64_t rejected_for(DetectionService& service, const char* reason) {
  return service.registry()
      .counter("serve_ingest_rejected_total", {{"reason", reason}})
      .value();
}

TEST_F(IngestTest, StagedLinesCountWhenTheScopePushesThem) {
  Plane plane = make_plane(4096, util::OverflowPolicy::kBlock);
  IngestRouter& router = *plane.router;
  {
    util::BatchScope chunk;
    EXPECT_EQ(router.handle_line(event_line("base", 0, 1.0)).outcome,
              Outcome::kStaged);
    EXPECT_EQ(router.handle_line(event_line("", 1, 2.0)).outcome,
              Outcome::kStaged);
    EXPECT_FALSE(IngestRouter::response_line(
                     router.handle_line(event_line("base", 2, 3.0)))
                     .has_value());  // quiet, like an accepted event
    // Staged lines do not look routed yet; refused ones count at once.
    EXPECT_EQ(router.lines_total(), 0u);
    EXPECT_EQ(router.accepted_total(), 0u);
    EXPECT_EQ(router.handle_line("garbage").outcome, Outcome::kParseError);
    EXPECT_EQ(router.lines_total(), 1u);
    // A control verb pushes what was staged before it.
    EXPECT_EQ(
        router.handle_line(R"({"op": "add_tenant", "tenant": "dyn"})").outcome,
        Outcome::kControlOk);
    EXPECT_EQ(router.lines_total(), 5u);
    EXPECT_EQ(router.accepted_total(), 3u);
    EXPECT_EQ(router.handle_line(event_line("dyn", 0, 4.0)).outcome,
              Outcome::kStaged);
    EXPECT_EQ(router.lines_total(), 5u);
  }
  EXPECT_EQ(router.lines_total(), 6u);
  EXPECT_EQ(router.accepted_total(), 4u);
  EXPECT_EQ(router.rejected_total(), 1u);
  plane.service->shutdown();
  const ServiceStats stats = plane.service->stats();
  EXPECT_EQ(stats.events_submitted, 4u);
  EXPECT_EQ(stats.events_processed, 4u);
}

TEST_F(IngestTest, StagedLinesRefusedAtPushAreCountedByReason) {
  // Between staging and the push another thread removes one tenant and
  // then shuts the service down: the removed tenant's line is refused
  // as unknown-tenant, the other as closed, and nothing is orphaned.
  Plane plane = make_plane(4096, util::OverflowPolicy::kBlock);
  IngestRouter& router = *plane.router;
  ASSERT_TRUE(router.add_tenant("gone"));
  {
    util::BatchScope chunk;
    EXPECT_EQ(router.handle_line(event_line("gone", 0, 1.0)).outcome,
              Outcome::kStaged);
    EXPECT_EQ(router.handle_line(event_line("base", 1, 2.0)).outcome,
              Outcome::kStaged);
    std::thread other([&] {
      EXPECT_TRUE(router.remove_tenant("gone"));
      plane.service->shutdown();
    });
    other.join();
  }
  EXPECT_EQ(router.lines_total(), 2u);
  EXPECT_EQ(router.accepted_total(), 0u);
  EXPECT_EQ(router.rejected_total(), 2u);
  EXPECT_EQ(rejected_for(*plane.service, "unknown-tenant"), 1u);
  EXPECT_EQ(rejected_for(*plane.service, "closed"), 1u);
  const ServiceStats stats = plane.service->stats();
  EXPECT_EQ(stats.events_processed, 0u);
  EXPECT_EQ(stats.events_orphaned, 0u);
  EXPECT_EQ(stats.events_unroutable, 1u);
  EXPECT_EQ(stats.events_submitted, 1u);
  EXPECT_EQ(stats.queue_closed_rejects, 1u);
}

TEST_F(IngestTest, ControlVerbsDriveTenantChurn) {
  Plane plane = make_plane();
  IngestRouter& router = *plane.router;
  DetectionService& service = *plane.service;

  auto result =
      router.handle_line(R"({"op": "add_tenant", "tenant": "dyn"})");
  EXPECT_EQ(result.outcome, Outcome::kControlOk);
  EXPECT_EQ(*IngestRouter::response_line(result), "OK add_tenant");
  EXPECT_NE(service.find_tenant("dyn"), DetectionService::kInvalidTenant);

  // Events route to the new tenant immediately.
  EXPECT_EQ(router.handle_line(event_line("dyn", 0, 1.0)).outcome,
            Outcome::kAccepted);

  result = router.handle_line(R"({"op": "add_tenant", "tenant": "dyn"})");
  EXPECT_EQ(result.outcome, Outcome::kControlFailed);
  EXPECT_EQ(*IngestRouter::response_line(result), "ERR tenant-exists");

  result = router.handle_line(R"({"op": "remove_tenant", "tenant": "dyn"})");
  EXPECT_EQ(result.outcome, Outcome::kControlOk);
  EXPECT_EQ(service.find_tenant("dyn"), DetectionService::kInvalidTenant);
  EXPECT_EQ(router.handle_line(event_line("dyn", 0, 2.0)).outcome,
            Outcome::kUnknownTenant);

  result = router.handle_line(R"({"op": "remove_tenant", "tenant": "dyn"})");
  EXPECT_EQ(result.outcome, Outcome::kControlFailed);
  result = router.handle_line(R"({"op": "explode", "tenant": "x"})");
  EXPECT_EQ(result.outcome, Outcome::kControlFailed);
  EXPECT_EQ(*IngestRouter::response_line(result), "ERR unknown-op");
  result = router.handle_line(R"({"op": "add_tenant"})");
  EXPECT_EQ(result.outcome, Outcome::kControlFailed);
  EXPECT_EQ(*IngestRouter::response_line(result), "ERR missing-tenant");

  plane.service->shutdown();
  const ServiceStats stats = plane.service->stats();
  EXPECT_EQ(stats.tenants_added, 2u);  // base + dyn
  EXPECT_EQ(stats.tenants_removed, 1u);
}

TEST_F(IngestTest, OverflowSurfacesAsErrResponse) {
  // Unstarted service with a tiny kReject queue: pushes pile up until
  // the queue answers kRejected, which the router maps to overflow.
  const core::TrainedModel& model = experiment_->model;
  auto snapshot = make_snapshot(model.graph, model.score_threshold,
                                model.laplace_alpha, 1);
  ServiceConfig config;
  config.shard_count = 1;
  config.queue_capacity = 2;
  config.overflow = util::OverflowPolicy::kReject;
  DetectionService service(config, [](const ServedAlarm&) {});
  service.add_tenant("base", snapshot,
                     experiment_->test_series.snapshot_state(0));
  IngestConfig ingest;
  ingest.default_tenant = "base";
  IngestRouter router(service, experiment_->catalog(), std::move(ingest));

  EXPECT_EQ(router.handle_line(event_line("", 0, 1.0)).outcome,
            Outcome::kAccepted);
  EXPECT_EQ(router.handle_line(event_line("", 0, 2.0)).outcome,
            Outcome::kAccepted);
  const auto result = router.handle_line(event_line("", 0, 3.0));
  EXPECT_EQ(result.outcome, Outcome::kOverflow);
  EXPECT_EQ(*IngestRouter::response_line(result), "ERR overflow");

  service.start();
  service.shutdown();
  EXPECT_EQ(router.handle_line(event_line("", 0, 4.0)).outcome,
            Outcome::kClosed);
}

// --- HTTP transport ---

/// One-shot HTTP/1.1 request over loopback; returns the raw response.
std::string http_request(std::uint16_t port, const std::string& method,
                         const std::string& path, const std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0);
  std::string request = method + " " + path + " HTTP/1.1\r\n" +
                        "Host: localhost\r\nConnection: close\r\n";
  if (!body.empty()) {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n" + body;
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;
    response.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return response;
}

TEST_F(IngestTest, HttpIngestBatchAndTenantRoutes) {
  Plane plane = make_plane();
  obs::HttpServer http({.port = 0});
  attach_ingest(http, *plane.router);
  ASSERT_TRUE(http.start().ok());
  const std::uint16_t port = http.port();

  // Batch: two good lines, one bad, one blank.
  const std::string batch = event_line("base", 0, 1.0) + "\n" +
                            event_line("base", 1, 2.0) + "\n\nnot json\n";
  std::string response = http_request(port, "POST", "/ingest", batch);
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"lines\": 3, \"accepted\": 2, \"controls\": 0, "
                          "\"rejected\": 1"),
            std::string::npos);
  EXPECT_NE(response.find("\"reason\": \"parse\""), std::string::npos);

  // Tenant lifecycle.
  response = http_request(port, "POST", "/tenants", "{\"tenant\": \"web\"}");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("{\"added\": \"web\"}"), std::string::npos);
  EXPECT_NE(plane.service->find_tenant("web"),
            DetectionService::kInvalidTenant);

  response = http_request(port, "POST", "/tenants", "{\"tenant\": \"web\"}");
  EXPECT_NE(response.find("409"), std::string::npos);
  response = http_request(port, "POST", "/tenants", "nonsense");
  EXPECT_NE(response.find("400"), std::string::npos);

  response = http_request(port, "DELETE", "/tenants/web", "");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_EQ(plane.service->find_tenant("web"),
            DetectionService::kInvalidTenant);
  response = http_request(port, "DELETE", "/tenants/web", "");
  EXPECT_NE(response.find("404"), std::string::npos);

  http.stop();
  plane.service->shutdown();
}

TEST_F(IngestTest, HttpIngestAnswers503OnBackpressure) {
  // kReject + unstarted service: the batch trips overflow, and the
  // transport must escalate it to a retryable 503.
  const core::TrainedModel& model = experiment_->model;
  auto snapshot = make_snapshot(model.graph, model.score_threshold,
                                model.laplace_alpha, 1);
  ServiceConfig config;
  config.shard_count = 1;
  config.queue_capacity = 1;
  config.overflow = util::OverflowPolicy::kReject;
  DetectionService service(config, [](const ServedAlarm&) {});
  service.add_tenant("base", snapshot,
                     experiment_->test_series.snapshot_state(0));
  IngestConfig ingest;
  ingest.default_tenant = "base";
  IngestRouter router(service, experiment_->catalog(), std::move(ingest));
  obs::HttpServer http({.port = 0});
  attach_ingest(http, router);
  ASSERT_TRUE(http.start().ok());

  const std::string batch =
      event_line("", 0, 1.0) + "\n" + event_line("", 0, 2.0) + "\n";
  const std::string response =
      http_request(http.port(), "POST", "/ingest", batch);
  EXPECT_NE(response.find("503"), std::string::npos);
  EXPECT_NE(response.find("\"reason\": \"overflow\""), std::string::npos);

  http.stop();
  service.start();
  service.shutdown();
}

// --- raw-TCP transport ---

TEST_F(IngestTest, TcpLineProtocolEndToEnd) {
  Plane plane = make_plane();
  net::LineServerConfig line_config;
  net::LineProtocolServer tcp(
      line_config, [&](std::string_view line) {
        return IngestRouter::response_line(plane.router->handle_line(line));
      });
  const auto port = tcp.start();
  ASSERT_TRUE(port.ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port.value());
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0);
  const std::string payload =
      event_line("base", 0, 1.0) + "\n" +                       // quiet
      "{\"op\": \"add_tenant\", \"tenant\": \"tcp\"}\n" +       // OK
      event_line("tcp", 1, 2.0) + "\n" +                        // quiet
      "{\"op\": \"remove_tenant\", \"tenant\": \"tcp\"}\n" +    // OK
      event_line("tcp", 1, 3.0) + "\n" +                        // ERR
      "broken\n";                                               // ERR
  ASSERT_EQ(::send(fd, payload.data(), payload.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(payload.size()));
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;
    response.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);
  EXPECT_EQ(response,
            "OK add_tenant\nOK remove_tenant\nERR unknown-tenant\n"
            "ERR parse\n");

  tcp.stop();
  plane.service->shutdown();
  const ServiceStats stats = plane.service->stats();
  EXPECT_EQ(stats.events_submitted, 2u);
  EXPECT_EQ(stats.events_processed, 2u);
  EXPECT_EQ(stats.tenants_added, 2u);
  EXPECT_EQ(stats.tenants_removed, 1u);
  // Conservation: everything the queues accepted was either an event
  // that was processed/orphaned or a control message.
  EXPECT_EQ(stats.queue_accepted,
            stats.events_processed + stats.events_orphaned + 2u /*controls*/);
}

TEST_F(IngestTest, TcpEventsBeforeRemoveInOneWriteAreProcessed) {
  // kBlock stages each read chunk's events and pushes them per shard at
  // the end of the chunk. A remove_tenant in the same chunk pushes the
  // events staged before it first, so they are processed, not orphaned
  // or refused.
  constexpr std::size_t kEvents = 50;
  Plane plane = make_plane(4096, util::OverflowPolicy::kBlock);
  net::LineProtocolServer tcp(
      net::LineServerConfig{}, [&](std::string_view line) {
        return IngestRouter::response_line(plane.router->handle_line(line));
      });
  const auto port = tcp.start();
  ASSERT_TRUE(port.ok());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port.value());
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0);
  std::string payload = "{\"op\": \"add_tenant\", \"tenant\": \"tcp\"}\n";
  for (std::size_t i = 0; i < kEvents; ++i) {
    payload += event_line(i % 2 == 0 ? "tcp" : "base", i % 5,
                          1.0 + static_cast<double>(i)) +
               "\n";
  }
  payload += "{\"op\": \"remove_tenant\", \"tenant\": \"tcp\"}\n";
  payload += event_line("tcp", 1, 100.0) + "\n";
  ASSERT_EQ(::send(fd, payload.data(), payload.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(payload.size()));
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;
    response.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);
  EXPECT_EQ(response,
            "OK add_tenant\nOK remove_tenant\nERR unknown-tenant\n");

  tcp.stop();
  plane.service->shutdown();
  const ServiceStats stats = plane.service->stats();
  EXPECT_EQ(stats.events_processed, kEvents);
  EXPECT_EQ(stats.events_orphaned, 0u);
  EXPECT_EQ(plane.router->accepted_total(), kEvents);
  EXPECT_EQ(plane.router->rejected_total(), 1u);
  EXPECT_EQ(plane.router->lines_total(), kEvents + 3u);  // + 2 controls
}

}  // namespace
}  // namespace causaliot::serve
