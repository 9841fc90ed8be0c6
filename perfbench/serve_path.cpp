// The serve path: a loopback TCP client sends pre-rendered JSONL through
// net::LineProtocolServer -> serve::IngestRouter -> DetectionService
// shard queues -> TenantSession -> the alarm callback. Also the
// serve-saturate workload.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>
#include <tuple>

#include "causaliot/core/experiment.hpp"
#include "causaliot/detect/monitor.hpp"
#include "causaliot/detect/root_cause.hpp"
#include "causaliot/net/line_server.hpp"
#include "causaliot/serve/alarm_json.hpp"
#include "causaliot/serve/ingest.hpp"
#include "causaliot/serve/service.hpp"
#include "causaliot/serve/session.hpp"
#include "causaliot/serve/template_registry.hpp"
#include "causaliot/util/check.hpp"
#include "causaliot/util/strings.hpp"
#include "perfbench.hpp"

namespace perfbench {

using namespace causaliot;

namespace {

// Topology shared by every workload: 2 shards behind one line-server
// worker, blocking backpressure, contextual-only detection (k_max = 1).
constexpr std::size_t kShards = 2;
constexpr std::size_t kQueueCapacity = 4096;
constexpr std::size_t kLineWorkers = 1;
constexpr std::size_t kKMax = 1;

/// Each send() carries at most this many bytes of whole lines.
constexpr std::size_t kChunkBytes = 64 * 1024;
/// The client's SO_SNDBUF (the kernel doubles it). Fixed, and below the
/// default net.core.wmem_max, so the bytes queued on the client side, and
/// with them the closed-loop alarm latency, do not follow the host's
/// tcp_wmem autotuning.
constexpr int kClientSendBuffer = 128 * 1024;
/// The client keeps at most this many lines in flight: sent but not yet
/// routed, or queued at a shard (the closed loop's outstanding requests).
/// Their bytes fit the fixed client buffer alone, so the backlog is this
/// window, whatever size the host's autotuning gives the server's
/// receive buffer.
constexpr std::uint64_t kWindowLines = 2048;
/// How often the client looks again while the window is full.
constexpr std::chrono::microseconds kWindowPoll{20};
/// Width of the zero-padded microsecond timestamp slot in each line.
constexpr std::size_t kStampDigits = 12;
/// Alarm records reserved up front, so the callback never reallocates
/// (and stalls a shard) mid-pass.
constexpr std::size_t kReservedAlarms = 1 << 20;
/// Reports kept from a traced pass for the root-cause timing.
constexpr std::size_t kMaxKeptReports = 20000;
/// Events replayed through standalone sessions for the step timing.
constexpr std::size_t kMaxStepEvents = 2000000;
/// Passes over the payload for the scan timing (median reported).
constexpr std::size_t kScanPasses = 3;

// serve-saturate parameters.
constexpr std::size_t kSaturateTenants = 64;
constexpr std::size_t kSaturateCycle = 4096;
/// Leading seconds of each time-bounded pass that yield no latency
/// samples (connection ramp-up, first-touch of sessions and counters).
constexpr double kWarmupSeconds = 0.5;
/// Rounds of one set-up (~3-4 s; median = setup_s) followed by one
/// service lifetime (--seconds / kServeRounds). Interleaving spreads the
/// samples of every metric over the whole run, so a slow stretch of a
/// shared host lands on a few samples of each metric rather than on all
/// samples of one.
constexpr std::size_t kServeRounds = 6;

/// build_experiment's model for the seed-2023 trace. A change that alters
/// the served model must update this.
constexpr std::uint64_t kPinnedSeed = 2023;
constexpr std::uint64_t kPinnedServeModel = 0x6e96c23f73980e0bULL;

}  // namespace

/// What a served or replayed alarm is compared by.
struct AlarmKey {
  std::size_t stream_index = 0;
  telemetry::DeviceId device = 0;
  std::uint8_t state = 0;
  double score = 0.0;
  std::size_t chain = 0;

  friend bool operator==(const AlarmKey&, const AlarmKey&) = default;
  friend bool operator<(const AlarmKey& a, const AlarmKey& b) {
    return std::tie(a.stream_index, a.device, a.state, a.score, a.chain) <
           std::tie(b.stream_index, b.device, b.state, b.score, b.chain);
  }
};

namespace {

AlarmKey key_of(const detect::AnomalyReport& report) {
  const detect::AnomalyEntry& head = report.contextual();
  return {head.stream_index, head.event.device, head.event.state, head.score,
          report.chain_length()};
}

/// Entries of `a` and `b` (both sorted) that the other lacks.
std::uint64_t symmetric_difference(const std::vector<AlarmKey>& a,
                                   const std::vector<AlarmKey>& b) {
  std::vector<AlarmKey> out;
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(out));
  return out.size();
}

/// Line timing weighted by how many lines shared it.
struct Weighted {
  double value = 0.0;
  std::uint64_t weight = 0;
};

double weighted_percentile(std::vector<Weighted> samples, double q) {
  std::uint64_t total = 0;
  for (const Weighted& s : samples) total += s.weight;
  if (total == 0) return 0.0;
  std::sort(samples.begin(), samples.end(),
            [](const Weighted& a, const Weighted& b) {
              return a.value < b.value;
            });
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q / 100.0 * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (const Weighted& s : samples) {
    seen += s.weight;
    if (seen >= rank) return s.value;
  }
  return samples.back().value;
}

bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t wrote = ::send(fd, data, size, MSG_NOSIGNAL);
    if (wrote <= 0) return false;
    data += wrote;
    size -= static_cast<std::size_t>(wrote);
  }
  return true;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kClientSendBuffer,
               sizeof(kClientSendBuffer));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

/// Alarms as the callback saw them. Shard workers append under the mutex.
struct Collector {
  const telemetry::DeviceCatalog* catalog = nullptr;
  bool traced = false;
  /// Due times in the payload are microseconds since this instant.
  Clock::time_point epoch;
  /// Alarms raised by lines due before this (microseconds since epoch)
  /// are checked but are not latency samples: the warm-up.
  double warm_us = 0.0;

  std::mutex mutex;
  std::vector<std::pair<serve::TenantHandle, AlarmKey>> alarms;
  std::vector<double> latency_ms;
  std::vector<detect::AnomalyReport> reports;
  std::uint64_t json_ns = 0;

  void on_alarm(const serve::ServedAlarm& alarm) {
    const Clock::time_point arrived = Clock::now();
    // Rendered as `causaliot serve` renders every alarm; the line is the
    // alarm path's output cost, so it is built and then dropped.
    const std::string json = serve::alarm_to_json(alarm, *catalog);
    const std::uint64_t rendered_ns =
        traced ? ns_between(arrived, Clock::now()) : 0;
    const double due_us = alarm.report.contextual().event.timestamp;
    const double latency =
        (static_cast<double>(ns_between(epoch, arrived)) / 1e3 - due_us) / 1e3;
    std::lock_guard<std::mutex> lock(mutex);
    alarms.emplace_back(alarm.tenant, key_of(alarm.report));
    if (due_us >= warm_us) latency_ms.push_back(latency);
    json_ns += rendered_ns;
    if (traced && reports.size() < kMaxKeptReports) {
      reports.push_back(alarm.report);
    }
  }
};

namespace {

serve::ServiceConfig service_config(const telemetry::DeviceCatalog* catalog) {
  serve::ServiceConfig config;
  config.shard_count = kShards;
  config.queue_capacity = kQueueCapacity;
  config.overflow = util::OverflowPolicy::kBlock;
  config.session.k_max = kKMax;
  config.catalog = catalog;
  return config;
}

net::LineServerConfig line_config() {
  net::LineServerConfig config;
  config.socket.worker_count = kLineWorkers;
  return config;
}

}  // namespace

/// One service lifetime: the collector outlives the service whose
/// callback feeds it, and the line server (whose handler calls the
/// router) is destroyed first.
struct Rig {
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  Rig(const telemetry::DeviceCatalog* catalog, bool traced_in)
      : traced(traced_in),
        service(service_config(catalog),
                [this](const serve::ServedAlarm& alarm) {
                  collector.on_alarm(alarm);
                }),
        router(service, *catalog, serve::IngestConfig{}),
        server(line_config(), [this](std::string_view line) {
          if (!traced) {
            return serve::IngestRouter::response_line(router.handle_line(line));
          }
          const Clock::time_point start = Clock::now();
          const serve::IngestRouter::LineResult routed =
              router.handle_line(line);
          ingest_ns += ns_between(start, Clock::now());
          return serve::IngestRouter::response_line(routed);
        }) {
    collector.catalog = catalog;
    collector.traced = traced;
    collector.alarms.reserve(kReservedAlarms);
    collector.latency_ms.reserve(kReservedAlarms);
    if (traced) collector.reports.reserve(kMaxKeptReports);
  }

  const bool traced;
  Collector collector;
  serve::DetectionService service;
  serve::IngestRouter router;
  /// Written by the single line worker; read after server.stop() joins it.
  std::uint64_t ingest_ns = 0;
  net::LineProtocolServer server;
};

struct ServeBench::Impl {
  ServeSpec spec;
  serve::TemplateRegistry templates;
  std::shared_ptr<const serve::ModelSnapshot> snapshot;
  std::vector<std::size_t> phase;
  std::vector<std::vector<std::uint8_t>> initial;
  std::vector<std::string> names;

  /// tenants * cycle lines; line i starts at line_start[i], and its
  /// timestamp digits at stamp_at[i].
  std::string payload;
  std::vector<std::size_t> line_start;
  std::vector<std::size_t> stamp_at;

  std::unique_ptr<Rig> rig;
  std::uint64_t last_lines = 0;
  std::vector<detect::AnomalyReport> last_reports;

  const preprocess::BinaryEvent& event(std::size_t tenant,
                                       std::size_t k) const {
    return spec.base[(phase[tenant] + k % spec.cycle) % spec.base.size()];
  }
  std::size_t lines() const { return stamp_at.size(); }

  void stamp(std::size_t line, std::uint64_t micros) {
    char* digits = payload.data() + stamp_at[line];
    for (std::size_t d = kStampDigits; d-- > 0;) {
      digits[d] = static_cast<char>('0' + micros % 10);
      micros /= 10;
    }
  }

  void render() {
    const auto& devices = spec.catalog->devices();
    const std::size_t count = spec.tenants * spec.cycle;
    payload.reserve(count * 96);
    line_start.reserve(count + 1);
    stamp_at.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t tenant = i % spec.tenants;
      const preprocess::BinaryEvent& e = event(tenant, i / spec.tenants);
      line_start.push_back(payload.size());
      payload += "{\"tenant\": \"";
      payload += names[tenant];
      payload += "\", \"device\": \"";
      payload += devices[e.device].name;
      payload += e.state != 0 ? "\", \"value\": 1, \"timestamp\": "
                              : "\", \"value\": 0, \"timestamp\": ";
      stamp_at.push_back(payload.size());
      payload.append(kStampDigits, '0');
      payload += "}\n";
    }
    line_start.push_back(payload.size());
  }
};

ServeBench::ServeBench(ServeSpec spec) : impl_(std::make_unique<Impl>()) {
  Impl& s = *impl_;
  s.spec = std::move(spec);
  const auto tpl = s.templates.publish("default", *s.spec.graph,
                                       s.spec.threshold, s.spec.laplace,
                                       /*version=*/1);
  s.snapshot = serve::instantiate(*tpl);

  // Phases spread the tenants evenly over the base stream from
  // phase_offset. The seed shuffles them among the tenants that share a
  // shard (tenant t serves on shard t mod kShards), so every seed gives
  // each shard the same windows of the stream, and with them the same
  // alarm load, in another order. Each tenant starts from the system
  // state the base stream had reached at its phase.
  const std::size_t n = s.spec.base.size();
  const std::size_t tenants = s.spec.tenants;
  std::vector<std::size_t> slot(tenants);
  std::iota(slot.begin(), slot.end(), 0);
  for (std::size_t i = tenants; i-- > kShards;) {
    const std::size_t j =
        i - kShards * (mix_seed(s.spec.seed + i) % (i / kShards + 1));
    std::swap(slot[i], slot[j]);
  }
  s.initial.resize(tenants);
  std::vector<std::size_t> by_phase(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    s.phase.push_back((slot[t] * n / tenants + s.spec.phase_offset) % n);
    s.names.push_back("home-" + std::to_string(t));
    by_phase[t] = t;
  }
  std::sort(by_phase.begin(), by_phase.end(),
            [&](std::size_t a, std::size_t b) { return s.phase[a] < s.phase[b]; });
  std::vector<std::uint8_t> state = s.spec.base_initial;
  std::size_t folded = 0;
  for (const std::size_t t : by_phase) {
    for (; folded < s.phase[t]; ++folded) {
      state[s.spec.base[folded].device] = s.spec.base[folded].state;
    }
    s.initial[t] = state;
  }
  s.render();
}

ServeBench::~ServeBench() = default;

std::size_t ServeBench::payload_lines() const { return impl_->lines(); }

void ServeBench::register_tenants(bool traced) {
  Impl& s = *impl_;
  s.rig = std::make_unique<Rig>(s.spec.catalog, traced);
  for (std::size_t t = 0; t < s.spec.tenants; ++t) {
    const serve::TenantHandle handle =
        s.rig->service.add_tenant(s.names[t], s.snapshot, s.initial[t]);
    CAUSALIOT_CHECK_MSG(handle == t,
                        "tenant handles are dense in registration order");
  }
}

PassResult ServeBench::run(double seconds, Tracer& tracer, Result& result) {
  Impl& s = *impl_;
  Rig& rig = *s.rig;
  const bool traced = rig.traced;
  const std::size_t lines = s.lines();
  PassResult pass;

  rig.collector.epoch = Clock::now();
  rig.collector.warm_us = s.spec.warmup_seconds * 1e6;
  rig.service.start();
  const auto port = rig.server.start();
  const int fd = port.ok() ? connect_loopback(port.value()) : -1;
  result.check(fd >= 0, "loopback connection to the line server");

  std::optional<obs::Span> span;
  span.emplace(traced ? "serve.pass.traced" : "serve.pass", "perfbench",
               &tracer);
  std::vector<Weighted> late_ms;
  std::vector<double> depth;
  std::uint64_t blocked_ns = 0;
  std::uint64_t sent = 0;
  bool send_ok = fd >= 0;
  const auto sample_depth = [&] {
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      depth.push_back(
          static_cast<double>(rig.service.shard_progress(shard).queue_depth) /
          static_cast<double>(kQueueCapacity));
    }
  };
  const auto queued = [&] {
    std::uint64_t total = 0;
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      total += rig.service.shard_progress(shard).queue_depth;
    }
    return total;
  };
  const auto since_epoch_us = [&](Clock::time_point t) {
    return ns_between(rig.collector.epoch, t) / 1000;
  };
  const std::uint64_t limit = s.spec.max_lines;
  const Clock::time_point first_byte = Clock::now();
  const std::uint64_t run_ns = static_cast<std::uint64_t>(
      (seconds + s.spec.warmup_seconds) * 1e9);

  // Closed loop: the next chunk goes out as soon as the window has room
  // for it and send() returns.
  while (send_ok) {
    const Clock::time_point wait_start = Clock::now();
    if (limit != 0 ? sent >= limit
                   : ns_between(first_byte, wait_start) >= run_ns) {
      break;
    }
    const std::size_t begin = sent % lines;
    std::size_t end = begin + 1;
    while (end < lines &&
           s.line_start[end + 1] - s.line_start[begin] <= kChunkBytes) {
      ++end;
    }
    if (limit != 0) end = std::min<std::size_t>(end, begin + (limit - sent));
    while (sent + (end - begin) + queued() >
           rig.router.lines_total() + kWindowLines) {
      std::this_thread::sleep_for(kWindowPoll);
    }
    const Clock::time_point due = Clock::now();
    const std::uint64_t due_us = since_epoch_us(due);
    for (std::size_t i = begin; i < end; ++i) s.stamp(i, due_us);
    send_ok = send_all(fd, s.payload.data() + s.line_start[begin],
                       s.line_start[end] - s.line_start[begin]);
    const Clock::time_point done = Clock::now();
    blocked_ns += ns_between(wait_start, done);
    late_ms.push_back({static_cast<double>(ns_between(due, done)) / 1e6,
                       end - begin});
    if (traced) sample_depth();
    sent += end - begin;
  }
  result.check(send_ok, "generator sent every line");
  if (fd >= 0) {
    // Half-close, then wait for the server's EOF: every line is routed.
    ::shutdown(fd, SHUT_WR);
    char buffer[4096];
    while (::recv(fd, buffer, sizeof(buffer), 0) > 0) {
    }
    ::close(fd);
  }
  // The pass ends when the service has drained. The line server stops
  // afterwards: its acceptor polls every 50 ms, which would otherwise
  // quantize short passes.
  rig.service.shutdown();
  const Clock::time_point drained = Clock::now();
  span.reset();
  rig.server.stop();

  pass.lines = sent;
  pass.seconds = seconds_between(first_byte, drained);
  const serve::ServiceStats stats = rig.service.stats();
  pass.events_per_s = static_cast<double>(stats.events_processed) /
                      pass.seconds;
  pass.send_blocked_s = static_cast<double>(blocked_ns) / 1e9;
  pass.late_p99_ms = weighted_percentile(std::move(late_ms), 99.0);
  pass.net_lines = rig.server.stats().lines_total;
  pass.ingest_line_ns = static_cast<double>(rig.ingest_ns) /
                        static_cast<double>(std::max<std::uint64_t>(sent, 1));
  pass.queue_depth_mean = mean(depth);
  pass.queue_depth_p99 = percentile(depth, 99.0);

  // Conservation: every line sent reached the router, was accepted, and
  // was processed; nothing was rejected or orphaned.
  const std::uint64_t processed = stats.events_processed;
  const bool conserved = pass.net_lines == sent &&
                         rig.router.lines_total() == sent &&
                         rig.router.accepted_total() == sent &&
                         processed == sent && stats.events_orphaned == 0 &&
                         rig.router.rejected_total() == 0;
  result.check(sent,
               (sent > processed ? sent - processed : processed - sent) +
                   rig.router.rejected_total(),
               "lines sent == accepted == processed, no rejections");
  result.check(conserved,
               "conservation: sent == lines_total == accepted_total == "
               "events_processed");

  // Every tenant's served alarms must equal a serial replay of the
  // events that tenant was sent.
  Collector& collector = rig.collector;
  const std::size_t tenants = s.spec.tenants;
  std::vector<std::vector<AlarmKey>> served(tenants);
  std::uint64_t stray = 0;
  for (const auto& [tenant, key] : collector.alarms) {
    if (tenant < tenants) {
      served[tenant].push_back(key);
    } else {
      ++stray;
    }
  }
  detect::MonitorConfig monitor_config;
  monitor_config.score_threshold = s.spec.threshold;
  monitor_config.k_max = kKMax;
  monitor_config.laplace_alpha = s.spec.laplace;
  std::uint64_t expected_total = 0;
  std::uint64_t mismatched = stray;
  for (std::size_t t = 0; t < tenants; ++t) {
    const std::uint64_t count =
        sent > t ? (sent - t + tenants - 1) / tenants : 0;
    detect::EventMonitor monitor(*s.spec.graph, monitor_config, s.initial[t]);
    std::vector<AlarmKey> expected;
    for (std::uint64_t k = 0; k < count; ++k) {
      if (auto report = monitor.process(s.event(t, k))) {
        expected.push_back(key_of(*report));
      }
    }
    if (auto tail = monitor.finish()) expected.push_back(key_of(*tail));
    std::sort(expected.begin(), expected.end());
    std::sort(served[t].begin(), served[t].end());
    expected_total += expected.size();
    mismatched += symmetric_difference(expected, served[t]);
  }
  result.check(std::max<std::uint64_t>(expected_total, 1) + stray, mismatched,
               "served alarms equal a serial EventMonitor replay");

  pass.alarms = collector.latency_ms.size();
  pass.latency_ms = std::move(collector.latency_ms);
  pass.alarm_json_ns =
      static_cast<double>(collector.json_ns) /
      static_cast<double>(std::max<std::uint64_t>(pass.alarms, 1));
  s.last_lines = sent;
  s.last_reports = std::move(collector.reports);
  s.rig.reset();
  return pass;
}

void ServeBench::time_offline_layers(Tracer& tracer, Result& result) {
  Impl& s = *impl_;
  const std::size_t lines =
      static_cast<std::size_t>(std::min<std::uint64_t>(s.last_lines,
                                                       s.lines()));

  // The flat scanner over the lines the pass sent.
  std::vector<double> scan_ns;
  std::uint64_t scanned = 0;
  {
    auto span = bench_span(tracer, "serve.scan");
    for (std::size_t pass = 0; pass < kScanPasses; ++pass) {
      const Clock::time_point start = Clock::now();
      for (std::size_t i = 0; i < lines; ++i) {
        serve::IngestFields fields;
        const std::string_view line(
            s.payload.data() + s.line_start[i],
            s.line_start[i + 1] - s.line_start[i] - 1);
        scanned += serve::scan_ingest_line(line, fields) ? 1 : 0;
      }
      scan_ns.push_back(static_cast<double>(ns_between(start, Clock::now())) /
                        static_cast<double>(std::max<std::size_t>(lines, 1)));
    }
  }
  result.check(kScanPasses * lines, kScanPasses * lines - scanned,
               "scan_ingest_line accepts every payload line");
  result.set("serve.scan_ns", median(scan_ns), "ns");

  // The session step over the same per-tenant streams, one thread.
  serve::SessionConfig session_config;
  session_config.k_max = kKMax;
  std::vector<std::unique_ptr<serve::TenantSession>> sessions;
  for (std::size_t t = 0; t < s.spec.tenants; ++t) {
    sessions.push_back(std::make_unique<serve::TenantSession>(
        s.names[t], s.snapshot, session_config, s.initial[t]));
  }
  const std::size_t steps = static_cast<std::size_t>(
      std::min<std::uint64_t>(s.last_lines, kMaxStepEvents));
  std::size_t reports = 0;
  double step_ns = 0.0;
  {
    auto span = bench_span(tracer, "serve.session_step");
    const Clock::time_point start = Clock::now();
    for (std::size_t j = 0; j < steps; ++j) {
      const std::size_t t = j % s.spec.tenants;
      if (sessions[t]->process(s.event(t, j / s.spec.tenants))) ++reports;
    }
    step_ns = static_cast<double>(ns_between(start, Clock::now())) /
              static_cast<double>(std::max<std::size_t>(steps, 1));
  }
  result.set("serve.session_step_ns", step_ns, "ns");
  result.note("session_step_reports", std::to_string(reports));

  // Root-cause attribution over the pass's reports, with the served graph.
  const detect::RootCauseConfig root_cause = session_config.root_cause;
  std::size_t walked = 0;
  double attribute_ns = 0.0;
  {
    auto span = bench_span(tracer, "detect.root_cause");
    const Clock::time_point start = Clock::now();
    for (const detect::AnomalyReport& report : s.last_reports) {
      walked += detect::attribute_root_cause(report, &s.snapshot->graph,
                                             root_cause)
                    .edges_walked;
    }
    attribute_ns = static_cast<double>(ns_between(start, Clock::now())) /
                   static_cast<double>(
                       std::max<std::size_t>(s.last_reports.size(), 1));
  }
  result.set("detect.root_cause_ns", attribute_ns, "ns");
  result.note("root_cause_reports", std::to_string(s.last_reports.size()));
  result.note("root_cause_edges_walked", std::to_string(walked));
}

void report_serve_layers(const PassResult& pass, Result& result) {
  result.set("gen.send_blocked_s", pass.send_blocked_s, "s");
  result.set("gen.late_p99_ms", pass.late_p99_ms, "ms");
  result.set("serve.ingest_line_ns", pass.ingest_line_ns, "ns");
  result.set("serve.queue_depth_mean", pass.queue_depth_mean, "ratio");
  result.set("serve.queue_depth_p99", pass.queue_depth_p99, "ratio");
  result.set("serve.alarm_json_ns", pass.alarm_json_ns, "ns");
  result.set("net.lines", static_cast<double>(pass.net_lines), "count");
  result.set("serve.alarms", static_cast<double>(pass.alarms), "count");
}

void run_serve_workload(const Options& options, Tracer& tracer,
                        Result& result) {
  obs::Registry registry;
  core::ExperimentConfig config;
  config.seed = options.trace_seed;
  config.pipeline = train_config(&registry);

  // Each round sets up (build the experiment, publish the template, render
  // the payload, register every tenant; train_s is build_experiment's wall
  // time), then serves one pass of --seconds / kServeRounds after its own
  // warm-up. Every metric is the best round's (see README); medians over
  // the rounds are kept in the provenance.
  std::unique_ptr<core::Experiment> experiment;
  std::unique_ptr<ServeBench> bench;
  std::vector<double> setup_seconds, build_seconds;
  std::optional<Fingerprint> model_print;
  const double pass_seconds = options.seconds / kServeRounds;
  std::vector<double> events_per_s, p50_ms, p99_ms, late_ms;
  std::uint64_t lines = 0, samples = 0;
  for (std::size_t round = 0; round < kServeRounds; ++round) {
    bench.reset();  // it points into the previous experiment
    experiment.reset();
    release_free_memory();
    {
      auto setup_span = bench_span(tracer, "setup");
      const Clock::time_point start = Clock::now();
      experiment = std::make_unique<core::Experiment>();
      {
        auto span = bench_span(tracer, "core.build_experiment");
        *experiment = core::build_experiment(trace_profile(), config);
        build_seconds.push_back(seconds_between(start, Clock::now()));
      }
      ServeSpec spec;
      spec.catalog = &experiment->catalog();
      spec.graph = &experiment->model.graph;
      spec.threshold = experiment->model.score_threshold;
      spec.laplace = experiment->model.laplace_alpha;
      spec.base = experiment->test_runtime_events;
      spec.base_initial = experiment->test_series.snapshot_state(0);
      spec.tenants = kSaturateTenants;
      spec.cycle = kSaturateCycle;
      spec.warmup_seconds = kWarmupSeconds;
      spec.seed = options.seed;
      bench = std::make_unique<ServeBench>(std::move(spec));
      bench->register_tenants(/*traced=*/false);
      setup_seconds.push_back(seconds_between(start, Clock::now()));
    }
    const Fingerprint print =
        fingerprint(experiment->model.graph, experiment->model.score_threshold,
                    experiment->model.lag, options.work_dir);
    if (!model_print) model_print = print;
    result.check(print == *model_print,
                 "build_experiment repetition reproduces the model");
    release_free_memory();

    const PassResult pass = bench->run(pass_seconds, tracer, result);
    release_free_memory();
    events_per_s.push_back(pass.events_per_s);
    p50_ms.push_back(percentile(pass.latency_ms, 50.0));
    p99_ms.push_back(percentile(pass.latency_ms, 99.0));
    late_ms.push_back(pass.late_p99_ms);
    lines += pass.lines;
    samples += pass.alarms;
  }
  if (options.trace_seed == kPinnedSeed) {
    result.check(model_print->hash == kPinnedServeModel,
                 "served model matches the pinned seed-2023 fingerprint");
  }
  result.set("setup_s", median(setup_seconds), "s");
  result.set("train_s", best_time(build_seconds), "s");
  result.set("events_per_s", best_rate(events_per_s), "events/s");
  result.set("alarm_latency_p50_ms", best_time(p50_ms), "ms");
  result.set("alarm_latency_p99_ms", best_time(p99_ms), "ms");
  result.note("model_fingerprint", hex64(model_print->hash));
  result.note("tenants", std::to_string(kSaturateTenants));
  result.note("shards", std::to_string(kShards));
  result.note("line_workers", std::to_string(kLineWorkers));
  result.note("offered_rate", "closed-loop");
  result.note("client_sndbuf_bytes", std::to_string(kClientSendBuffer));
  result.note("payload_lines", std::to_string(bench->payload_lines()));
  result.note("median_pass_events_per_s",
              util::format("%.1f", median(events_per_s)));
  result.note("median_pass_p50_ms", util::format("%.6f", median(p50_ms)));
  result.note("median_pass_p99_ms", util::format("%.6f", median(p99_ms)));
  result.note("passes", std::to_string(kServeRounds));
  const auto joined = [](const std::vector<double>& values) {
    std::string out;
    for (const double v : values) {
      out += (out.empty() ? "" : " ") + util::format("%.6g", v);
    }
    return out;
  };
  result.note("build_experiment_s", joined(build_seconds));
  result.note("pass_events_per_s", joined(events_per_s));
  result.note("pass_p50_ms", joined(p50_ms));
  result.note("pass_p99_ms", joined(p99_ms));
  result.note("lines_sent", std::to_string(lines));
  result.note("alarm_samples", std::to_string(samples));
  result.note("generator_late_p99_ms", util::format("%.4f", median(late_ms)));

  if (!tracer.enabled()) return;
  // Train-side layers over this workload's own trace.
  const sim::SimulationResult simulation =
      simulate(options.trace_seed, tracer);
  result.check(simulation.log.size() == experiment->sim.log.size(),
               "the workload's trace re-simulates to the same event count");
  core::TrainedModel trained;
  {
    auto span = bench_span(tracer, "train.pipeline");
    trained = core::Pipeline(train_config(&registry)).train(simulation.log);
  }
  run_stage_path(simulation.log,
                 fingerprint(trained.graph, trained.score_threshold,
                             trained.lag, options.work_dir),
                 options, tracer, result);
  report_train_layers(tracer, result);

  bench->register_tenants(/*traced=*/true);
  const PassResult traced = bench->run(pass_seconds, tracer, result);
  report_serve_layers(traced, result);
  bench->time_offline_layers(tracer, result);
  const double traced_p50 = percentile(traced.latency_ms, 50.0);
  result.note("traced_events_per_s", util::format("%.1f", traced.events_per_s));
  result.note("traced_alarm_latency_p50_ms", util::format("%.4f", traced_p50));
  // Traced / untraced end-to-end time per event.
  result.set("trace.overhead_ratio",
             median(events_per_s) / traced.events_per_s, "ratio");
}

}  // namespace perfbench
