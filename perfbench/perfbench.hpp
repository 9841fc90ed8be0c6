// End-to-end benchmark for both CausalIoT paths (see README.md).
//
// The train path runs through core::Pipeline::train, the serve path from a
// loopback TCP client through net::LineProtocolServer, serve::IngestRouter
// and serve::DetectionService to the alarm callback. Everything here calls
// the library's public entry points in process; spans and per-layer
// timings are recorded only by this benchmark's own code.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "causaliot/core/pipeline.hpp"
#include "causaliot/graph/dig.hpp"
#include "causaliot/obs/registry.hpp"
#include "causaliot/obs/trace.hpp"
#include "causaliot/preprocess/series.hpp"
#include "causaliot/sim/simulator.hpp"
#include "causaliot/telemetry/device.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

struct Options {
  std::string workload;
  /// Drives the generated serve inputs: where each tenant starts in the
  /// stream it replays.
  std::uint64_t seed = 2023;
  /// Simulation seed of the 28-day trace every workload trains on. Fixed
  /// by default: training cost varies ~2x across simulated traces, so a
  /// different trace is a different workload (use it to confirm a claim).
  std::uint64_t trace_seed = 2023;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for scratch files (saved models); created by run.py.
  std::string work_dir = ".";
  std::string result_path;
  std::string trace_path;
};

/// Benchmark-side spans go to a private obs::Tracer, enabled only on
/// traced runs, so spans the library records on the global tracer never
/// mix in. The benchmark records every span from its main thread.
using causaliot::obs::Tracer;

inline causaliot::obs::Span bench_span(Tracer& tracer, const char* name) {
  return causaliot::obs::Span(name, "perfbench", &tracer);
}

/// Totals per span name over everything a tracer recorded.
struct SpanTotals {
  std::size_t count = 0;
  /// Summed self time: each span's duration minus the durations of the
  /// spans nested directly inside it.
  double self_s = 0.0;
  /// Longest single span.
  double max_s = 0.0;
};
std::map<std::string, SpanTotals> span_totals(const Tracer& tracer);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: metrics, provenance, and the correctness
/// ledger (every checked operation counts as attempted; a mismatch counts
/// as failed and is described in `failures`).
struct Result {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> provenance;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void set(const std::string& name, double value, const std::string& unit);
  void note(const std::string& key, const std::string& value);
  /// Counts `operations` attempted, of which `failures_seen` failed.
  void check(std::uint64_t operations, std::uint64_t failures_seen,
             const std::string& what);
  void check(bool ok, const std::string& what) { check(1, ok ? 0 : 1, what); }
  std::string to_json() const;
};

// --- statistics ---------------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
/// Best of several repetitions of one measurement: the shortest time or
/// the highest rate. Co-tenant CPU interference on a shared host only
/// ever slows a repetition down, so the best one is the steadiest
/// estimate of the code's own cost.
double best_time(const std::vector<double>& values);
double best_rate(const std::vector<double>& values);
/// Peak resident set of this process, in MB.
double peak_rss_mb();
/// Returns freed heap memory to the OS between repetitions, so each one
/// starts from the same resident set and the peak does not depend on
/// how earlier repetitions happened to fragment the per-thread arenas.
void release_free_memory();
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);
std::string hex64(std::uint64_t value);
/// A well-mixed 64-bit value derived from `seed` (splitmix64).
std::uint64_t mix_seed(std::uint64_t seed);

// --- shared train-path pieces (train_path.cpp) ---------------------------

/// The paper-scale trace: contextact, 28 simulated days.
constexpr double kTraceDays = 28.0;
/// min(4, nproc): the mining pool every workload trains with.
std::size_t pool_threads();
/// The `causaliot train` defaults: automatic lag, alpha 0.001, q 99,
/// guard 10, Laplace 0.1.
causaliot::core::PipelineConfig train_config(causaliot::obs::Registry* registry);
causaliot::sim::HomeProfile trace_profile();
causaliot::sim::SimulationResult simulate(std::uint64_t seed, Tracer& tracer);

/// FNV-1a of the saved DIG bytes plus threshold and lag: the model
/// fingerprint every gate compares.
struct Fingerprint {
  std::uint64_t hash = 0;
  std::size_t edges = 0;
  double threshold = 0.0;
  std::size_t lag = 0;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};
Fingerprint fingerprint(const causaliot::graph::InteractionGraph& graph,
                        double threshold, std::size_t lag,
                        const std::string& work_dir);

/// Traced stage-by-stage replica of Pipeline::train over `log` (every
/// preprocess, mining and threshold call timed from here), plus the
/// serial per-child discovery baseline and a fresh CPT estimate. Checks
/// the result against `reference` (Pipeline::train on the same log) and
/// returns the wall time of the stages Pipeline::train itself runs.
double run_stage_path(const causaliot::telemetry::EventLog& log,
                      const Fingerprint& reference, const Options& options,
                      Tracer& tracer, Result& result);

/// Reports the train-side per-layer metrics from the tracer's spans.
void report_train_layers(const Tracer& tracer, Result& result);

// --- shared serve-path pieces (serve_path.cpp) ---------------------------

/// What one serve workload sends. Line j of the stream goes to tenant
/// t = j mod tenants as that tenant's event k = j / tenants, which is
/// base[(phase_t + k mod cycle) mod |base|]; phases spread the tenants
/// evenly over the base stream.
struct ServeSpec {
  const causaliot::telemetry::DeviceCatalog* catalog = nullptr;
  /// The trained model: published as the template every tenant serves
  /// from, and replayed serially as the correctness reference.
  const causaliot::graph::InteractionGraph* graph = nullptr;
  double threshold = 1.0;
  double laplace = 0.0;
  std::vector<causaliot::preprocess::BinaryEvent> base;
  /// System state just before base[0].
  std::vector<std::uint8_t> base_initial;
  std::size_t tenants = 1;
  /// Per-tenant events before a tenant's stream repeats; the pre-rendered
  /// payload holds tenants * cycle lines.
  std::size_t cycle = 1;
  /// Start of the first phase in the base stream.
  std::size_t phase_offset = 0;
  /// Shuffles the phases among the tenants that share a shard.
  std::uint64_t seed = 0;
  /// Stop after this many lines; 0 = stop after warm-up + Options::seconds.
  std::size_t max_lines = 0;
  /// Leading part of a time-bounded pass whose alarms are checked but
  /// give no latency samples.
  double warmup_seconds = 0.0;
};

/// Outcome of one pass: from the first byte sent to the end of the
/// service's shutdown() drain.
struct PassResult {
  std::uint64_t lines = 0;
  double seconds = 0.0;
  double events_per_s = 0.0;
  /// Alarm-callback time minus the raising line's due time, per alarm.
  std::vector<double> latency_ms;
  // Layer numbers. ingest_line_ns, alarm_json_ns and the queue depths are
  // measured only by traced passes.
  double send_blocked_s = 0.0;
  double late_p99_ms = 0.0;
  double ingest_line_ns = 0.0;
  double alarm_json_ns = 0.0;
  double queue_depth_mean = 0.0;
  double queue_depth_p99 = 0.0;
  std::uint64_t net_lines = 0;
  std::uint64_t alarms = 0;
};

class ServeBench {
 public:
  /// Publishes the template and renders the payload (set-up work).
  explicit ServeBench(ServeSpec spec);
  ~ServeBench();
  ServeBench(const ServeBench&) = delete;
  ServeBench& operator=(const ServeBench&) = delete;

  /// Builds a service, router and line server with every tenant
  /// registered (set-up work); the next run() serves through them.
  void register_tenants(bool traced);
  /// Serves one pass of `seconds` (after the warm-up; ignored when
  /// max_lines is set), then checks conservation and every tenant's
  /// alarms against a serial EventMonitor replay.
  PassResult run(double seconds, Tracer& tracer, Result& result);
  /// Times scan_ingest_line, TenantSession::process and
  /// attribute_root_cause over the last pass's lines, streams and
  /// reports, outside the service.
  void time_offline_layers(Tracer& tracer, Result& result);

  std::size_t payload_lines() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Reports the serve-side per-layer metrics of a traced pass.
void report_serve_layers(const PassResult& pass, Result& result);

// --- workloads -----------------------------------------------------------

void run_train_workload(const Options& options, Tracer& tracer, Result& result);
/// serve-saturate.
void run_serve_workload(const Options& options, Tracer& tracer,
                        Result& result);

}  // namespace perfbench
