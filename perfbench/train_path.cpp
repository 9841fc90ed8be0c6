// The train path: simulation, core::Pipeline::train, and the traced
// stage-by-stage replica that times each preprocess / mining / threshold
// call. Also the train-28d workload.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "causaliot/core/pipeline.hpp"
#include "causaliot/detect/monitor.hpp"
#include "causaliot/mining/temporal_pc.hpp"
#include "causaliot/preprocess/discretize.hpp"
#include "causaliot/preprocess/preprocessor.hpp"
#include "causaliot/sim/profile.hpp"
#include "causaliot/util/strings.hpp"
#include "causaliot/util/thread_pool.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

using namespace causaliot;

/// Set-up repetitions (simulation is ~40 ms) after each training
/// repetition. With the one before the first, their median is setup_s,
/// sampled over the whole run like every other metric.
constexpr std::size_t kSetupRepsPerRound = 3;
/// Pipeline::train repetitions at least, however short --seconds is.
constexpr std::size_t kMinTrainReps = 3;
/// How many times each serve pass sends the trained home's whole stream.
constexpr std::size_t kTrainServeStreams = 6;

/// Pipeline::train's model for the seed-2023 trace (DIG bytes, threshold
/// and lag). A change that alters the trained model must update this.
constexpr std::uint64_t kPinnedSeed = 2023;
constexpr std::uint64_t kPinnedTrainModel = 0x17c2a2b005d8b2f4ULL;

std::vector<graph::LaggedNode> sorted(std::vector<graph::LaggedNode> nodes) {
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

}  // namespace

std::size_t pool_threads() {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(4, cores);
}

core::PipelineConfig train_config(obs::Registry* registry) {
  core::PipelineConfig config;
  config.max_lag = 0;
  config.alpha = 0.001;
  config.percentile_q = 99.0;
  config.laplace_alpha = 0.1;
  config.min_samples_per_dof = 10.0;
  config.mining_threads = pool_threads();
  config.ci_batching = true;
  config.metrics_registry = registry;
  return config;
}

sim::HomeProfile trace_profile() {
  sim::HomeProfile profile = sim::contextact_profile();
  profile.days = kTraceDays;
  return profile;
}

sim::SimulationResult simulate(std::uint64_t seed, Tracer& tracer) {
  sim::SmartHomeSimulator simulator(trace_profile(), seed);
  auto span = bench_span(tracer, "sim.simulate");
  return simulator.run();
}

Fingerprint fingerprint(const graph::InteractionGraph& graph,
                        double threshold, std::size_t lag,
                        const std::string& work_dir) {
  const std::string path = work_dir + "/model.dig";
  Fingerprint out;
  out.edges = graph.edge_count();
  out.threshold = threshold;
  out.lag = lag;
  if (!graph.save(path).ok()) return out;  // hash 0 never matches a pin
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  out.hash = fnv1a(util::format("threshold=%.17g lag=%zu\n", threshold, lag),
                   fnv1a(bytes.str()));
  return out;
}

double run_stage_path(const telemetry::EventLog& log,
                      const Fingerprint& reference, const Options& options,
                      Tracer& tracer, Result& result) {
  const std::size_t n = log.catalog().size();
  obs::Registry registry;
  const core::PipelineConfig config = train_config(&registry);
  const preprocess::Preprocessor preprocessor(config.preprocessor);

  const Clock::time_point start = Clock::now();
  preprocess::DiscretizationModel discretization;
  {
    auto span = bench_span(tracer, "preprocess.fit");
    discretization = preprocess::DiscretizationModel::fit(log);
  }
  std::vector<preprocess::BinaryEvent> sanitized;
  {
    auto span = bench_span(tracer, "preprocess.sanitize");
    sanitized = preprocessor.sanitize(log, discretization,
                                      std::vector<std::uint8_t>(n, 0));
  }
  double mean_gap = 0.0;
  if (sanitized.size() >= 2) {
    mean_gap = (sanitized.back().timestamp - sanitized.front().timestamp) /
               static_cast<double>(sanitized.size() - 1);
  }
  const std::size_t lag = config.max_lag > 0
                              ? config.max_lag
                              : preprocessor.select_lag(mean_gap);
  preprocess::StateSeries series;
  {
    auto span = bench_span(tracer, "preprocess.series");
    series = preprocess::build_series(n, sanitized);
  }

  mining::MinerConfig miner_config;
  miner_config.max_lag = lag;
  miner_config.alpha = config.alpha;
  miner_config.min_samples_per_dof = config.min_samples_per_dof;
  miner_config.stable = config.pc_stable;
  miner_config.ci_batching = config.ci_batching;
  miner_config.threads = config.mining_threads;
  miner_config.metrics_registry = &registry;
  const mining::InteractionMiner miner(miner_config);
  std::optional<util::ThreadPool> pool;
  if (util::resolve_thread_count(config.mining_threads) > 1) {
    pool.emplace(config.mining_threads);
  }
  util::ThreadPool* pool_ptr = pool ? &*pool : nullptr;

  mining::MiningDiagnostics diagnostics;
  graph::InteractionGraph graph;
  {
    auto span = bench_span(tracer, "mining.mine");
    graph = miner.mine(series, &diagnostics, pool_ptr);
  }
  double threshold = 0.0;
  {
    auto span = bench_span(tracer, "detect.threshold");
    threshold = detect::ThresholdCalculator::threshold_at_percentile(
        detect::ThresholdCalculator::training_scores(
            graph, series, config.laplace_alpha, pool_ptr),
        config.percentile_q);
  }
  const double stage_seconds = seconds_between(start, Clock::now());

  const Fingerprint staged =
      fingerprint(graph, threshold, lag, options.work_dir);
  result.check(staged == reference,
               "stage-by-stage path reproduces Pipeline::train (DIG bytes, "
               "edges, threshold)");

  // A fresh CPT estimate over the mined skeleton must reproduce mine()'s.
  graph::InteractionGraph fresh(n, lag);
  for (telemetry::DeviceId child = 0; child < n; ++child) {
    fresh.set_causes(child, graph.causes(child));
  }
  {
    auto span = bench_span(tracer, "mining.cpt");
    miner.estimate_cpts(series, fresh, pool_ptr);
  }
  result.check(fingerprint(fresh, threshold, lag, options.work_dir) == staged,
               "estimate_cpts on the mined skeleton reproduces the CPTs");

  // The single-threaded baseline: every child's Algorithm 1 run in turn.
  obs::Registry serial_registry;
  mining::MinerConfig serial_config = miner_config;
  serial_config.threads = 1;
  serial_config.metrics_registry = &serial_registry;
  const mining::InteractionMiner serial(serial_config);
  std::uint64_t mismatched_children = 0;
  {
    auto span = bench_span(tracer, "mining.serial");
    for (telemetry::DeviceId child = 0; child < n; ++child) {
      std::vector<graph::LaggedNode> causes;
      {
        auto child_span = bench_span(tracer, "mining.child");
        causes = serial.discover_causes(series, child);
      }
      if (sorted(causes) != sorted(graph.causes(child))) ++mismatched_children;
    }
  }
  result.check(n, mismatched_children,
               "per-child discover_causes equals the mined skeleton");

  double byte_kernel_tests = 0.0;
  registry.visit_scalars([&](const std::string& name, const obs::Labels& labels,
                             obs::MetricKind, double value) {
    if (name != "mining_ci_kernel_hits_total") return;
    for (const auto& [key, label] : labels) {
      if (key == "kernel" && label == "byte") byte_kernel_tests += value;
    }
  });
  result.set("mining.ci_tests", static_cast<double>(diagnostics.tests_run),
             "count");
  result.set("mining.byte_kernel_tests", byte_kernel_tests, "count");
  return stage_seconds;
}

void report_train_layers(const Tracer& tracer, Result& result) {
  const std::map<std::string, SpanTotals> spans = span_totals(tracer);
  const auto totals = [&](const std::string& name) {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanTotals{} : it->second;
  };
  const auto per_call = [&](const std::string& name) {
    const SpanTotals span = totals(name);
    return span.count == 0 ? 0.0
                           : span.self_s / static_cast<double>(span.count);
  };
  result.set("sim.simulate_s", per_call("sim.simulate"), "s");
  result.set("preprocess.fit_s", per_call("preprocess.fit"), "s");
  result.set("preprocess.sanitize_s", per_call("preprocess.sanitize"), "s");
  result.set("preprocess.series_s", per_call("preprocess.series"), "s");
  result.set("mining.mine_s", per_call("mining.mine"), "s");
  result.set("mining.serial_s", totals("mining.child").self_s, "s");
  result.set("mining.child_max_s", totals("mining.child").max_s, "s");
  result.set("mining.cpt_s", per_call("mining.cpt"), "s");
  result.set("detect.threshold_s", per_call("detect.threshold"), "s");
}

void run_train_workload(const Options& options, Tracer& tracer,
                        Result& result) {
  // Set-up: simulate the paper-scale trace.
  std::vector<double> setup_seconds;
  const auto set_up = [&] {
    auto span = bench_span(tracer, "setup");
    const Clock::time_point start = Clock::now();
    sim::SimulationResult simulated = simulate(options.trace_seed, tracer);
    setup_seconds.push_back(seconds_between(start, Clock::now()));
    return simulated;
  };
  const sim::SimulationResult simulation = set_up();
  const telemetry::EventLog& log = simulation.log;
  result.note("trace_events", std::to_string(log.size()));

  // Measured: the product's train command on the raw log, repeated until
  // --seconds of training; every repetition must reproduce the same model.
  // After each repetition the trained home serves its own 28-day runtime
  // stream over TCP (one tenant), as `causaliot serve` would after
  // `causaliot train`. Interleaving spreads the samples of both paths
  // over the whole run, so a slow stretch of a shared host lands on a few
  // samples of each rather than on all samples of one.
  obs::Registry registry;
  const core::Pipeline pipeline(train_config(&registry));
  std::vector<double> train_seconds, events_per_s, latency_ms;
  double trained_seconds = 0.0;
  std::optional<Fingerprint> model_print;
  core::TrainedModel model;  // the first repetition's; the one served
  std::unique_ptr<ServeBench> bench;
  while (train_seconds.size() < kMinTrainReps ||
         trained_seconds < options.seconds) {
    core::TrainedModel trained;
    {
      auto span = bench_span(tracer, "train.pipeline");
      const Clock::time_point start = Clock::now();
      trained = pipeline.train(log);
      train_seconds.push_back(seconds_between(start, Clock::now()));
    }
    trained_seconds += train_seconds.back();
    const Fingerprint print = fingerprint(
        trained.graph, trained.score_threshold, trained.lag, options.work_dir);
    if (!model_print) model_print = print;
    result.check(print == *model_print,
                 "Pipeline::train repetition reproduces the model");
    if (!bench) {
      model = std::move(trained);
      ServeSpec spec;
      spec.catalog = &log.catalog();
      spec.graph = &model.graph;
      spec.threshold = model.score_threshold;
      spec.laplace = model.laplace_alpha;
      spec.base = preprocess::Preprocessor().discretize_runtime(
          log, model.discretization, 0.0);
      spec.base_initial.assign(log.catalog().size(), 0);
      spec.tenants = 1;
      spec.cycle = spec.base.size();
      spec.phase_offset = mix_seed(options.seed) % spec.base.size();
      spec.max_lines = kTrainServeStreams * spec.base.size();
      bench = std::make_unique<ServeBench>(std::move(spec));
    }
    release_free_memory();

    bench->register_tenants(/*traced=*/false);
    const PassResult served = bench->run(options.seconds, tracer, result);
    release_free_memory();
    events_per_s.push_back(served.events_per_s);
    latency_ms.insert(latency_ms.end(), served.latency_ms.begin(),
                      served.latency_ms.end());
    for (std::size_t i = 0; i < kSetupRepsPerRound; ++i) set_up();
  }
  result.set("setup_s", median(setup_seconds), "s");
  result.note("model_fingerprint", hex64(model_print->hash));
  result.note("model_edges", std::to_string(model_print->edges));
  result.note("model_threshold",
              util::format("%.17g", model_print->threshold));
  result.note("model_lag", std::to_string(model_print->lag));
  std::string reps;
  for (const double s : train_seconds) {
    reps += (reps.empty() ? "" : " ") + util::format("%.4f", s);
  }
  result.note("train_rep_s", reps);
  if (options.trace_seed == kPinnedSeed) {
    result.check(model_print->hash == kPinnedTrainModel,
                 "trained model matches the pinned seed-2023 fingerprint");
  }
  result.set("train_s", best_time(train_seconds), "s");
  result.note("median_train_s", util::format("%.6f", median(train_seconds)));
  result.set("events_per_s", best_rate(events_per_s), "events/s");
  result.set("alarm_latency_p50_ms", percentile(latency_ms, 50.0), "ms");
  result.set("alarm_latency_p99_ms", percentile(latency_ms, 99.0), "ms");
  result.note("passes", std::to_string(events_per_s.size()));
  result.note("alarm_samples", std::to_string(latency_ms.size()));
  result.note("tenants", "1");

  if (!tracer.enabled()) return;
  const double staged = run_stage_path(log, *model_print, options, tracer,
                                       result);
  result.set("trace.overhead_ratio", staged / median(train_seconds), "ratio");
  bench->register_tenants(/*traced=*/true);
  report_serve_layers(bench->run(options.seconds, tracer, result), result);
  bench->time_offline_layers(tracer, result);
  report_train_layers(tracer, result);
}

}  // namespace perfbench
