#include "causaliot/core/experiment.hpp"

#include "causaliot/core/evaluation.hpp"

#include <cmath>

#include "causaliot/util/check.hpp"
#include "causaliot/util/log.hpp"
#include "causaliot/util/strings.hpp"

namespace causaliot::core {

Experiment build_experiment(sim::HomeProfile profile,
                            const ExperimentConfig& config) {
  CAUSALIOT_CHECK_MSG(
      config.train_fraction > 0.0 && config.train_fraction < 1.0,
      "train_fraction must be in (0, 1)");

  Experiment experiment;
  experiment.profile = profile;

  sim::SmartHomeSimulator simulator(std::move(profile), config.seed);
  experiment.sim = simulator.run();
  util::log_info(util::format(
      "simulated %zu raw events (%zu user, %zu periodic, %zu automation)",
      experiment.sim.log.size(), experiment.sim.user_events,
      experiment.sim.periodic_events, experiment.sim.automation_events));

  preprocess::Preprocessor preprocessor(config.pipeline.preprocessor);
  experiment.pre = preprocessor.run(experiment.sim.log);
  util::log_info(util::format(
      "preprocessed to %zu events (dropped %zu duplicates, %zu extremes), "
      "auto-lag %zu",
      experiment.pre.sanitized_events.size(),
      experiment.pre.dropped_duplicates, experiment.pre.dropped_extremes,
      experiment.pre.lag));

  const std::size_t total_events = experiment.pre.series.event_count();
  CAUSALIOT_CHECK_MSG(total_events >= 10, "trace too short to split");
  const auto split_event = static_cast<std::size_t>(
      std::floor(static_cast<double>(total_events) * config.train_fraction));
  auto [train, test] = experiment.pre.series.split(split_event);
  experiment.train_series = std::move(train);
  experiment.test_series = std::move(test);
  // The runtime monitor sees the live stream (duplicates included), not
  // the sanitized one; cut it at the wall-clock instant of the split.
  const double split_time =
      experiment.pre.sanitized_events[split_event - 1].timestamp;
  experiment.test_runtime_events = preprocessor.discretize_runtime(
      experiment.sim.log, experiment.pre.discretization,
      std::nextafter(split_time, 1e300));

  // Paper methodology (§VI-A): ground-truth candidates are the device
  // pairs observed as directly neighbouring events; the generator oracle
  // then accepts or rejects each candidate.
  experiment.ground_truth = refine_ground_truth(
      experiment.sim.ground_truth, experiment.pre.sanitized_events,
      /*window=*/1, /*min_count=*/15);
  experiment.sanitized_event_count = experiment.pre.sanitized_events.size();
  experiment.pre.sanitized_events = std::vector<preprocess::BinaryEvent>();
  experiment.pre.series = preprocess::StateSeries();

  Pipeline pipeline(config.pipeline);
  const std::size_t lag = config.pipeline.max_lag > 0
                              ? config.pipeline.max_lag
                              : experiment.pre.lag;
  experiment.model = pipeline.train_on_series(experiment.train_series, lag);
  experiment.model.discretization = experiment.pre.discretization;
  util::log_info(util::format(
      "mined DIG: %zu edges, %zu CI tests, threshold %.4f",
      experiment.model.graph.edge_count(),
      experiment.model.mining_diagnostics.tests_run,
      experiment.model.score_threshold));
  return experiment;
}

preprocess::StateSeries make_fresh_test_series(const Experiment& experiment,
                                               double days,
                                               std::uint64_t seed) {
  sim::HomeProfile profile = experiment.profile;
  profile.days = days;
  sim::SmartHomeSimulator simulator(std::move(profile), seed);
  sim::SimulationResult fresh = simulator.run();

  preprocess::Preprocessor preprocessor;  // default sanitation config
  const std::size_t n = experiment.catalog().size();
  std::vector<preprocess::BinaryEvent> sanitized = preprocessor.sanitize(
      fresh.log, experiment.pre.discretization,
      std::vector<std::uint8_t>(n, 0));
  return preprocess::build_series(n, sanitized);
}

}  // namespace causaliot::core
