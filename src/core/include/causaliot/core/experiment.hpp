// One-call experiment wiring shared by benches, examples, and integration
// tests: simulate a testbed -> preprocess -> 80/20 split -> train CausalIoT
// on the training part. The test part and the ground truth stay available
// for injection and scoring.
#pragma once

#include <cstdint>

#include "causaliot/core/pipeline.hpp"
#include "causaliot/sim/simulator.hpp"

namespace causaliot::core {

struct ExperimentConfig {
  std::uint64_t seed = 2023;
  /// Leading fraction of the preprocessed series used for training.
  double train_fraction = 0.8;
  PipelineConfig pipeline;

  ExperimentConfig() {
    // The paper's evaluation settings: tau = 2, alpha = 0.001, q = 99.
    pipeline.max_lag = 2;
    pipeline.alpha = 0.001;
    pipeline.percentile_q = 99.0;
    // Guard high-dimension G-square tests with few samples; Tetrad-style
    // heuristic that keeps TemporalPC honest on short traces.
    pipeline.min_samples_per_dof = 10.0;
    // A fractional pseudo-count of Laplace smoothing: real-world traces carry
    // enough noise that MLE probabilities are never exactly 0/1; our
    // synthetic trace is crisper, so an unseen cause assignment under
    // pure MLE scores 1.0 and every event in a polluted context raises a
    // false alarm. See bench_ablation_params for the MLE comparison.
    pipeline.laplace_alpha = 0.1;
  }
};

struct Experiment {
  sim::HomeProfile profile;
  sim::SimulationResult sim;
  /// Paper-methodology ground truth: the generator oracle intersected with
  /// device pairs that actually appear as neighbouring events (§VI-A).
  sim::GroundTruth ground_truth;
  /// The preprocessing result. Its sanitized stream and full series are
  /// released once split (train_series/test_series hold the same
  /// events); sanitized_event_count keeps their size.
  preprocess::PreprocessResult pre;
  std::size_t sanitized_event_count = 0;
  preprocess::StateSeries train_series;
  preprocess::StateSeries test_series;
  /// Raw (un-sanitized, discretized) runtime stream covering the test
  /// period — what the Event Monitor actually consumes. Includes
  /// duplicate state reports; starts at the train/test split instant with
  /// initial state test_series.snapshot_state(0).
  std::vector<preprocess::BinaryEvent> test_runtime_events;
  TrainedModel model;

  const telemetry::DeviceCatalog& catalog() const {
    return sim.log.catalog();
  }
};

/// Runs the full wiring. Deterministic given (profile, config).
Experiment build_experiment(sim::HomeProfile profile,
                            const ExperimentConfig& config = {});

/// Simulates an *independent* trace of the same home (fresh seed, given
/// duration) and sanitizes it with the experiment's already-fitted
/// discretization model — a held-out test stream of arbitrary length,
/// justified by the stationarity assumption (§III). Starts from the
/// all-idle state.
preprocess::StateSeries make_fresh_test_series(const Experiment& experiment,
                                               double days,
                                               std::uint64_t seed);

}  // namespace causaliot::core
