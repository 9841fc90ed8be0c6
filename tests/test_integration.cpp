// End-to-end integration tests: simulate -> preprocess -> mine -> calibrate
// -> monitor, exercising the public API exactly as a deployment would.
#include <gtest/gtest.h>

#include <filesystem>

#include "causaliot/core/evaluation.hpp"
#include "causaliot/core/experiment.hpp"

namespace causaliot::core {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::HomeProfile profile = sim::contextact_profile();
    profile.days = 10.0;
    ExperimentConfig config;
    config.seed = 20230;
    experiment_ =
        new Experiment(build_experiment(std::move(profile), config));
  }
  static void TearDownTestSuite() {
    delete experiment_;
    experiment_ = nullptr;
  }
  static Experiment* experiment_;
};

Experiment* IntegrationTest::experiment_ = nullptr;

TEST_F(IntegrationTest, MiningFindsAutocorrelationBackbone) {
  const MiningEvaluation eval = evaluate_mining(
      experiment_->model.graph, experiment_->ground_truth,
      experiment_->sim.ground_truth);
  // Autocorrelation is the easiest interaction class; most devices should
  // be found.
  const std::size_t self_total = experiment_->ground_truth.count_by_source(
      sim::InteractionSource::kAutocorrelation);
  EXPECT_GE(eval.identified_by_source[static_cast<std::size_t>(
                sim::InteractionSource::kAutocorrelation)],
            self_total * 3 / 4);
  EXPECT_GT(eval.precision, 0.5);
  EXPECT_GT(eval.recall, 0.35);
}

TEST_F(IntegrationTest, MiningFindsFrequentAutomationRules) {
  // R2 (bathroom exit -> stove) and R12 (sink -> washer) fire hundreds of
  // times; the DIG should contain them.
  const auto& catalog = experiment_->catalog();
  const auto stove = catalog.find("power_stove").value();
  const auto bathroom = catalog.find("pe_bathroom").value();
  const auto sink = catalog.find("water_sink").value();
  const auto washer = catalog.find("power_washer").value();
  const std::size_t found =
      experiment_->model.graph.has_interaction(bathroom, stove) +
      experiment_->model.graph.has_interaction(sink, washer);
  EXPECT_GE(found, 1u);
}

TEST_F(IntegrationTest, ThresholdBoundsTrainingAlarmRate) {
  // By construction of the q-th percentile, at most ~(100 - q)% of
  // training events score at or above the threshold.
  const auto& scores = experiment_->model.training_scores;
  std::size_t above = 0;
  for (double score : scores) {
    above += score > experiment_->model.score_threshold;
  }
  EXPECT_LE(static_cast<double>(above) / scores.size(), 0.011);
}

TEST_F(IntegrationTest, ContextualDetectionBeatsChance) {
  inject::AnomalyInjector injector(experiment_->catalog(),
                                   experiment_->profile,
                                   experiment_->sim.ground_truth);
  inject::ContextualConfig config;
  config.anomaly_case = inject::ContextualCase::kRemoteControl;
  config.injection_count = 300;
  config.seed = 9;
  const inject::InjectionResult stream = injector.inject_contextual(
      experiment_->test_series.events(),
      experiment_->test_series.snapshot_state(0), config);
  const stats::ConfusionCounts counts =
      evaluate_contextual(experiment_->model, stream);
  EXPECT_GT(counts.recall(), 0.4);
  EXPECT_GT(counts.precision(), 0.4);
  EXPECT_LT(counts.false_positive_rate(), 0.1);
}

TEST_F(IntegrationTest, CollectiveDetectionTracksChains) {
  inject::AnomalyInjector injector(experiment_->catalog(),
                                   experiment_->profile,
                                   experiment_->sim.ground_truth);
  inject::CollectiveConfig config;
  config.anomaly_case = inject::CollectiveCase::kChainedAutomation;
  config.chain_count = 150;
  config.k_max = 3;
  config.seed = 10;
  const inject::InjectionResult stream = injector.inject_collective(
      experiment_->test_series.events(),
      experiment_->test_series.snapshot_state(0), config);
  ASSERT_GT(stream.chain_count, 10u);
  const CollectiveEvaluation eval =
      evaluate_collective(experiment_->model, stream, config.k_max);
  EXPECT_GT(eval.detected_fraction(), 0.25);
  EXPECT_GT(eval.avg_detection_length, 1.0);
}

TEST_F(IntegrationTest, DigSurvivesSaveLoadWithIdenticalScores) {
  const auto path =
      std::filesystem::temp_directory_path() / "causaliot_integration.dig";
  ASSERT_TRUE(experiment_->model.graph.save(path.string()).ok());
  const auto loaded = graph::InteractionGraph::load(path.string());
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok());

  // Score the same stream with both graphs: identical results.
  detect::MonitorConfig config;
  config.score_threshold = experiment_->model.score_threshold;
  detect::EventMonitor original(experiment_->model.graph, config,
                                experiment_->test_series.snapshot_state(0));
  detect::EventMonitor reloaded(loaded.value(), config,
                                experiment_->test_series.snapshot_state(0));
  for (std::size_t j = 1; j <= 500 && j < experiment_->test_series.length();
       ++j) {
    const preprocess::BinaryEvent& event =
        experiment_->test_series.event_at(j);
    EXPECT_DOUBLE_EQ(original.score_event(event),
                     reloaded.score_event(event));
  }
}

TEST_F(IntegrationTest, MonitorIsDeterministic) {
  detect::EventMonitor a = experiment_->model.make_monitor(
      3, experiment_->test_series.snapshot_state(0));
  detect::EventMonitor b = experiment_->model.make_monitor(
      3, experiment_->test_series.snapshot_state(0));
  std::size_t alarms_a = 0;
  std::size_t alarms_b = 0;
  for (std::size_t j = 1; j < experiment_->test_series.length(); ++j) {
    const preprocess::BinaryEvent& event =
        experiment_->test_series.event_at(j);
    alarms_a += a.process(event).has_value();
    alarms_b += b.process(event).has_value();
  }
  EXPECT_EQ(alarms_a, alarms_b);
}

TEST_F(IntegrationTest, EventLogRoundTripReproducesPipeline) {
  const auto path =
      std::filesystem::temp_directory_path() / "causaliot_trace.csv";
  ASSERT_TRUE(experiment_->sim.log.save_csv(path.string()).ok());
  const auto loaded = telemetry::EventLog::load_csv(
      path.string(), experiment_->sim.log.catalog());
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), experiment_->sim.log.size());

  // Re-preprocessing the loaded trace yields the same sanitized stream.
  preprocess::Preprocessor preprocessor;
  const auto redo = preprocessor.run(loaded.value());
  EXPECT_EQ(redo.sanitized_events.size(),
            experiment_->sanitized_event_count);
}

}  // namespace
}  // namespace causaliot::core
