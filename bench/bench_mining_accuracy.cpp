// Reproduces the §VI-B interaction-mining evaluation on both testbeds:
// precision/recall of the mined DIG against ground truth, plus the
// rejection breakdown (marginally independent vs spurious-conditional).
//
// Paper reference (ContextAct): 190/196 interactions, precision 95.9%,
// recall 97.0%; 87 candidates rejected as independent and 193 as spurious.
#include "bench_common.hpp"

namespace {

using namespace causaliot;

void evaluate_profile(sim::HomeProfile profile, std::uint64_t seed) {
  const std::string name = profile.name;
  profile.days = 28.0;  // month-scale trace for stable CI tests
  core::Experiment ex =
      core::build_experiment(std::move(profile), bench::paper_config(seed));

  const core::MiningEvaluation eval = core::evaluate_mining(
      ex.model.graph, ex.ground_truth, ex.sim.ground_truth);
  const mining::MiningDiagnostics& diag = ex.model.mining_diagnostics;

  std::printf("\n-- %s --\n", name.c_str());
  std::printf("sanitized events: %zu (train %zu / test %zu), tau=%zu, "
              "alpha=%.4g\n",
              ex.sanitized_event_count, ex.train_series.event_count(),
              ex.test_series.event_count(), ex.model.lag, 0.001);
  std::printf("ground-truth interactions: %zu; DIG device-level pairs "
              "asserted: %zu\n",
              ex.ground_truth.size(),
              eval.true_positives + eval.false_positives);
  std::printf("identified %zu interactions: precision %.3f recall %.3f\n",
              eval.true_positives, eval.precision, eval.recall);
  std::printf("CI tests run: %zu; candidate lagged edges: %zu\n",
              diag.tests_run, diag.candidate_edges);
  std::printf("rejected candidates: %zu marginally independent, %zu "
              "spurious (conditionally independent)\n",
              diag.removed_marginal(), diag.removed_conditional());
  std::printf("false positives (%zu):", eval.false_positives);
  for (const auto& [cause, child] : eval.false_positive_pairs) {
    std::printf(" %s->%s", ex.catalog().info(cause).name.c_str(),
                ex.catalog().info(child).name.c_str());
  }
  std::printf("\nmissed (%zu):", eval.false_negatives);
  for (const auto& [cause, child] : eval.missed_pairs) {
    std::printf(" %s->%s", ex.catalog().info(cause).name.c_str(),
                ex.catalog().info(child).name.c_str());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = causaliot::bench::seed_from_args(argc, argv);
  causaliot::bench::print_header(
      "§VI-B — interaction mining accuracy (paper: P 95.9% / R 97.0%)",
      seed);
  evaluate_profile(causaliot::sim::contextact_profile(), seed);
  evaluate_profile(causaliot::sim::casas_profile(), seed);
  return 0;
}
