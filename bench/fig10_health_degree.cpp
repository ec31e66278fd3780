// Figure 10 — ROC of the RT health-degree model (personalized deterioration
// windows, Eq. 6) versus the RT trained as a plain ±1 classifier, sweeping
// the detection threshold at N = 11. Expected shape: the health-degree
// curve sits closer to the upper-left corner and reaches FDR > 96%.
#include <iostream>

#include "bench/bench_util.h"
#include "common/table.h"
#include "core/health.h"

using namespace hdd;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, 0.5);
  bench::print_header("Figure 10: health-degree model ROC (family W)", args);

  std::cout << "Paper: health-degree model dominates the +/-1 RT classifier; "
               "max FDR > 96%.\nThresholds (health): -0.5..0.0; "
               "(classifier): -0.94..0.0\n\n";

  const auto exp = bench::make_family_experiment(args, /*family=*/0);

  // Health-degree model (Eq. 6, personalized windows).
  {
    core::HealthModelConfig cfg;
    cfg.personalized = true;
    core::HealthDegreeModel model(cfg);
    model.fit(exp.fleet, exp.split);

    const auto scores =
        eval::score_dataset_batch(exp.fleet, exp.split,
                                  cfg.ct_config.training.features,
                                  model.sample_model());
    const double thresholds[] = {-0.5, -0.37, -0.3, -0.2, -0.1, -0.02, 0.0};
    const auto points = eval::roc_over_thresholds(scores, 11, thresholds);

    std::cout << "Health-degree RT (personalized windows):\n";
    Table t({"threshold", "FAR (%)", "FDR (%)", "TIA (hours)"});
    for (const auto& p : points) {
      t.row()
          .cell(p.param, 2)
          .cell(100.0 * p.x, 3)
          .cell(100.0 * p.y, 2)
          .cell(p.mean_tia, 1);
    }
    t.print(std::cout);
    std::cout << '\n';
  }

  // Control group: RT trained with plain +1/-1 targets.
  {
    auto cfg = core::paper_rt_classifier_config();
    core::FailurePredictor predictor(cfg);
    predictor.fit(exp.fleet, exp.split);
    const auto scores = eval::score_dataset_batch(
        exp.fleet, exp.split, cfg.training.features, predictor.sample_model());
    const double thresholds[] = {-0.94, -0.86, -0.6, -0.4, -0.2, -0.05, 0.0};
    const auto points = eval::roc_over_thresholds(scores, 11, thresholds);

    std::cout << "RT classifier control (targets +1/-1):\n";
    Table t({"threshold", "FAR (%)", "FDR (%)", "TIA (hours)"});
    for (const auto& p : points) {
      t.row()
          .cell(p.param, 2)
          .cell(100.0 * p.x, 3)
          .cell(100.0 * p.y, 2)
          .cell(p.mean_tia, 1);
    }
    t.print(std::cout);
  }
  return 0;
}
