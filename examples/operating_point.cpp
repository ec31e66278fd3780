// Operating-point selection: a deployment rarely wants "the model" — it
// wants "at most X false alarms per week for my fleet size". This example
// trains the paper's CT and RT models, then uses the tuning utilities to
// pick the voting parameters that maximize detection under a false-alarm
// budget, with k-fold cross-validation to show the variance an operator
// should expect.
//
// Usage: operating_point [fleet_scale] [far_budget]
#include <cstdlib>
#include <iostream>

#include "common/math_util.h"
#include "common/table.h"
#include "core/health.h"
#include "core/predictor.h"
#include "data/cross_validation.h"
#include "data/split.h"
#include "eval/tuning.h"
#include "sim/generator.h"

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.15;
  const double budget = argc > 2 ? std::atof(argv[2]) : 0.001;

  auto config = hdd::sim::paper_fleet_config(scale, 77);
  config.families.resize(1);
  const auto fleet = hdd::sim::generate_fleet_window(config, 0, 1);
  const auto split = hdd::data::split_dataset(fleet, {});
  std::cout << "Fleet: " << fleet.count_good() << " good / "
            << fleet.count_failed() << " failed drives; FAR budget "
            << hdd::format_double(100 * budget, 2) << "%\n\n";

  // CT: tune the voter count.
  {
    hdd::core::FailurePredictor ct(hdd::core::preset("ct"));
    ct.fit(fleet, split);
    const auto scores = hdd::eval::score_dataset_batch(
        fleet, split, ct.config().training.features, ct.sample_model());
    const int candidates[] = {1, 3, 5, 7, 9, 11, 15, 17, 21, 27};
    const auto best = hdd::eval::tune_voters(scores, candidates, budget);
    if (best) {
      std::cout << "CT: use N = " << best->vote.voters << " voters -> FDR "
                << hdd::format_double(100 * best->result.fdr(), 1)
                << "% at FAR "
                << hdd::format_double(100 * best->result.far(), 3)
                << "%, TIA "
                << hdd::format_double(best->result.mean_tia(), 0) << " h\n";
    } else {
      std::cout << "CT: no voter count meets the budget — lower the "
                   "detection ambition or retrain.\n";
    }
  }

  // RT health model: tune the threshold at N = 11.
  {
    hdd::core::HealthDegreeModel rt;
    rt.fit(fleet, split);
    const auto scores = hdd::eval::score_dataset_batch(
        fleet, split, rt.config().ct_config.training.features,
        rt.sample_model());
    const auto thresholds = hdd::linspace(-0.9, 0.0, 19);
    const auto best =
        hdd::eval::tune_threshold(scores, 11, thresholds, budget);
    if (best) {
      std::cout << "RT: use threshold "
                << hdd::format_double(best->vote.threshold, 2)
                << " -> FDR "
                << hdd::format_double(100 * best->result.fdr(), 1)
                << "% at FAR "
                << hdd::format_double(100 * best->result.far(), 3)
                << "%, TIA "
                << hdd::format_double(best->result.mean_tia(), 0) << " h\n";
    } else {
      std::cout << "RT: no threshold meets the budget.\n";
    }
  }

  // Cross-validated stability of the chosen CT configuration.
  std::cout << "\n3-fold cross-validated CT detection (FDR per fold):\n";
  hdd::data::CrossValidationConfig cv;
  cv.folds = 3;
  const auto fdrs = hdd::data::cross_validate(
      fleet, cv, [&fleet](const hdd::data::DatasetSplit& fold) {
        hdd::core::FailurePredictor p(hdd::core::preset("ct"));
        p.fit(fleet, fold);
        return p.evaluate(fleet, fold).fdr();
      });
  hdd::Table t({"fold", "FDR (%)"});
  for (std::size_t f = 0; f < fdrs.size(); ++f) {
    t.row().cell(static_cast<long long>(f + 1)).cell(100 * fdrs[f], 1);
  }
  t.print(std::cout);
  std::cout << "mean " << hdd::format_double(100 * hdd::mean(fdrs), 1)
            << "%, stddev " << hdd::format_double(100 * hdd::stddev(fdrs), 1)
            << "% — the stability the paper attributes to trees.\n";
  return 0;
}
