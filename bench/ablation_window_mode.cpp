// Ablation (DESIGN.md §5.5): health-degree target construction — the global
// deterioration window of Eq. 5 (several widths) versus the personalized
// windows of Eq. 6 (bootstrapped from a CT pass). The paper claims the
// personalized variant "achieves better prediction performance".
#include <iostream>

#include "bench/bench_util.h"
#include "common/table.h"
#include "core/health.h"

using namespace hdd;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, 0.3);
  bench::print_header(
      "Ablation: global (Eq.5) vs personalized (Eq.6) windows", args);

  const auto exp = bench::make_family_experiment(args, /*family=*/0);

  struct Mode {
    std::string label;
    bool personalized;
    int global_hours;
  };
  const Mode modes[] = {
      {"Eq.5 global w=48h", false, 48},
      {"Eq.5 global w=168h", false, 168},
      {"Eq.5 global w=336h", false, 336},
      {"Eq.6 personalized", true, 168},
  };

  Table t({"target mode", "FAR (%)", "FDR (%)", "TIA (hours)",
           "FDR @ FAR<=0.1%"});
  for (const auto& mode : modes) {
    core::HealthModelConfig cfg;
    cfg.personalized = mode.personalized;
    cfg.global_window_hours = mode.global_hours;
    core::HealthDegreeModel model(cfg);
    model.fit(exp.fleet, exp.split);

    const auto scores = eval::score_dataset_batch(
        exp.fleet, exp.split, cfg.ct_config.training.features,
        model.sample_model());
    // Default operating point...
    const auto at_default = eval::evaluate_votes(
        scores, {11, true, cfg.threshold});
    // ...and the best FDR achievable under a 0.1% FAR budget.
    double best_fdr = 0.0;
    for (double thr = -0.9; thr <= 0.0; thr += 0.02) {
      const auto r = eval::evaluate_votes(scores, {11, true, thr});
      if (r.far() <= 0.001) best_fdr = std::max(best_fdr, r.fdr());
    }
    t.row()
        .cell(mode.label)
        .cell(100.0 * at_default.far(), 3)
        .cell(100.0 * at_default.fdr(), 2)
        .cell(at_default.mean_tia(), 1)
        .cell(100.0 * best_fdr, 2);
  }
  t.print(std::cout);
  return 0;
}
