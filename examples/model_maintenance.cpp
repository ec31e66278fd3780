// Model-maintenance scenario (Section V-B3): an operator deciding how often
// to retrain. Simulates eight weeks of fleet drift under three strategies
// and prints the weekly false-alarm load each one would have generated,
// translated into operator workload (alarms to triage per week).
//
// Usage: model_maintenance [fleet_scale]
#include <cstdlib>
#include <iostream>

#include "common/table.h"
#include "core/predictor.h"
#include "tree/tree.h"
#include "update/strategies.h"

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.08;

  auto fleet = hdd::sim::paper_fleet_config(scale, 42);
  fleet.families.resize(1);  // family W
  const auto n_good = fleet.families[0].n_good;

  std::cout << "Simulating 8 weeks of drift over " << n_good
            << " good drives (scale " << scale << ")...\n\n";

  const auto paper = hdd::core::preset("ct");
  const hdd::update::ModelTrainer trainer =
      [&paper](const hdd::data::DataMatrix& m) {
        auto tree = std::make_shared<hdd::tree::DecisionTree>();
        tree->fit(m, hdd::tree::Task::kClassification, paper.tree_params);
        return hdd::eval::BatchSampleModel(
            [tree](std::span<const float> xs, std::span<double> out) {
              tree->predict_batch(xs, out);
            });
      };

  struct Strat {
    hdd::update::Strategy strategy;
    int cycle;
    const char* label;
  };
  const Strat strategies[] = {
      {hdd::update::Strategy::kFixed, 1, "train once, use forever"},
      {hdd::update::Strategy::kAccumulation, 1, "retrain on all history"},
      {hdd::update::Strategy::kReplacing, 1, "retrain weekly on last week"},
  };

  hdd::Table t({"strategy", "wk2", "wk3", "wk4", "wk5", "wk6", "wk7", "wk8",
                "total false alarms"});
  for (const auto& s : strategies) {
    hdd::update::LongTermConfig cfg;
    cfg.strategy = s.strategy;
    cfg.replace_cycle_weeks = s.cycle;
    cfg.training = paper.training;
    cfg.vote = paper.vote;
    const auto weekly = hdd::update::simulate_long_term(fleet, trainer, cfg);

    auto row = t.row();
    row.cell(s.label);
    double total_fa = 0.0;
    for (const auto& w : weekly) {
      const double alarms = w.far * static_cast<double>(n_good);
      total_fa += alarms;
      row.cell(alarms, 0);
    }
    row.cell(total_fa, 0);
  }
  t.print(std::cout);

  std::cout << "\nEach cell is the number of good drives falsely flagged "
               "that week — the triage\nworkload a stale model dumps on the "
               "operations team. Weekly retraining on the\nlatest week "
               "(the paper's best strategy) keeps it nearly flat.\n";
  return 0;
}
