// Figures 6-9 — model aging and updating strategies over eight weeks:
// FAR per test week (2..8) for fixed / accumulation / 1,2,3-week replacing,
// CT and BP ANN, families W and Q. Expected shape: the fixed strategy's FAR
// climbs steeply after week ~6 (population drift), accumulation climbs more
// slowly, and 1-week replacing stays lowest; CT additionally holds FDR>90%.
#include <iostream>

#include "bench/bench_util.h"
#include "common/table.h"
#include "core/predictor.h"
#include "update/strategies.h"

using namespace hdd;

namespace {

update::ModelTrainer make_trainer(bool use_ct,
                                  const core::PredictorConfig& cfg) {
  if (use_ct) {
    return [cfg](const data::DataMatrix& m) {
      auto tree = std::make_shared<tree::DecisionTree>();
      tree->fit(m, tree::Task::kClassification, cfg.tree_params);
      return eval::BatchSampleModel(
          [tree](std::span<const float> xs, std::span<double> out) {
            tree->predict_batch(xs, out);
          });
    };
  }
  return [cfg](const data::DataMatrix& m) {
    auto mlp = std::make_shared<ann::MlpModel>();
    mlp->fit(m, cfg.ann);
    return eval::BatchSampleModel(
        [mlp](std::span<const float> xs, std::span<double> out) {
          mlp->predict_batch(xs, out);
        });
  };
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, 0.15);
  bench::print_header("Figures 6-9: model updating strategies", args);

  std::cout << "Paper shape: fixed FAR climbs to 10-20% by week 8; "
               "accumulation rises late;\n1-week replacing stays lowest; CT "
               "keeps FDR > 90% throughout.\n\n";

  struct StratSpec {
    update::Strategy strategy;
    int cycle;
    const char* label;
  };
  const StratSpec strategies[] = {
      {update::Strategy::kFixed, 0, "fixed"},
      {update::Strategy::kAccumulation, 0, "accumulation"},
      {update::Strategy::kReplacing, 1, "1-week replacing"},
      {update::Strategy::kReplacing, 2, "2-weeks replacing"},
      {update::Strategy::kReplacing, 3, "3-weeks replacing"},
  };

  for (int family = 0; family < 2; ++family) {
    auto fleet = sim::paper_fleet_config(args.scale, args.seed,
                                         args.interval_hours);
    if (family == 0) fleet.families.resize(1);
    else fleet.families.erase(fleet.families.begin());

    for (const bool use_ct : {true, false}) {
      const auto cfg =
          use_ct ? core::paper_ct_config() : core::paper_ann_config();
      std::cout << "Family " << fleet.families.front().profile.name << ", "
                << (use_ct ? "CT" : "BP ANN")
                << " — FAR (%) by test week (FDR in parentheses):\n";
      Table t({"strategy", "wk2", "wk3", "wk4", "wk5", "wk6", "wk7", "wk8",
               "min FDR (%)"});
      for (const auto& strat : strategies) {
        update::LongTermConfig lt;
        lt.strategy = strat.strategy;
        lt.replace_cycle_weeks = std::max(1, strat.cycle);
        lt.training = cfg.training;
        lt.vote = cfg.vote;
        lt.vote.voters = 11;
        const auto weekly =
            update::simulate_long_term(fleet, make_trainer(use_ct, cfg), lt);

        auto row = t.row();
        row.cell(strat.label);
        double min_fdr = 1.0;
        for (const auto& w : weekly) {
          row.cell(100.0 * w.far, 2);
          min_fdr = std::min(min_fdr, w.fdr);
        }
        row.cell(100.0 * min_fdr, 1);
      }
      t.print(std::cout);
      std::cout << '\n';
    }
  }
  return 0;
}
