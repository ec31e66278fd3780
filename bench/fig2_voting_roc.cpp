// Figure 2 — impact of the voting-based detection method: ROC series
// (FAR, FDR) for CT (168 h window) and BP ANN (12 h window) as the number
// of voters N sweeps 1..27. The CT curve should dominate the ANN curve and
// its FAR should keep dropping as N grows.
#include <iostream>

#include "bench/bench_util.h"
#include "common/table.h"
#include "core/predictor.h"

using namespace hdd;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, 0.5);
  bench::print_header("Figure 2: voting-based detection ROC (family W)",
                      args);

  std::cout << "Paper anchors: CT reaches FDR>93% at FAR 0.009% with N=27; "
               "BP ANN is dominated,\nits FDR dropping sharply for N>5 "
               "(84.21% at 0.07% by N=27).\n\n";

  const auto exp = bench::make_family_experiment(args, /*family=*/0);
  const int voter_counts[] = {1, 3, 5, 7, 9, 11, 15, 17, 27};

  for (const bool use_ct : {true, false}) {
    auto cfg = use_ct ? core::paper_ct_config() : core::paper_ann_config();
    core::FailurePredictor predictor(cfg);
    predictor.fit(exp.fleet, exp.split);

    const auto scores = eval::score_dataset_batch(
        exp.fleet, exp.split, cfg.training.features, predictor.sample_model());
    const auto points = eval::roc_over_voters(scores, voter_counts);

    std::cout << (use_ct ? "CT model" : "BP ANN model") << ":\n";
    Table t({"N", "FAR (%)", "FDR (%)", "TIA (hours)"});
    for (const auto& p : points) {
      t.row()
          .cell(static_cast<long long>(p.param))
          .cell(100.0 * p.x, 4)
          .cell(100.0 * p.y, 2)
          .cell(p.mean_tia, 1);
    }
    t.print(std::cout);
    std::cout << '\n';
  }
  return 0;
}
