// Figure 5 — prediction on drive family "Q" (the smaller, noisier fleet)
// with voting detection, CT vs BP ANN, N = 1,3,5,11,17. The expected shape:
// both models degrade relative to family W, but CT degrades gracefully
// (FDR 93-100% at FAR 0.16-0.82%) while the ANN's gap widens.
#include <iostream>

#include "bench/bench_util.h"
#include "common/table.h"
#include "core/predictor.h"

using namespace hdd;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, 1.0);
  bench::print_header("Figure 5: family Q ROC (CT vs BP ANN)", args);

  std::cout << "Paper: CT FDR 100->93.5% / FAR 0.82->0.16% over "
               "N=1,3,5,11,17; TIA ~290-300 h;\nBP ANN clearly dominated.\n\n";

  const auto exp = bench::make_family_experiment(args, /*family=*/1);
  const int voter_counts[] = {1, 3, 5, 11, 17};

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
          .cell(100.0 * p.x, 3)
          .cell(100.0 * p.y, 2)
          .cell(p.mean_tia, 1);
    }
    t.print(std::cout);
    std::cout << '\n';
  }

  // Interpretability (Section V-B1): the dominant attributes per family.
  auto cfg = core::paper_ct_config();
  core::FailurePredictor predictor(cfg);
  predictor.fit(exp.fleet, exp.split);
  std::cout << "Learned CT for family Q (top of tree):\n";
  const auto text = predictor.tree()->to_text(&cfg.training.features);
  // Print only the first few lines.
  std::size_t pos = 0;
  for (int line = 0; line < 8 && pos != std::string::npos; ++line) {
    const auto next = text.find('\n', pos);
    std::cout << text.substr(pos, next - pos) << '\n';
    pos = next == std::string::npos ? next : next + 1;
  }
  return 0;
}
