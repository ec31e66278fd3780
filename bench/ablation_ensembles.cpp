// Ablation (paper future work / prior work [11]): the plain CT against a
// random forest and AdaBoost, including training cost. The paper's own
// finding for AdaBoost was "no significant improvement and much more
// computationally expensive"; random forest is its suggested future work.
// Training times go to stderr, so stdout holds only the deterministic
// FAR/FDR/TIA table (pinned byte for byte by ctest's golden label).
#include <chrono>
#include <iostream>

#include "bench/bench_util.h"
#include "common/table.h"
#include "core/predictor.h"

using namespace hdd;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, 0.3);
  bench::print_header("Ablation: CT vs RandomForest vs AdaBoost", args);

  const auto exp = bench::make_family_experiment(args, /*family=*/0);

  struct Candidate {
    const char* name;
    core::ModelType type;
  };
  const Candidate candidates[] = {
      {"CT (paper)", core::ModelType::kClassificationTree},
      {"RandomForest (40 trees)", core::ModelType::kRandomForest},
      {"AdaBoost (30 rounds)", core::ModelType::kAdaBoost},
  };

  Table t({"model", "FAR (%)", "FDR (%)", "TIA (hours)"});
  for (const auto& c : candidates) {
    auto cfg = core::paper_ct_config();
    cfg.model = c.type;
    core::FailurePredictor p(cfg);
    const auto start = std::chrono::steady_clock::now();
    p.fit(exp.fleet, exp.split);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    const auto r = p.evaluate(exp.fleet, exp.split);
    t.row()
        .cell(c.name)
        .cell(100.0 * r.far(), 3)
        .cell(100.0 * r.fdr(), 2)
        .cell(r.mean_tia(), 1);
    std::cerr << "train (ms) " << c.name << ": " << elapsed.count() << '\n';
  }
  t.print(std::cout);
  std::cout << "\n(The paper's conclusion to check: ensembles cost much "
               "more to train for little\naccuracy gain over the plain CT "
               "at this operating point.)\n";
  return 0;
}
