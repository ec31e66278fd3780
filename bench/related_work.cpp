// Related-work comparison (Section II reproduced as an experiment): the
// detectors the paper positions itself against, all run on the same
// family-W dataset and detection protocol as the CT model.
//
// Expected shape (mirroring the literature's published numbers):
//   firmware thresholds — very low FAR but very low FDR (3-10% regime);
//   naive Bayes         — mid FDR at higher FAR (Hamerly & Elkan);
//   rank-sum            — mid FDR at sub-percent FAR (Hughes et al.);
//   HMM                 — mid FDR from a single attribute (Zhao et al.);
//   Mahalanobis         — mid-to-high FDR near-zero FAR (Wang et al.);
//   linear SVM          — ~50% FDR at 0% FAR (Murray et al.);
//   CT (the paper)      — dominates all of them.
#include <iostream>

#include "baselines/hmm.h"
#include "baselines/mahalanobis.h"
#include "baselines/naive_bayes.h"
#include "baselines/ranksum_detector.h"
#include "baselines/svm.h"
#include "baselines/threshold.h"
#include "bench/bench_util.h"
#include "common/table.h"
#include "core/predictor.h"

using namespace hdd;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, 0.3);
  bench::print_header("Related work: prior detectors vs the CT model", args);

  const auto exp = bench::make_family_experiment(args, /*family=*/0);
  const auto features = smart::stat13_features();

  // A shared unweighted matrix for the simple baselines (they model the
  // data distribution; the CT-specific prior/loss reweighting would skew
  // them).
  auto plain = core::paper_ct_config().training;
  plain.failed_prior = 0.0;
  plain.loss_false_alarm = 1.0;
  const auto matrix = data::build_training_matrix(exp.fleet, exp.split, plain);

  Table t({"detector", "FAR (%)", "FDR (%)", "TIA (hours)"});

  {
    baselines::ThresholdConfig cfg;
    // Raw counters (features 9 = RSC_raw level in stat13) trip on growth.
    cfg.increasing_features = {};
    baselines::ThresholdDetector det;
    det.fit(matrix, cfg);
    eval::VoteConfig vote;
    vote.voters = 1;  // firmware warns on any tripped reading
    const auto r = eval::evaluate_batch(
        exp.fleet, exp.split, features,
        eval::per_row(
            [&det](std::span<const float> x) { return det.predict(x); }),
        vote);
    t.row().cell("firmware thresholds").cell(100 * r.far(), 3)
        .cell(100 * r.fdr(), 2).cell(r.mean_tia(), 1);
  }
  {
    baselines::NaiveBayes nb;
    nb.fit(matrix);
    eval::VoteConfig vote;
    vote.voters = 11;
    const auto r = eval::evaluate_batch(
        exp.fleet, exp.split, features,
        eval::per_row(
            [&nb](std::span<const float> x) { return nb.predict(x); }),
        vote);
    t.row().cell("naive Bayes [7]").cell(100 * r.far(), 3)
        .cell(100 * r.fdr(), 2).cell(r.mean_tia(), 1);
  }
  {
    baselines::RankSumConfig cfg;
    baselines::RankSumDetector det;
    det.fit(matrix, features, cfg);
    const auto r = det.evaluate(exp.fleet, exp.split);
    t.row().cell("rank-sum test [8]").cell(100 * r.far(), 3)
        .cell(100 * r.fdr(), 2).cell(r.mean_tia(), 1);
  }
  {
    baselines::HmmDetectorConfig cfg;
    cfg.attribute = smart::Attr::kTemperatureCelsius;
    baselines::HmmDetector det;
    det.fit(exp.fleet, exp.split, cfg);
    const auto r = det.evaluate(exp.fleet, exp.split);
    t.row().cell("HMM, best attribute [10]").cell(100 * r.far(), 3)
        .cell(100 * r.fdr(), 2).cell(r.mean_tia(), 1);
  }
  {
    baselines::MahalanobisDetector det;
    det.fit(matrix);
    eval::VoteConfig vote;
    vote.voters = 11;
    const auto r = eval::evaluate_batch(
        exp.fleet, exp.split, features,
        eval::per_row(
            [&det](std::span<const float> x) { return det.predict(x); }),
        vote);
    t.row().cell("Mahalanobis distance [12]").cell(100 * r.far(), 3)
        .cell(100 * r.fdr(), 2).cell(r.mean_tia(), 1);
  }
  {
    // Murray et al. tuned their SVM's error costs asymmetrically to reach
    // 0% FAR; mirror that with a false-alarm-weighted training matrix.
    auto svm_cfg = plain;
    svm_cfg.failed_window_hours = 12;
    svm_cfg.loss_false_alarm = 8.0;
    const auto svm_matrix =
        data::build_training_matrix(exp.fleet, exp.split, svm_cfg);
    baselines::LinearSvm svm;
    svm.fit(svm_matrix);
    eval::VoteConfig vote;
    vote.voters = 11;
    const auto r = eval::evaluate_batch(
        exp.fleet, exp.split, features,
        eval::per_row(
            [&svm](std::span<const float> x) { return svm.predict(x); }),
        vote);
    t.row().cell("linear SVM [6]").cell(100 * r.far(), 3)
        .cell(100 * r.fdr(), 2).cell(r.mean_tia(), 1);
  }
  {
    core::FailurePredictor ct(core::paper_ct_config());
    ct.fit(exp.fleet, exp.split);
    const auto r = ct.evaluate(exp.fleet, exp.split);
    t.row().cell("CT (this paper)").cell(100 * r.far(), 3)
        .cell(100 * r.fdr(), 2).cell(r.mean_tia(), 1);
  }
  t.print(std::cout);
  return 0;
}
