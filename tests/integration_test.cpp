// End-to-end integration tests: the full pipeline from synthetic telemetry
// through feature selection, training, detection, persistence, and the
// reliability hand-off — the paths a deployment would exercise.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/health.h"
#include "core/model_io.h"
#include "core/predictor.h"
#include "data/csv_io.h"
#include "data/split.h"
#include "reliability/raid.h"
#include "sim/generator.h"
#include "stats/feature_select.h"

namespace hdd {
namespace {

class Pipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto config = sim::paper_fleet_config(0.1, 2024);
    config.families.resize(1);
    fleet_ = new data::DriveDataset(sim::generate_fleet_window(config, 0, 1));
    split_ = new data::DatasetSplit(data::split_dataset(*fleet_, {}));
  }
  static void TearDownTestSuite() {
    delete fleet_;
    delete split_;
  }
  static data::DriveDataset* fleet_;
  static data::DatasetSplit* split_;
};

data::DriveDataset* Pipeline::fleet_ = nullptr;
data::DatasetSplit* Pipeline::split_ = nullptr;

TEST_F(Pipeline, EndToEndCtMeetsHeadlineShape) {
  // The paper's headline: high FDR at sub-percent FAR with ~2 weeks TIA.
  core::FailurePredictor p(core::paper_ct_config());
  p.fit(*fleet_, *split_);
  const auto r = p.evaluate(*fleet_, *split_);
  EXPECT_GT(r.fdr(), 0.8);
  EXPECT_LT(r.far(), 0.01);
  EXPECT_GT(r.mean_tia(), 24.0 * 7);  // more than a week of warning
}

TEST_F(Pipeline, CtBeatsAnnOnVotingRoc) {
  // Figure 2's qualitative claim at N = 11.
  core::FailurePredictor ct(core::paper_ct_config());
  ct.fit(*fleet_, *split_);
  core::FailurePredictor ann(core::paper_ann_config());
  ann.fit(*fleet_, *split_);
  const auto rc = ct.evaluate(*fleet_, *split_);
  const auto ra = ann.evaluate(*fleet_, *split_);
  EXPECT_GE(rc.fdr() + 1e-9, ra.fdr());
}

TEST_F(Pipeline, StatisticalSelectionFeedsTraining) {
  // Select features with the Section IV-B pipeline, then train on them.
  stats::FeatureSelectionConfig sel;
  sel.n_levels = 8;
  sel.n_rates = 2;
  const auto features = stats::select_features(*fleet_, sel);
  ASSERT_EQ(features.size(), 10);

  auto cfg = core::paper_ct_config();
  cfg.training.features = features;
  core::FailurePredictor p(cfg);
  p.fit(*fleet_, *split_);
  const auto r = p.evaluate(*fleet_, *split_);
  EXPECT_GE(r.fdr(), 0.75);
  EXPECT_LT(r.far(), 0.02);
}

TEST_F(Pipeline, CsvRoundTripPreservesEvaluation) {
  const std::string path = "/tmp/hddpred_integration_fleet.csv";
  data::save_csv_file(*fleet_, path);
  const auto loaded = data::load_csv_file(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.drives.size(), fleet_->drives.size());
  const auto split = data::split_dataset(loaded, {});
  core::FailurePredictor a(core::paper_ct_config());
  a.fit(*fleet_, *split_);
  core::FailurePredictor b(core::paper_ct_config());
  b.fit(loaded, split);
  const auto ra = a.evaluate(*fleet_, *split_);
  const auto rb = b.evaluate(loaded, split);
  EXPECT_EQ(ra.detections, rb.detections);
  EXPECT_EQ(ra.false_alarms, rb.false_alarms);
}

TEST_F(Pipeline, PersistedModelDeploysIdentically) {
  core::FailurePredictor p(core::paper_ct_config());
  p.fit(*fleet_, *split_);
  const std::string path = "/tmp/hddpred_integration_model.txt";
  core::save_tree_file(*p.tree(), path);
  const auto loaded = core::load_tree_file(path);
  std::remove(path.c_str());

  const auto& features = p.config().training.features;
  const auto model = [&loaded](std::span<const float> xs,
                               std::span<double> out) {
    loaded.predict_batch(xs, out);
  };
  const auto r_live = p.evaluate(*fleet_, *split_);
  const auto r_loaded = eval::evaluate_batch(*fleet_, *split_, features,
                                             model, p.config().vote);
  EXPECT_EQ(r_live.detections, r_loaded.detections);
  EXPECT_EQ(r_live.false_alarms, r_loaded.false_alarms);
}

TEST_F(Pipeline, HealthDegreeFeedsWarningQueue) {
  core::HealthDegreeModel model;
  model.fit(*fleet_, *split_);

  // Queue one warning per alarmed test drive; failed drives should cluster
  // at the front (worst health).
  core::WarningQueue queue;
  std::size_t failed_alarmed = 0;
  for (std::size_t di : split_->test_failed) {
    const auto& d = fleet_->drives[di];
    if (d.empty()) continue;
    const auto outcome = model.detect(d);
    if (!outcome.alarmed) continue;
    const auto idx = d.last_sample_at_or_before(outcome.alarm_hour);
    queue.push({d.serial, model.health(d, static_cast<std::size_t>(idx)),
                outcome.alarm_hour});
    ++failed_alarmed;
  }
  ASSERT_GT(failed_alarmed, 0u);
  // Pops come out sorted by health.
  double prev = -2.0;
  while (!queue.empty()) {
    const auto w = queue.pop();
    EXPECT_GE(w.health, prev);
    prev = w.health;
  }
}

TEST_F(Pipeline, MeasuredMetricsFeedReliabilityAnalysis) {
  // Section VI's workflow: measure (k, TIA), plug into Eq. 7 and the RAID
  // CTMC, and observe the order-of-magnitude reliability gains.
  core::FailurePredictor p(core::paper_ct_config());
  p.fit(*fleet_, *split_);
  const auto r = p.evaluate(*fleet_, *split_);
  ASSERT_GT(r.fdr(), 0.5);
  ASSERT_GT(r.mean_tia(), 1.0);

  const double single = reliability::mttdl_single_drive_with_prediction(
      1.39e6, 8.0, r.fdr(), r.mean_tia());
  EXPECT_GT(single, 3.0 * 1.39e6);  // several times the unpredicted MTTDL

  reliability::RaidPredictionParams raid;
  raid.n_drives = 100;
  raid.fdr = r.fdr();
  raid.tia_hours = r.mean_tia();
  const double with = reliability::mttdl_raid_with_prediction(raid);
  const double without =
      reliability::mttdl_raid6_no_prediction(1.39e6, 8.0, 100);
  EXPECT_GT(with, 20.0 * without);
}

TEST_F(Pipeline, DeterministicEndToEnd) {
  // Same seed -> byte-identical pipeline outcome.
  auto config = sim::paper_fleet_config(0.01, 77);
  config.families.resize(1);
  const auto fleet_a = sim::generate_fleet_window(config, 0, 1);
  const auto fleet_b = sim::generate_fleet_window(config, 0, 1);
  const auto split_a = data::split_dataset(fleet_a, {});
  const auto split_b = data::split_dataset(fleet_b, {});
  core::FailurePredictor a(core::paper_ct_config());
  core::FailurePredictor b(core::paper_ct_config());
  a.fit(fleet_a, split_a);
  b.fit(fleet_b, split_b);
  const auto ra = a.evaluate(fleet_a, split_a);
  const auto rb = b.evaluate(fleet_b, split_b);
  EXPECT_EQ(ra.detections, rb.detections);
  EXPECT_EQ(ra.false_alarms, rb.false_alarms);
  EXPECT_EQ(ra.tia_hours, rb.tia_hours);
}

}  // namespace
}  // namespace hdd
