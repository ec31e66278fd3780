// Tests for core::FleetScorer: streaming alarms must agree with
// eval::vote_drive over each drive's full output sequence, record replay
// must not depend on the block size, the predictor facade must agree with
// one-row-per-call scoring, and the streaming path must be safe under a
// real multi-threaded pool (the TSan configuration runs this binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/fleet.h"
#include "core/predictor.h"
#include "data/split.h"
#include "sim/generator.h"

namespace hdd::core {
namespace {

// A deterministic scorer for streaming tests: the "model" output is the
// first feature verbatim, so tests control outputs exactly.
class PassThroughScorer final : public SampleScorer {
 public:
  double predict(std::span<const float> x) const override {
    return static_cast<double>(x[0]);
  }
  void predict_batch(std::span<const float> xs,
                     std::span<double> out) const override {
    for (std::size_t r = 0; r < out.size(); ++r) {
      out[r] = static_cast<double>(xs[r]);
    }
  }
  int num_features() const override { return 1; }
  std::string summary() const override { return "pass-through"; }
};

smart::FeatureSet one_feature() {
  return {"raw", {{smart::Attr::kPowerOnHours, 0}}};
}

// A tiny family-W fleet with a trained paper-CT predictor, shared across
// the end-to-end tests.
class FleetFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto config = sim::paper_fleet_config(0.05, 12);
    config.families.resize(1);
    fleet_ = new data::DriveDataset(sim::generate_fleet_window(config, 0, 1));
    split_ = new data::DatasetSplit(data::split_dataset(*fleet_, {}));
    predictor_ = new FailurePredictor(preset("ct"));
    predictor_->fit(*fleet_, *split_);
  }
  static void TearDownTestSuite() {
    delete predictor_;
    delete split_;
    delete fleet_;
    predictor_ = nullptr;
    split_ = nullptr;
    fleet_ = nullptr;
  }
  static data::DriveDataset* fleet_;
  static data::DatasetSplit* split_;
  static FailurePredictor* predictor_;
};

data::DriveDataset* FleetFixture::fleet_ = nullptr;
data::DatasetSplit* FleetFixture::split_ = nullptr;
FailurePredictor* FleetFixture::predictor_ = nullptr;

// --- Streaming mode ----------------------------------------------------------

TEST(FleetScorerStreaming, MatchesOfflineVotingUnderParallelism) {
  // 1000 drives, 40 intervals, small blocks, a real 4-thread pool: every
  // drive's streaming outcome must equal eval::vote_drive over its full
  // output sequence. Run under -DHDD_SANITIZE=thread this is the
  // data-race check for observe_interval's block partitioning.
  Rng rng(92);
  const std::size_t n_drives = 1000;
  const std::size_t n_intervals = 40;

  PassThroughScorer model;
  ThreadPool pool(4);
  FleetScorerConfig cfg;
  cfg.features = one_feature();
  cfg.vote.voters = 5;
  cfg.block_rows = 64;
  cfg.pool = &pool;
  FleetScorer scorer(model, cfg);

  for (std::size_t i = 0; i < n_drives; ++i) {
    EXPECT_EQ(scorer.add_drive("drive-" + std::to_string(i)), i);
  }
  ASSERT_EQ(scorer.size(), n_drives);

  // Column i of `snapshots` is drive i's model-output sequence.
  std::vector<std::vector<float>> snapshots(n_intervals);
  for (auto& snap : snapshots) {
    snap.resize(n_drives);
    for (auto& v : snap) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (std::size_t t = 0; t < n_intervals; ++t) {
    scorer.observe_interval(snapshots[t], static_cast<std::int64_t>(t));
  }

  std::size_t expected_alarms = 0;
  for (std::size_t i = 0; i < n_drives; ++i) {
    eval::DriveScores s;
    for (std::size_t t = 0; t < n_intervals; ++t) {
      s.outputs.push_back(snapshots[t][i]);
      s.hours.push_back(static_cast<std::int64_t>(t));
    }
    const auto expected = eval::vote_drive(s, cfg.vote);
    const eval::VoteWindow& st = scorer.state(i);
    ASSERT_EQ(st.alarmed(), expected.alarmed) << "drive " << i;
    if (expected.alarmed) {
      ASSERT_EQ(st.alarm_hour(), expected.alarm_hour) << "drive " << i;
      ++expected_alarms;
    }
  }
  EXPECT_EQ(scorer.alarm_count(), expected_alarms);
  const auto alarmed = scorer.alarmed_drives();
  EXPECT_EQ(alarmed.size(), expected_alarms);
  EXPECT_TRUE(std::is_sorted(alarmed.begin(), alarmed.end()));

  scorer.reset();
  EXPECT_EQ(scorer.alarm_count(), 0u);
  EXPECT_EQ(scorer.size(), n_drives);  // registry survives reset
}

TEST(FleetScorerStreaming, ValidatesSnapshotShape) {
  PassThroughScorer model;
  FleetScorerConfig cfg;
  cfg.features = one_feature();
  FleetScorer scorer(model, cfg);
  scorer.add_drive("a");
  scorer.add_drive("b");
  EXPECT_EQ(scorer.serial(1), "b");

  const std::vector<float> wrong(3, 0.0f);
  EXPECT_THROW(scorer.observe_interval(wrong, 0), ConfigError);

  data::DataMatrix m(2);  // two columns, but the model has one feature
  const std::vector<float> row{0.5f, 0.5f};
  m.add_row(row, 0.0f);
  m.add_row(row, 0.0f);
  EXPECT_THROW(scorer.observe_interval(m, 0), ConfigError);
}

TEST(FleetScorer, RejectsMismatchedFeatureWidth) {
  PassThroughScorer model;  // one input
  FleetScorerConfig cfg;
  cfg.features = smart::stat13_features();  // thirteen columns
  EXPECT_THROW((FleetScorer{model, cfg}), ConfigError);

  cfg.features = one_feature();
  cfg.block_rows = 0;
  EXPECT_THROW((FleetScorer{model, cfg}), ConfigError);
}

// --- Record replay and the predictor facade ---------------------------------

TEST_F(FleetFixture, ReplayMatchesScoreRecordPlusVoteDrive) {
  // Record replay must not depend on the block size: one row per model
  // call, several blocks per drive, and the default block.
  const auto& features = predictor_->config().training.features;
  const auto& vote = predictor_->config().vote;
  const auto model = predictor_->sample_model();
  for (std::size_t i = 0; i < fleet_->drives.size(); ++i) {
    const auto& drive = fleet_->drives[i];
    const auto expected = eval::score_record_batch(drive, 0, features, model);
    const auto expected_vote = eval::vote_drive(expected, vote);
    for (const std::size_t block_rows : {std::size_t{1}, std::size_t{32}}) {
      const auto scores =
          eval::score_record_batch(drive, 0, features, model, block_rows);
      ASSERT_EQ(scores.hours, expected.hours) << "drive " << i;
      ASSERT_EQ(scores.outputs, expected.outputs)
          << "drive " << i << " block_rows " << block_rows;
      const auto outcome = eval::vote_drive(scores, vote);
      ASSERT_EQ(outcome.alarmed, expected_vote.alarmed) << "drive " << i;
      ASSERT_EQ(outcome.alarm_hour, expected_vote.alarm_hour)
          << "drive " << i;
    }
  }
}

TEST_F(FleetFixture, EvaluateMatchesScalarEvalHarness) {
  const auto& features = predictor_->config().training.features;
  const auto& vote = predictor_->config().vote;
  // The facade's evaluate() passes the scorer's predict_batch; the
  // reference scores one row per SampleScorer::predict call.
  const SampleScorer& scorer = predictor_->scorer();
  const auto batched = predictor_->evaluate(*fleet_, *split_);
  const auto scalar = eval::evaluate_batch(
      *fleet_, *split_, features,
      eval::per_row(
          [&scorer](std::span<const float> x) { return scorer.predict(x); }),
      vote);

  EXPECT_EQ(batched.n_good, scalar.n_good);
  EXPECT_EQ(batched.n_failed, scalar.n_failed);
  EXPECT_EQ(batched.false_alarms, scalar.false_alarms);
  EXPECT_EQ(batched.detections, scalar.detections);
  ASSERT_EQ(batched.tia_hours.size(), scalar.tia_hours.size());
  std::vector<double> a = batched.tia_hours, b = scalar.tia_hours;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "tia " << i;
  }
}

TEST_F(FleetFixture, ScorerSummaryAndTreeExposed) {
  const SampleScorer& s = predictor_->scorer();
  EXPECT_EQ(s.num_features(),
            static_cast<int>(predictor_->config().training.features.size()));
  EXPECT_FALSE(s.summary().empty());
  EXPECT_NE(s.tree(), nullptr);  // CT backend exposes its tree
  EXPECT_EQ(s.tree(), predictor_->tree());

  // predict_batch(DataMatrix) validates the column count.
  data::DataMatrix wrong(2);
  const std::vector<float> row{0.0f, 0.0f};
  wrong.add_row(row, 0.0f);
  std::vector<double> out(1);
  EXPECT_THROW(s.predict_batch(wrong, out), ConfigError);
}

}  // namespace
}  // namespace hdd::core
