// Tests for src/eval: the voting detector (majority and average modes) and
// its DriveVoteState window, record scoring, drive-level metrics, TIA
// histograms, and ROC sweeps.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"

#include "eval/detection.h"

namespace hdd::eval {
namespace {

DriveScores make_scores(std::vector<float> outputs, bool failed = false,
                        std::int64_t fail_hour = -1) {
  DriveScores s;
  s.failed = failed;
  s.fail_hour = fail_hour;
  s.outputs = std::move(outputs);
  for (std::size_t i = 0; i < s.outputs.size(); ++i) {
    s.hours.push_back(static_cast<std::int64_t>(i));
  }
  return s;
}

TEST(VoteDrive, SingleVoterAlarmsOnFirstNegative) {
  const auto s = make_scores({1, 1, -1, 1});
  VoteConfig cfg;
  cfg.voters = 1;
  const auto o = vote_drive(s, cfg);
  EXPECT_TRUE(o.alarmed);
  EXPECT_EQ(o.alarm_hour, 2);
}

TEST(VoteDrive, MajorityRequired) {
  // N=3: needs more than 1.5 failed among last 3.
  VoteConfig cfg;
  cfg.voters = 3;
  EXPECT_FALSE(vote_drive(make_scores({-1, 1, 1, -1, 1, 1}), cfg).alarmed);
  const auto o = vote_drive(make_scores({1, -1, -1, 1}), cfg);
  EXPECT_TRUE(o.alarmed);
  EXPECT_EQ(o.alarm_hour, 2);  // window {1,-1,-1} at index 2
}

TEST(VoteDrive, EarlySamplesDoNotAlarmBeforeWindowFills) {
  // Two failed samples at the start never form a majority of 5 voters
  // until 5 samples exist — and by then the window is 2/5.
  VoteConfig cfg;
  cfg.voters = 5;
  EXPECT_FALSE(
      vote_drive(make_scores({-1, -1, 1, 1, 1, 1, 1}), cfg).alarmed);
}

TEST(VoteDrive, ShortRecordVotesOverWhatItHas) {
  VoteConfig cfg;
  cfg.voters = 11;
  // 3 samples, 2 failed: majority of 3 -> alarm at the last sample.
  const auto o = vote_drive(make_scores({-1, -1, 1}), cfg);
  EXPECT_TRUE(o.alarmed);
  EXPECT_EQ(o.alarm_hour, 2);
  EXPECT_FALSE(vote_drive(make_scores({-1, 1, 1}), cfg).alarmed);
}

TEST(VoteDrive, EmptyRecordNeverAlarms) {
  VoteConfig cfg;
  EXPECT_FALSE(vote_drive(make_scores({}), cfg).alarmed);
}

TEST(VoteDrive, RejectsZeroVoters) {
  VoteConfig cfg;
  cfg.voters = 0;
  EXPECT_THROW(vote_drive(make_scores({1}), cfg), ConfigError);
}

TEST(DriveVoteState, PushIsNoopOnceAlarmed) {
  VoteConfig cfg;
  cfg.voters = 1;
  DriveVoteState st(cfg);
  EXPECT_TRUE(st.push(7, -1.0));
  EXPECT_EQ(st.alarm_hour(), 7);
  EXPECT_FALSE(st.push(8, -1.0));
  EXPECT_EQ(st.alarm_hour(), 7);
  EXPECT_EQ(st.samples_seen(), 1);

  st.reset();
  EXPECT_FALSE(st.alarmed());
  EXPECT_EQ(st.samples_seen(), 0);
  EXPECT_TRUE(st.push(9, -1.0));
  EXPECT_EQ(st.alarm_hour(), 9);
}

TEST(DriveVoteState, RejectsZeroVoters) {
  VoteConfig cfg;
  cfg.voters = 0;
  EXPECT_THROW(DriveVoteState{cfg}, ConfigError);
}

TEST(VoteDrive, AverageModeComparesMeanToThreshold) {
  VoteConfig cfg;
  cfg.voters = 2;
  cfg.average_mode = true;
  cfg.threshold = -0.25;
  // Means over windows of 2: (0.9+(-0.8))/2 = 0.05 > -0.25; then
  // ((-0.8)+(-0.9))/2 = -0.85 < -0.25 -> alarm at index 2.
  const auto o = vote_drive(make_scores({0.9f, -0.8f, -0.9f}), cfg);
  EXPECT_TRUE(o.alarmed);
  EXPECT_EQ(o.alarm_hour, 2);

  // The running sum adds the new output before it subtracts the evicted
  // one, and the order decides the rounding. Evicting 2^60 from
  // 2^60 + 1 (which rounds to 2^60) and adding 1 gives 0 in that order,
  // so the window {1, 1} has mean 0 < 0.5 and alarms at index 2; the
  // other order would give mean 0.5 and no alarm.
  cfg.threshold = 0.5;
  const auto r = vote_drive(make_scores({0x1p60f, 1.0f, 1.0f}), cfg);
  EXPECT_TRUE(r.alarmed);
  EXPECT_EQ(r.alarm_hour, 2);
}

TEST(VoteDrive, AverageModeThresholdBoundaryIsExclusive) {
  VoteConfig cfg;
  cfg.voters = 1;
  cfg.average_mode = true;
  cfg.threshold = 0.0;
  EXPECT_FALSE(vote_drive(make_scores({0.0f}), cfg).alarmed);
  EXPECT_TRUE(vote_drive(make_scores({-0.01f}), cfg).alarmed);
}

TEST(VoteDrive, LargerNSuppressesTransients) {
  // A 3-sample failed burst inside a long healthy record.
  std::vector<float> outputs(40, 1.0f);
  outputs[10] = outputs[11] = outputs[12] = -1.0f;
  VoteConfig small;
  small.voters = 3;
  VoteConfig large;
  large.voters = 11;
  EXPECT_TRUE(vote_drive(make_scores(outputs), small).alarmed);
  EXPECT_FALSE(vote_drive(make_scores(outputs), large).alarmed);
}

TEST(EvaluateVotes, ComputesPerDriveMetrics) {
  std::vector<DriveScores> scores;
  // Good drive, clean.
  scores.push_back(make_scores({1, 1, 1, 1}));
  // Good drive with a persistent failure look -> false alarm.
  scores.push_back(make_scores({-1, -1, -1, -1}));
  // Failed drive detected at hour 1 (fail at hour 3) -> TIA 2.
  scores.push_back(make_scores({-1, -1, -1, 1}, true, 3));
  // Failed drive missed.
  scores.push_back(make_scores({1, 1, 1, 1}, true, 3));
  VoteConfig cfg;
  cfg.voters = 1;
  const auto r = evaluate_votes(scores, cfg);
  EXPECT_EQ(r.n_good, 2u);
  EXPECT_EQ(r.n_failed, 2u);
  EXPECT_EQ(r.false_alarms, 1u);
  EXPECT_EQ(r.detections, 1u);
  EXPECT_DOUBLE_EQ(r.far(), 0.5);
  EXPECT_DOUBLE_EQ(r.fdr(), 0.5);
  ASSERT_EQ(r.tia_hours.size(), 1u);
  EXPECT_DOUBLE_EQ(r.tia_hours[0], 3.0);  // alarm at hour 0
  EXPECT_DOUBLE_EQ(r.mean_tia(), 3.0);
}

TEST(EvaluateVotes, EmptyInputsGiveZeroRates) {
  const auto r = evaluate_votes({}, {});
  EXPECT_DOUBLE_EQ(r.far(), 0.0);
  EXPECT_DOUBLE_EQ(r.fdr(), 0.0);
  EXPECT_DOUBLE_EQ(r.mean_tia(), 0.0);
}

TEST(TiaHistogram, BucketsMatchPaperBoundaries) {
  const std::vector<double> tia{0, 24, 25, 72, 73, 168, 169, 336, 337, 1000};
  const auto buckets = tia_histogram(tia);
  ASSERT_EQ(buckets.size(), 5u);
  EXPECT_EQ(buckets[0], 2u);  // 0, 24
  EXPECT_EQ(buckets[1], 2u);  // 25, 72
  EXPECT_EQ(buckets[2], 2u);  // 73, 168
  EXPECT_EQ(buckets[3], 2u);  // 169, 336
  EXPECT_EQ(buckets[4], 2u);  // 337, 1000
}

TEST(ScoreRecord, AppliesModelToEverySampleFromBegin) {
  smart::DriveRecord d;
  d.failed = true;
  d.fail_hour = 9;
  for (int i = 0; i < 10; ++i) {
    smart::Sample s;
    s.hour = i;
    s.set(smart::Attr::kPowerOnHours, static_cast<float>(i));
    d.samples.push_back(s);
  }
  const smart::FeatureSet fs{"poh", {{smart::Attr::kPowerOnHours, 0}}};
  const auto scores = score_record_batch(
      d, 4, fs,
      per_row([](std::span<const float> x) { return x[0] < 7 ? 1 : -1; }));
  EXPECT_TRUE(scores.failed);
  EXPECT_EQ(scores.fail_hour, 9);
  ASSERT_EQ(scores.outputs.size(), 6u);
  EXPECT_EQ(scores.hours.front(), 4);
  EXPECT_FLOAT_EQ(scores.outputs.front(), 1.0f);
  EXPECT_FLOAT_EQ(scores.outputs.back(), -1.0f);
}

TEST(ScoreRecord, BeginPastEndYieldsEmpty) {
  smart::DriveRecord d;
  smart::Sample s;
  s.hour = 0;
  d.samples.push_back(s);
  const smart::FeatureSet fs{"poh", {{smart::Attr::kPowerOnHours, 0}}};
  const auto scores = score_record_batch(
      d, 5, fs, per_row([](std::span<const float>) { return 1.0; }));
  EXPECT_TRUE(scores.outputs.empty());
}

TEST(RocSweeps, VoterSweepIsMonotoneInFar) {
  // Good drives with occasional bursts: FAR must not increase with N.
  std::vector<DriveScores> scores;
  Rng rng(77);
  for (int d = 0; d < 300; ++d) {
    std::vector<float> outputs(60, 1.0f);
    if (rng.chance(0.3)) {
      const auto start = rng.uniform_int(50);
      const auto len = 1 + rng.uniform_int(8);
      for (std::size_t i = start; i < start + len && i < outputs.size(); ++i) {
        outputs[i] = -1.0f;
      }
    }
    scores.push_back(make_scores(std::move(outputs)));
  }
  const int voters[] = {1, 3, 5, 9, 15};
  const auto points = roc_over_voters(scores, voters);
  ASSERT_EQ(points.size(), 5u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i].x, points[i - 1].x + 1e-12);
  }
}

TEST(RocSweeps, ThresholdSweepIsMonotoneInBothAxes) {
  // Lowering the threshold can only reduce alarms.
  std::vector<DriveScores> scores;
  Rng rng(78);
  for (int d = 0; d < 200; ++d) {
    const bool failed = d % 4 == 0;
    std::vector<float> outputs;
    for (int i = 0; i < 50; ++i) {
      const double base = failed ? -0.3 : 0.5;
      outputs.push_back(static_cast<float>(base + rng.normal(0.0, 0.3)));
    }
    scores.push_back(make_scores(std::move(outputs), failed, 49));
  }
  const double thresholds[] = {-0.8, -0.4, 0.0, 0.4};
  const auto points = roc_over_thresholds(scores, 5, thresholds);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].x + 1e-12, points[i - 1].x);
    EXPECT_GE(points[i].y + 1e-12, points[i - 1].y);
  }
}

TEST(ScoreDataset, RequiresModel) {
  data::DriveDataset ds;
  data::DatasetSplit split;
  const smart::FeatureSet fs{"poh", {{smart::Attr::kPowerOnHours, 0}}};
  EXPECT_THROW(score_dataset_batch(ds, split, fs, nullptr), ConfigError);
}

}  // namespace
}  // namespace hdd::eval
