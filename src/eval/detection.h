// Drive-level failure detection and evaluation (Section V-A).
//
// Models classify individual samples; a *drive* is predicted to fail via the
// paper's voting scheme: at each time point, look at the last N samples
// (voters) — for binary models alarm when more than N/2 are classified
// failed; for the health-degree model alarm when the mean output drops
// below a threshold. The first alarming time point fixes the time in
// advance (TIA = failure hour - alarm hour).
//
// Metrics (per drive, matching the paper):
//   FDR — fraction of failed test drives alarmed during their record;
//   FAR — fraction of good test drives alarmed during their test period;
//   TIA — hours between alarm and actual failure, for correct detections.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "data/split.h"
#include "smart/features.h"

namespace hdd::obs {
class Counter;
}

namespace hdd::eval {

// Sample-level model: scores `out.size()` row-major feature rows in one
// call; margin/health output, negative = failing. Models with a
// predict_batch of their own (tree::DecisionTree, ann::MlpModel,
// core::SampleScorer) pass it directly.
using BatchSampleModel =
    std::function<void(std::span<const float> xs, std::span<double> out)>;

// Adapts a model that scores one row at a time (it has no predict_batch)
// to BatchSampleModel: one call per row.
BatchSampleModel per_row(std::function<double(std::span<const float>)> model);

// Precomputed model outputs over one drive's evaluation range. Scoring is
// separated from voting so that ROC sweeps over N / thresholds do not
// re-extract features or re-run the model.
struct DriveScores {
  bool failed = false;
  std::int64_t fail_hour = -1;
  std::vector<std::int64_t> hours;
  std::vector<float> outputs;
};

// Scores one drive record from sample index `begin` to the end: block
// feature extraction (no per-sample allocation) and one model call per
// block of `block_rows` rows.
DriveScores score_record_batch(const smart::DriveRecord& drive,
                               std::size_t begin,
                               const smart::FeatureSet& features,
                               const BatchSampleModel& model,
                               std::size_t block_rows = 256);

// One test drive: dataset index + first sample of its test range. Good
// drives are tested over their chronological test portion, failed drives
// over their whole record; drives with nothing to test are left out.
struct TestDrive {
  std::size_t drive = 0;
  std::size_t begin = 0;
};
std::vector<TestDrive> test_drives(const data::DriveDataset& dataset,
                                   const data::DatasetSplit& split);

// Scores every test drive (in test_drives order). Parallel across drives.
std::vector<DriveScores> score_dataset_batch(
    const data::DriveDataset& dataset, const data::DatasetSplit& split,
    const smart::FeatureSet& features, const BatchSampleModel& model,
    std::size_t block_rows = 256);

struct VoteConfig {
  int voters = 11;           // N
  bool average_mode = false; // true: mean-output threshold (RT health model)
  double threshold = 0.0;    // alarm when mean output < threshold
};

struct DriveOutcome {
  bool alarmed = false;
  std::int64_t alarm_hour = -1;
};

// The voting rule, advanced one model output at a time over a ring buffer
// of the last N outputs. Offline evaluation (vote_drive) and the streaming
// core::FleetScorer both vote through this class.
class DriveVoteState {
 public:
  explicit DriveVoteState(const VoteConfig& vote);

  // Feeds one model output; returns true exactly when this sample raises
  // the drive's (first) alarm. No-op once alarmed. Decisions start once the
  // window holds N samples.
  bool push(std::int64_t hour, double output);

  // Closes a record shorter than N: it votes once, over what it has, at
  // its last hour `last_hour`. Returns true when that raises the alarm;
  // no-op once alarmed or when the window ever filled.
  bool finish(std::int64_t last_hour);

  bool alarmed() const { return alarmed_; }
  std::int64_t alarm_hour() const { return alarm_hour_; }
  std::int64_t samples_seen() const { return seen_; }

  // The rolling vote verdict over the window's current contents (the rule
  // push() checks at a full window; short windows vote over what they
  // have), independent of the alarm latch. Shadow scoring compares the
  // incumbent's and candidate's verdicts sample by sample with this.
  bool current_decision() const {
    return filled_ > 0 && decide(std::min(filled_, ring_.size()));
  }

  // Forgets all observations (keeps the configuration).
  void reset();

  // Optional instrumentation (core::FleetScorer wires these): `transitions`
  // counts sample-level vote flips — consecutive model outputs of this
  // drive crossing the failure threshold in either direction — and
  // `alarms` counts the terminal healthy->alarmed transition. Counters
  // are sharded atomics, so concurrent pushes from scoring blocks are
  // safe.
  void set_metrics(obs::Counter* transitions, obs::Counter* alarms) {
    transitions_counter_ = transitions;
    alarms_counter_ = alarms;
  }

 private:
  bool decide(std::size_t window) const;
  void raise_alarm(std::int64_t hour);

  VoteConfig vote_;
  std::vector<float> ring_;  // last N outputs, circular
  std::size_t head_ = 0;
  std::size_t filled_ = 0;
  std::size_t failed_votes_ = 0;
  double output_sum_ = 0.0;
  std::int64_t seen_ = 0;
  bool alarmed_ = false;
  std::int64_t alarm_hour_ = -1;
  bool last_vote_failed_ = false;
  obs::Counter* transitions_counter_ = nullptr;
  obs::Counter* alarms_counter_ = nullptr;
};

// Applies the voting rule to one drive's scores: pushes each output into a
// DriveVoteState until one alarms, then closes the record. Drives with
// fewer samples than N vote once, over what they have.
DriveOutcome vote_drive(const DriveScores& scores, const VoteConfig& config);

struct EvalResult {
  std::size_t n_good = 0;
  std::size_t n_failed = 0;
  std::size_t false_alarms = 0;
  std::size_t detections = 0;
  std::vector<double> tia_hours;  // one entry per correct detection

  double far() const {
    return n_good ? static_cast<double>(false_alarms) /
                        static_cast<double>(n_good)
                  : 0.0;
  }
  double fdr() const {
    return n_failed ? static_cast<double>(detections) /
                          static_cast<double>(n_failed)
                    : 0.0;
  }
  double mean_tia() const;

  // Tallies one test drive's outcome.
  void add(bool failed, std::int64_t fail_hour, const DriveOutcome& outcome);
};

EvalResult evaluate_votes(const std::vector<DriveScores>& scores,
                          const VoteConfig& config);

// Score + vote (what FailurePredictor::evaluate uses).
EvalResult evaluate_batch(const data::DriveDataset& dataset,
                          const data::DatasetSplit& split,
                          const smart::FeatureSet& features,
                          const BatchSampleModel& model,
                          const VoteConfig& config);

// A detector that votes its own way over one drive record from sample
// index `begin` (the HMM and rank-sum baselines).
using DriveDetector =
    std::function<DriveOutcome(const smart::DriveRecord& drive,
                               std::size_t begin)>;

// Runs `detect` over every test drive, in parallel, and tallies the
// outcomes.
EvalResult evaluate_detector(const data::DriveDataset& dataset,
                             const data::DatasetSplit& split,
                             const DriveDetector& detect);

// The paper's TIA histogram buckets (Figures 3-4): 0-24, 25-72, 73-168,
// 169-336, 337-450+ hours. Returns counts per bucket.
std::vector<std::size_t> tia_histogram(std::span<const double> tia_hours);
extern const char* const kTiaBucketLabels[5];

// ROC sweep over voter counts (binary models, Figure 2/5).
struct RocPoint {
  double x = 0.0;  // FAR
  double y = 0.0;  // FDR
  double param = 0.0;  // N or threshold
  double mean_tia = 0.0;
};
std::vector<RocPoint> roc_over_voters(const std::vector<DriveScores>& scores,
                                      std::span<const int> voter_counts);

// ROC sweep over detection thresholds at fixed N (health model, Figure 10).
std::vector<RocPoint> roc_over_thresholds(
    const std::vector<DriveScores>& scores, int voters,
    std::span<const double> thresholds);

}  // namespace hdd::eval
