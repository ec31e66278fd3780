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

// The voting rule's state for one drive: the running sum and failed-vote
// count of the last N outputs, the ring's head and fill, and the alarm
// latch, in 32 bytes. The N outputs themselves live in a ring the caller
// owns and passes to every push: DriveVoteState owns one, and
// core::FleetScorer keeps all its drives' rings in one array, so a drive
// costs 32 + 4N bytes there. push() is the one voting rule; offline
// evaluation (vote_drive), the baselines and the streaming FleetScorer
// all vote through it.
class VoteWindow {
 public:
  // What one push did.
  struct Pushed {
    bool raised = false;   // this sample raised the drive's (first) alarm
    bool flipped = false;  // its vote differs from the drive's previous one
  };

  // Throws ConfigError unless 1 <= vote.voters <= 65535 (the window counts
  // in 16 bits).
  static void check(const VoteConfig& vote);

  // Feeds one model output; `ring` is this drive's vote.voters outputs and
  // holds whatever the previous push left in it. Raises the alarm when the
  // window is full and votes failed. No-op once alarmed. The one voting
  // rule.
  Pushed push(const VoteConfig& vote, std::span<float> ring,
              std::int64_t hour, double output);

  // Closes a record shorter than N: it votes once, over what it has, at
  // its last hour `last_hour`. Returns true when that raises the alarm;
  // no-op once alarmed or when the window ever filled.
  bool finish(const VoteConfig& vote, std::int64_t last_hour);

  bool alarmed() const { return (flags_ & kAlarmed) != 0; }
  std::int64_t alarm_hour() const { return alarm_hour_; }
  std::int64_t samples_seen() const { return seen_; }

  // The rolling vote verdict over the window's current contents (the rule
  // push() checks at a full window; short windows vote over what they
  // have), independent of the alarm latch. Shadow scoring compares the
  // incumbent's and candidate's verdicts sample by sample with this.
  bool current_decision() const { return (flags_ & kDecision) != 0; }

  // Forgets all observations.
  void reset() { *this = VoteWindow(); }

 private:
  static constexpr std::uint8_t kAlarmed = 1;
  static constexpr std::uint8_t kLastVoteFailed = 2;  // the last push's vote
  static constexpr std::uint8_t kDecision = 4;        // its window's verdict

  double output_sum_ = 0.0;
  std::int64_t seen_ = 0;
  std::int64_t alarm_hour_ = -1;
  std::uint16_t head_ = 0;
  std::uint16_t filled_ = 0;
  std::uint16_t failed_votes_ = 0;
  std::uint8_t flags_ = 0;
};
static_assert(sizeof(VoteWindow) == 32);

// Defined here so that every voting loop inlines it.
inline VoteWindow::Pushed VoteWindow::push(const VoteConfig& vote,
                                           std::span<float> ring,
                                           std::int64_t hour, double output) {
  if (alarmed()) return {};
  ++seen_;
  // Outputs round through float exactly as DriveScores stores them, so
  // streaming and offline decisions match bit for bit.
  const float v = static_cast<float>(output);
  const bool failed_vote = v < 0.0f;
  Pushed pushed;
  pushed.flipped =
      seen_ > 1 && failed_vote != ((flags_ & kLastVoteFailed) != 0);
  const std::size_t want = ring.size();
  std::size_t filled = filled_;
  std::size_t failed = failed_votes_ + (failed_vote ? 1u : 0u);
  const float old = ring[head_];  // the evicted output when full
  ring[head_] = v;
  head_ = static_cast<std::uint16_t>(head_ + 1u == want ? 0u : head_ + 1u);
  // Add the new output before subtracting the evicted one: in average mode
  // the order decides the rounding of the running sum.
  double sum = output_sum_ + v;
  if (filled == want) {
    failed -= old < 0.0f ? 1u : 0u;
    sum -= old;
  } else {
    ++filled;
  }
  output_sum_ = sum;
  filled_ = static_cast<std::uint16_t>(filled);
  failed_votes_ = static_cast<std::uint16_t>(failed);
  const bool decision =
      vote.average_mode
          ? sum / static_cast<double>(filled) < vote.threshold
          : static_cast<double>(failed) > static_cast<double>(filled) / 2.0;
  // Decisions start at a full window.
  pushed.raised = decision && filled == want;
  if (pushed.raised) alarm_hour_ = hour;
  flags_ = static_cast<std::uint8_t>((failed_vote ? kLastVoteFailed : 0) |
                                     (decision ? kDecision : 0) |
                                     (pushed.raised ? kAlarmed : 0));
  return pushed;
}

// A VoteWindow with its own configuration and ring: one drive's vote,
// for callers that vote drive by drive (vote_drive, the baselines).
class DriveVoteState {
 public:
  explicit DriveVoteState(const VoteConfig& vote);

  // VoteWindow::push; returns true exactly when this sample raises the
  // alarm. Decisions start once the window holds N samples.
  bool push(std::int64_t hour, double output) {
    return window_.push(vote_, ring_, hour, output).raised;
  }
  bool finish(std::int64_t last_hour) {
    return window_.finish(vote_, last_hour);
  }

  bool alarmed() const { return window_.alarmed(); }
  std::int64_t alarm_hour() const { return window_.alarm_hour(); }
  std::int64_t samples_seen() const { return window_.samples_seen(); }
  bool current_decision() const { return window_.current_decision(); }

  // Forgets all observations (keeps the configuration).
  void reset() { window_.reset(); }

 private:
  VoteConfig vote_;
  std::vector<float> ring_;  // last N outputs, circular
  VoteWindow window_;
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
