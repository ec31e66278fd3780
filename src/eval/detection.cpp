#include "eval/detection.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"
#include "common/math_util.h"
#include "common/thread_pool.h"

namespace hdd::eval {

BatchSampleModel per_row(
    std::function<double(std::span<const float>)> model) {
  HDD_REQUIRE(static_cast<bool>(model), "null model");
  return [model = std::move(model)](std::span<const float> xs,
                                    std::span<double> out) {
    if (out.empty()) return;
    const std::size_t nf = xs.size() / out.size();
    for (std::size_t r = 0; r < out.size(); ++r) {
      out[r] = model(xs.subspan(r * nf, nf));
    }
  };
}

std::vector<TestDrive> test_drives(const data::DriveDataset& dataset,
                                   const data::DatasetSplit& split) {
  std::vector<TestDrive> jobs;
  for (std::size_t k = 0; k < split.good_drives.size(); ++k) {
    const auto& d = dataset.drives[split.good_drives[k]];
    const std::size_t begin = split.good_test_begin[k];
    if (begin >= d.samples.size()) continue;  // no test samples
    jobs.push_back({split.good_drives[k], begin});
  }
  for (std::size_t di : split.test_failed) {
    if (dataset.drives[di].empty()) continue;
    jobs.push_back({di, 0});
  }
  return jobs;
}

std::vector<DriveScores> score_dataset_batch(
    const data::DriveDataset& dataset, const data::DatasetSplit& split,
    const smart::FeatureSet& features, const BatchSampleModel& model,
    std::size_t block_rows) {
  HDD_REQUIRE(static_cast<bool>(model), "null model");
  const auto jobs = test_drives(dataset, split);
  std::vector<DriveScores> out(jobs.size());
  ThreadPool::global().parallel_for(0, jobs.size(), [&](std::size_t j) {
    out[j] = score_record_batch(dataset.drives[jobs[j].drive], jobs[j].begin,
                                features, model, block_rows);
  });
  return out;
}

DriveScores score_record_batch(const smart::DriveRecord& drive,
                               std::size_t begin,
                               const smart::FeatureSet& features,
                               const BatchSampleModel& model,
                               std::size_t block_rows) {
  HDD_REQUIRE(block_rows >= 1, "block_rows must be >= 1");
  DriveScores s;
  s.failed = drive.failed;
  s.fail_hour = drive.fail_hour;
  const std::size_t n = drive.samples.size();
  if (begin >= n) return s;
  s.hours.reserve(n - begin);
  s.outputs.reserve(n - begin);
  std::vector<float> xbuf;
  std::vector<double> obuf;
  for (std::size_t base = begin; base < n; base += block_rows) {
    const std::size_t hi = std::min(base + block_rows, n);
    xbuf.clear();
    smart::extract_features_block(drive, base, hi, features, xbuf);
    obuf.resize(hi - base);
    model(xbuf, obuf);
    for (std::size_t i = base; i < hi; ++i) {
      s.hours.push_back(drive.samples[i].hour);
      s.outputs.push_back(static_cast<float>(obuf[i - base]));
    }
  }
  return s;
}

void VoteWindow::check(const VoteConfig& vote) {
  HDD_REQUIRE(vote.voters >= 1, "voters must be >= 1");
  HDD_REQUIRE(vote.voters <= 65535, "voters must be <= 65535");
}

bool VoteWindow::finish(const VoteConfig& vote, std::int64_t last_hour) {
  if (alarmed() || filled_ == 0 ||
      filled_ >= static_cast<std::size_t>(vote.voters) ||
      !current_decision()) {
    return false;
  }
  flags_ |= kAlarmed;
  alarm_hour_ = last_hour;
  return true;
}

DriveVoteState::DriveVoteState(const VoteConfig& vote) : vote_(vote) {
  VoteWindow::check(vote_);
  ring_.assign(static_cast<std::size_t>(vote_.voters), 0.0f);
}

DriveOutcome vote_drive(const DriveScores& scores, const VoteConfig& config) {
  DriveVoteState state(config);
  for (std::size_t i = 0; i < scores.outputs.size(); ++i) {
    if (state.push(scores.hours[i], scores.outputs[i])) break;
  }
  if (!scores.hours.empty()) state.finish(scores.hours.back());
  return {state.alarmed(), state.alarm_hour()};
}

double EvalResult::mean_tia() const {
  if (tia_hours.empty()) return 0.0;
  double s = 0.0;
  for (double t : tia_hours) s += t;
  return s / static_cast<double>(tia_hours.size());
}

void EvalResult::add(bool failed, std::int64_t fail_hour,
                     const DriveOutcome& outcome) {
  if (failed) {
    ++n_failed;
    if (outcome.alarmed) {
      ++detections;
      tia_hours.push_back(static_cast<double>(fail_hour - outcome.alarm_hour));
    }
  } else {
    ++n_good;
    if (outcome.alarmed) ++false_alarms;
  }
}

EvalResult evaluate_votes(const std::vector<DriveScores>& scores,
                          const VoteConfig& config) {
  EvalResult r;
  for (const auto& s : scores) {
    r.add(s.failed, s.fail_hour, vote_drive(s, config));
  }
  return r;
}

EvalResult evaluate_batch(const data::DriveDataset& dataset,
                          const data::DatasetSplit& split,
                          const smart::FeatureSet& features,
                          const BatchSampleModel& model,
                          const VoteConfig& config) {
  return evaluate_votes(score_dataset_batch(dataset, split, features, model),
                        config);
}

EvalResult evaluate_detector(const data::DriveDataset& dataset,
                             const data::DatasetSplit& split,
                             const DriveDetector& detect) {
  const auto jobs = test_drives(dataset, split);
  std::vector<DriveOutcome> outcomes(jobs.size());
  ThreadPool::global().parallel_for(0, jobs.size(), [&](std::size_t j) {
    outcomes[j] = detect(dataset.drives[jobs[j].drive], jobs[j].begin);
  });
  EvalResult r;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto& d = dataset.drives[jobs[j].drive];
    r.add(d.failed, d.fail_hour, outcomes[j]);
  }
  return r;
}

const char* const kTiaBucketLabels[5] = {"0-24", "25-72", "73-168", "169-336",
                                         "337-450+"};

std::vector<std::size_t> tia_histogram(std::span<const double> tia_hours) {
  std::vector<std::size_t> buckets(5, 0);
  for (double t : tia_hours) {
    if (t <= 24.0) ++buckets[0];
    else if (t <= 72.0) ++buckets[1];
    else if (t <= 168.0) ++buckets[2];
    else if (t <= 336.0) ++buckets[3];
    else ++buckets[4];
  }
  return buckets;
}

std::vector<RocPoint> roc_over_voters(const std::vector<DriveScores>& scores,
                                      std::span<const int> voter_counts) {
  std::vector<RocPoint> points;
  points.reserve(voter_counts.size());
  for (int n : voter_counts) {
    VoteConfig cfg;
    cfg.voters = n;
    const EvalResult r = evaluate_votes(scores, cfg);
    points.push_back({r.far(), r.fdr(), static_cast<double>(n),
                      r.mean_tia()});
  }
  return points;
}

std::vector<RocPoint> roc_over_thresholds(
    const std::vector<DriveScores>& scores, int voters,
    std::span<const double> thresholds) {
  std::vector<RocPoint> points;
  points.reserve(thresholds.size());
  for (double t : thresholds) {
    VoteConfig cfg;
    cfg.voters = voters;
    cfg.average_mode = true;
    cfg.threshold = t;
    const EvalResult r = evaluate_votes(scores, cfg);
    points.push_back({r.far(), r.fdr(), t, r.mean_tia()});
  }
  return points;
}

}  // namespace hdd::eval
