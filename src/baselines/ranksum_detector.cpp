#include "baselines/ranksum_detector.h"

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"
#include "stats/nonparametric.h"

namespace hdd::baselines {

void RankSumConfig::validate() const {
  HDD_REQUIRE(window_samples >= 3, "window_samples must be >= 3");
  HDD_REQUIRE(reference_size >= 10, "reference_size must be >= 10");
  HDD_REQUIRE(z_critical > 0.0, "z_critical must be positive");
}

void RankSumDetector::fit(const data::DataMatrix& m,
                          const smart::FeatureSet& features,
                          const RankSumConfig& config) {
  config.validate();
  HDD_REQUIRE(m.cols() == features.size(),
              "matrix layout does not match the feature set");
  features_ = features;
  config_ = config;

  // Indices of good rows; subsample down to reference_size.
  std::vector<std::size_t> good;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    if (m.target(r) > 0.0f) good.push_back(r);
  }
  HDD_REQUIRE(!good.empty(), "no good rows for the reference");
  Rng rng(config.seed);
  if (good.size() > static_cast<std::size_t>(config.reference_size)) {
    const auto perm = rng.permutation(good.size());
    std::vector<std::size_t> pick;
    pick.reserve(static_cast<std::size_t>(config.reference_size));
    for (int i = 0; i < config.reference_size; ++i) {
      pick.push_back(good[perm[static_cast<std::size_t>(i)]]);
    }
    good = std::move(pick);
  }

  const auto cols = static_cast<std::size_t>(m.cols());
  reference_.assign(cols, {});
  for (std::size_t f = 0; f < cols; ++f) {
    auto& ref = reference_[f];
    ref.reserve(good.size());
    for (std::size_t r : good) ref.push_back(m.row(r)[f]);
    std::sort(ref.begin(), ref.end());
  }
}

eval::DriveOutcome RankSumDetector::detect(const smart::DriveRecord& drive,
                                           std::size_t begin) const {
  HDD_REQUIRE(trained(), "detect on an untrained RankSumDetector");
  eval::DriveOutcome outcome;
  const std::size_t n = drive.samples.size();
  if (begin >= n) return outcome;

  // Extract all feature rows once.
  std::vector<std::vector<double>> series(reference_.size());
  std::vector<std::int64_t> hours;
  for (std::size_t i = begin; i < n; ++i) {
    const auto row = smart::extract_features(drive, i, features_);
    for (std::size_t f = 0; f < series.size(); ++f) {
      series[f].push_back((*row)[f]);
    }
    hours.push_back(drive.samples[i].hour);
  }

  const auto window = static_cast<std::size_t>(config_.window_samples);
  for (std::size_t t = 0; t + begin < n; ++t) {
    if (t + 1 < window) continue;  // window not yet filled
    for (std::size_t f = 0; f < series.size(); ++f) {
      const std::span<const double> recent(series[f].data() + (t + 1 - window),
                                           window);
      const auto result = stats::rank_sum_test(recent, reference_[f]);
      // Health attributes drop as drives deteriorate: one-sided low test.
      if (result.z < -config_.z_critical) {
        outcome.alarmed = true;
        outcome.alarm_hour = hours[t];
        return outcome;
      }
    }
  }
  return outcome;
}

eval::EvalResult RankSumDetector::evaluate(
    const data::DriveDataset& dataset, const data::DatasetSplit& split) const {
  return eval::evaluate_detector(
      dataset, split,
      [this](const smart::DriveRecord& drive, std::size_t begin) {
        return detect(drive, begin);
      });
}

}  // namespace hdd::baselines
