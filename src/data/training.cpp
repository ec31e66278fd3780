#include "data/training.h"

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hdd::data {

DataMatrix build_training_matrix(const DriveDataset& dataset,
                                 const DatasetSplit& split,
                                 const TrainingConfig& config,
                                 const FailedTargetFn& failed_target,
                                 const FailedWindowFn& failed_window) {
  // Training runs cold, so the registry lookup per call is fine.
  obs::Registry& reg = obs::Registry::global();
  const obs::ScopedSpan span(
      "train.build_matrix",
      &reg.histogram("hdd_train_build_matrix_ns",
                     "build_training_matrix wall time (ns)."));
  obs::Counter& rows = reg.counter("hdd_train_matrix_rows_total",
                                   "Rows emitted into training matrices.");
  HDD_REQUIRE(!config.features.specs.empty(), "empty feature set");
  HDD_REQUIRE(config.good_samples_per_drive > 0,
              "good_samples_per_drive must be positive");
  HDD_REQUIRE(config.failed_window_hours > 0,
              "failed_window_hours must be positive");

  DataMatrix m(config.features.size());
  Rng rng(config.seed);

  // Good samples: random draws from each good drive's train period.
  for (std::size_t k = 0; k < split.good_drives.size(); ++k) {
    const auto& d = dataset.drives[split.good_drives[k]];
    const std::size_t train_end = split.good_test_begin[k];
    if (train_end == 0) continue;
    for (int s = 0; s < config.good_samples_per_drive; ++s) {
      const std::size_t idx = rng.uniform_int(train_end);
      const auto row = smart::extract_features(d, idx, config.features);
      m.add_row(*row, config.good_target, 1.0f);
    }
  }

  // Failed samples: everything (or an even subset) within the time window.
  for (std::size_t di : split.train_failed) {
    const auto& d = dataset.drives[di];
    if (d.empty()) continue;
    const int window =
        failed_window ? failed_window(d) : config.failed_window_hours;
    std::vector<std::size_t> in_window;
    for (std::size_t i = 0; i < d.samples.size(); ++i) {
      const std::int64_t before = d.fail_hour - d.samples[i].hour;
      if (before >= 0 && before <= window) {
        in_window.push_back(i);
      }
    }
    if (in_window.empty()) continue;

    std::vector<std::size_t> chosen;
    if (config.failed_samples_per_drive > 0 &&
        static_cast<std::size_t>(config.failed_samples_per_drive) <
            in_window.size()) {
      const auto want =
          static_cast<std::size_t>(config.failed_samples_per_drive);
      for (std::size_t j = 0; j < want; ++j) {
        // Evenly spaced over the window, first and last included.
        const std::size_t pos =
            want == 1 ? in_window.size() - 1
                      : j * (in_window.size() - 1) / (want - 1);
        chosen.push_back(in_window[pos]);
      }
      chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
    } else {
      chosen = in_window;
    }

    for (std::size_t idx : chosen) {
      const auto row = smart::extract_features(d, idx, config.features);
      float target = config.failed_target;
      if (failed_target) {
        target = failed_target(d, d.fail_hour - d.samples[idx].hour);
      }
      m.add_row(*row, target, 1.0f);
    }
  }

  HDD_REQUIRE(m.rows() > 0, "training matrix is empty");
  rows.inc(m.rows());

  // Prior adjustment: boost the failed class to `failed_prior` of the total
  // weight (the paper's 20/80 redistribution).
  if (config.failed_prior > 0.0) {
    const double wf = m.weight_of_class(true);
    const double wg = m.weight_of_class(false);
    if (wf > 0.0 && wg > 0.0) {
      const double factor =
          config.failed_prior / (1.0 - config.failed_prior) * wg / wf;
      m.scale_class_weight(true, factor);
    }
  }

  // Loss matrix via altered priors: a false alarm costs `loss_false_alarm`,
  // a missed detection costs `loss_missed_detection`.
  if (config.loss_false_alarm != 1.0) {
    m.scale_class_weight(false, config.loss_false_alarm);
  }
  if (config.loss_missed_detection != 1.0) {
    m.scale_class_weight(true, config.loss_missed_detection);
  }
  return m;
}

}  // namespace hdd::data
