// Health-degree model (Section III-B / V-C).
//
// A Regression Tree whose failed-sample targets encode closeness to failure:
//   global window (Eq. 5):        h(i)  = -1 + i / w
//   personalized window (Eq. 6):  hd(i) = -1 + i / w_d
// where i is hours before failure and w_d is the drive's own deterioration
// window, estimated by first training a CT model and measuring its time in
// advance on each failed training drive (drives the CT misses fall back to
// a 24 h global window, as in the paper).
//
// The trained model outputs a real health degree in [-1, 1]; detection uses
// the average-of-last-N-outputs rule against a tunable threshold, which is
// what gives the fine FDR/FAR trade-off of Figure 10, and warnings can be
// processed in order of health (WarningQueue).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "tree/tree.h"

namespace hdd::core {

struct HealthModelConfig {
  // Windowing mode.
  bool personalized = true;       // Eq. 6 (true) vs Eq. 5 (false)
  int global_window_hours = 168;  // w for Eq. 5
  int fallback_window_hours = 24; // for drives the CT misses (Eq. 6 path)

  // Failed samples per drive used to train the RT (12 evenly spaced).
  int failed_samples_per_drive = 12;

  // The CT used to estimate per-drive windows (Eq. 6) — defaults to the
  // paper's CT configuration.
  PredictorConfig ct_config = paper_ct_config();

  // RT split/pruning parameters (the paper reuses the CT values).
  tree::TreeParams rt_params;

  // Detection: average of the last N outputs vs threshold.
  int voters = 11;
  double threshold = -0.2;
};

class HealthDegreeModel {
 public:
  explicit HealthDegreeModel(HealthModelConfig config = {});

  const HealthModelConfig& config() const { return config_; }

  // Trains CT (when personalized) then RT on the train side of the split.
  void fit(const data::DriveDataset& dataset, const data::DatasetSplit& split);

  bool trained() const { return rt_.trained(); }

  // Real-valued health degree of one sample (-1 failing .. +1 healthy).
  double health(const smart::DriveRecord& drive,
                std::size_t sample_index) const;

  // Sample-level model for the evaluation harness.
  eval::BatchSampleModel sample_model() const;

  // Drive-level detection using average-mode voting at the configured
  // threshold.
  eval::DriveOutcome detect(const smart::DriveRecord& drive,
                            std::size_t begin_index = 0) const;

  eval::EvalResult evaluate(const data::DriveDataset& dataset,
                            const data::DatasetSplit& split,
                            double threshold) const;

  const tree::DecisionTree& regression_tree() const { return rt_; }

  // Per-drive personalized windows chosen during fit (serial -> hours);
  // empty in global mode. Exposed for tests and EXPERIMENTS.md.
  const std::vector<std::pair<std::string, int>>& windows() const {
    return windows_;
  }

 private:
  HealthModelConfig config_;
  tree::DecisionTree rt_;
  std::vector<std::pair<std::string, int>> windows_;
};

// Priority queue of drive warnings ordered by health degree (worst first) —
// "deal with warnings in order of their health degrees" (Section I).
struct Warning {
  std::string serial;
  double health = 0.0;
  std::int64_t hour = 0;
};

class WarningQueue {
 public:
  void push(Warning w);
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  // Removes and returns the most at-risk warning (lowest health).
  Warning pop();

 private:
  std::vector<Warning> heap_;  // min-heap on health
};

}  // namespace hdd::core
