// Wilcoxon rank-sum failure-warning detector — Hughes et al. [8]: compare a
// drive's recent attribute values against a stored reference of known-good
// samples; warn when the rank-sum statistic is significant ("60% detection
// at 0.5% FAR" in their study). Implements the OR-ed single-variate
// strategy: each feature is tested independently and any significant
// feature raises the warning.
//
// Unlike the sample-level models, this detector is inherently windowed
// (it tests a set of recent samples), so it exposes a drive-level detect()
// rather than a sample-level model.
#pragma once

#include <cstdint>
#include <vector>

#include "data/training.h"
#include "eval/detection.h"
#include "smart/features.h"

namespace hdd::baselines {

struct RankSumConfig {
  // Number of recent samples tested at each time point.
  int window_samples = 24;
  // Reference good samples stored per feature.
  int reference_size = 2000;
  // One-sided critical value on the z statistic: warn when the window
  // ranks significantly *lower* than the reference (health dropping).
  // Note this is far beyond the textbook 3.1 (p < 1e-3): with a pooled
  // reference over a heterogeneous fleet, a healthy drive whose personal
  // baseline sits a little low ranks "significantly" low at every time
  // point, so the usable critical region starts much further out — a real
  // weakness of the pooled rank-sum approach that the comparison bench
  // makes visible.
  double z_critical = 16.0;
  std::uint64_t seed = 1001;

  void validate() const;
};

class RankSumDetector {
 public:
  RankSumDetector() = default;

  // Stores a reference drawn from the good rows of the matrix.
  void fit(const data::DataMatrix& m, const smart::FeatureSet& features,
           const RankSumConfig& config);

  bool trained() const { return !reference_.empty(); }

  // Walks the record from `begin`; the first time point where any feature's
  // window tests significant fixes the alarm.
  eval::DriveOutcome detect(const smart::DriveRecord& drive,
                            std::size_t begin = 0) const;

  // Evaluates the whole test side of a split (drive-level FDR/FAR/TIA).
  eval::EvalResult evaluate(const data::DriveDataset& dataset,
                            const data::DatasetSplit& split) const;

 private:
  smart::FeatureSet features_;
  RankSumConfig config_;
  // reference_[f] is the sorted reference sample for feature f.
  std::vector<std::vector<double>> reference_;
};

}  // namespace hdd::baselines
