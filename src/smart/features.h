// Feature specifications and extraction.
//
// A feature is either the current level of a SMART attribute or its change
// rate over an interval ("the 6-hour change rate of Raw Read Error Rate").
// The paper evaluates three feature sets (Table III):
//   * basic12  — the twelve Table II attributes, levels only;
//   * expert19 — the nineteen features chosen by expertise in the authors'
//                previous work [11] (12 levels + 7 change rates);
//   * stat13   — the thirteen features chosen by the non-parametric
//                statistical pipeline of Section IV-B (9 normalized levels +
//                1 raw level + 3 six-hour change rates).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "smart/drive.h"

namespace hdd::smart {

struct FeatureSpec {
  Attr attr = Attr::kRawReadErrorRate;
  // 0 => current level; >0 => change rate over this many hours:
  // (x[t] - x[p]) / (t - p), where p is the newest sample at or before
  // t - interval.
  int change_interval_hours = 0;

  bool is_change_rate() const { return change_interval_hours > 0; }
  std::string name() const;

  friend bool operator==(const FeatureSpec&, const FeatureSpec&) = default;
};

struct FeatureSet {
  std::string name;
  std::vector<FeatureSpec> specs;

  int size() const { return static_cast<int>(specs.size()); }
  // How many trailing samples a row reads: the largest change interval + 1
  // (1 for a levels-only set). A drive's hours are strictly increasing
  // integers, so the sample `interval` places back is at least `interval`
  // hours old, and each rate's past sample lies in that many samples.
  std::size_t window_samples() const;
};

// The three feature sets of Table III.
FeatureSet basic12_features();
FeatureSet expert19_features();
FeatureSet stat13_features();

// The one feature-row rule, shared by training, evaluation and live intake.
// Fills row[0, fs.size()) with the features of window.back(), given the
// samples before it in chronological order. A change rate takes the newest
// sample at or before t - interval, found by scanning back from the end;
// when there is none (the first `interval` hours of a drive's history) the
// rate is 0: the drive looked stable for as long as it was seen, as a
// production collector would have to assume. Any span holding the last
// fs.window_samples() samples of a drive gives the same row as its whole
// record, across sampling gaps too. `window` must not be empty.
void extract_row(std::span<const Sample> window, const FeatureSet& fs,
                 float* row);

// The row of sample `index` of `drive` (extract_row over the samples up to
// it); nullopt only if `index` is out of range.
std::optional<std::vector<float>> extract_features(const DriveRecord& drive,
                                                   std::size_t index,
                                                   const FeatureSet& fs);

// Rows of samples [begin, end) appended row-major to `out` (no per-row
// allocation). `end` must not exceed the record length; an empty feature
// set is a ConfigError.
void extract_features_block(const DriveRecord& drive, std::size_t begin,
                            std::size_t end, const FeatureSet& fs,
                            std::vector<float>& out);

}  // namespace hdd::smart
