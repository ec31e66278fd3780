#include "stats/feature_select.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "stats/nonparametric.h"

namespace hdd::stats {

namespace {

// Evaluates one candidate feature over one drive's samples in [from, to],
// appending values to `out`.
void candidate_values(const smart::DriveRecord& drive,
                      const smart::FeatureSpec& spec, std::int64_t from,
                      std::int64_t to, std::vector<double>& out) {
  const smart::FeatureSet fs{"one", {spec}};
  const auto [first, last] = drive.samples_between(from, to);
  std::vector<float> rows;
  smart::extract_features_block(drive, first, last, fs, rows);
  for (float v : rows) out.push_back(static_cast<double>(v));
}

}  // namespace

std::vector<CandidateScore> score_candidates(
    const data::DriveDataset& dataset, const FeatureSelectionConfig& config) {
  HDD_REQUIRE(config.good_samples_per_drive > 0,
              "need at least one good sample per drive");

  // Build the candidate list: levels + change rates.
  std::vector<smart::FeatureSpec> candidates;
  for (const auto& info : smart::attribute_table()) {
    candidates.push_back({info.attr, 0});
  }
  for (int interval : config.change_intervals) {
    for (const auto& info : smart::attribute_table()) {
      candidates.push_back({info.attr, interval});
    }
  }

  Rng rng(config.seed);

  // Pre-pick good sample indices per drive (shared across candidates so all
  // candidates see the same data).
  std::vector<std::pair<std::size_t, std::size_t>> good_picks;  // drive, idx
  std::vector<std::size_t> failed_drives;
  for (std::size_t di = 0; di < dataset.drives.size(); ++di) {
    const auto& d = dataset.drives[di];
    if (d.empty()) continue;
    if (d.failed) {
      failed_drives.push_back(di);
    } else {
      for (int k = 0; k < config.good_samples_per_drive; ++k) {
        good_picks.emplace_back(di, rng.uniform_int(d.samples.size()));
      }
    }
  }
  HDD_REQUIRE(!failed_drives.empty() && !good_picks.empty(),
              "feature selection needs both classes");

  std::vector<CandidateScore> scores;
  scores.reserve(candidates.size());
  for (const auto& spec : candidates) {
    CandidateScore cs;
    cs.spec = spec;
    const smart::FeatureSet one{"one", {spec}};

    // Good sample values at the pre-picked indices.
    std::vector<double> good_vals;
    good_vals.reserve(good_picks.size());
    for (const auto& [di, si] : good_picks) {
      auto row = smart::extract_features(dataset.drives[di], si, one);
      good_vals.push_back(static_cast<double>((*row)[0]));
    }

    // Failed sample values from the deterioration window, plus per-drive
    // trend z over the same window.
    std::vector<double> failed_vals;
    double trend_sum = 0.0;
    std::size_t trend_n = 0;
    for (std::size_t di : failed_drives) {
      const auto& d = dataset.drives[di];
      const std::int64_t to = d.fail_hour;
      const std::int64_t from = to - config.failed_window_hours;
      std::vector<double> series;
      candidate_values(d, spec, from, to, series);
      for (double v : series) failed_vals.push_back(v);
      if (series.size() >= 3) {
        trend_sum += std::fabs(reverse_arrangements_test(series).z);
        ++trend_n;
      }
    }
    if (failed_vals.empty()) {
      scores.push_back(cs);
      continue;
    }

    cs.rank_sum_z = std::fabs(rank_sum_test(failed_vals, good_vals).z);
    cs.trend_z = trend_n ? trend_sum / static_cast<double>(trend_n) : 0.0;
    cs.zscore = mean_abs_zscore(failed_vals, good_vals);
    scores.push_back(cs);
  }

  std::sort(scores.begin(), scores.end(),
            [](const CandidateScore& a, const CandidateScore& b) {
              return a.combined() > b.combined();
            });
  return scores;
}

smart::FeatureSet select_features(const data::DriveDataset& dataset,
                                  const FeatureSelectionConfig& config) {
  const auto scores = score_candidates(dataset, config);
  smart::FeatureSet fs;
  fs.name = "selected";
  int levels = 0, rates = 0;
  for (const auto& cs : scores) {
    if (cs.spec.is_change_rate()) {
      if (rates >= config.n_rates) continue;
      // Keep at most one interval per attribute.
      bool dup = false;
      for (const auto& s : fs.specs) {
        if (s.is_change_rate() && s.attr == cs.spec.attr) dup = true;
      }
      if (dup) continue;
      ++rates;
    } else {
      if (levels >= config.n_levels) continue;
      ++levels;
    }
    fs.specs.push_back(cs.spec);
    if (levels >= config.n_levels && rates >= config.n_rates) break;
  }
  return fs;
}

}  // namespace hdd::stats
