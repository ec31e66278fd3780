#include "smart/features.h"

#include <algorithm>

#include "common/error.h"

namespace hdd::smart {

std::string FeatureSpec::name() const {
  const auto& info = attribute_info(attr);
  if (!is_change_rate()) return info.abbrev;
  return std::string(info.abbrev) + "_d" +
         std::to_string(change_interval_hours) + "h";
}

FeatureSet basic12_features() {
  FeatureSet fs;
  fs.name = "basic12";
  for (const auto& info : attribute_table()) {
    fs.specs.push_back({info.attr, 0});
  }
  return fs;
}

FeatureSet expert19_features() {
  // The 19 expertise-selected features of [11]: all twelve Table II levels
  // plus 24-hour change rates of the seven attributes an operator would
  // watch (error counters and mechanical health).
  FeatureSet fs;
  fs.name = "expert19";
  for (const auto& info : attribute_table()) {
    fs.specs.push_back({info.attr, 0});
  }
  for (Attr a : {Attr::kRawReadErrorRate, Attr::kReallocatedSectors,
                 Attr::kSeekErrorRate, Attr::kReportedUncorrectable,
                 Attr::kHardwareEccRecovered, Attr::kReallocatedSectorsRaw,
                 Attr::kCurrentPendingSectorRaw}) {
    fs.specs.push_back({a, 24});
  }
  return fs;
}

FeatureSet stat13_features() {
  // Section IV-B: 9 normalized levels + 1 raw level (Current Pending Sector
  // and its raw value excluded) + 6-hour change rates of Raw Read Error
  // Rate, Hardware ECC Recovered and Reallocated Sectors Count (raw value).
  FeatureSet fs;
  fs.name = "stat13";
  for (Attr a : {Attr::kRawReadErrorRate, Attr::kSpinUpTime,
                 Attr::kReallocatedSectors, Attr::kSeekErrorRate,
                 Attr::kPowerOnHours, Attr::kReportedUncorrectable,
                 Attr::kHighFlyWrites, Attr::kTemperatureCelsius,
                 Attr::kHardwareEccRecovered}) {
    fs.specs.push_back({a, 0});
  }
  fs.specs.push_back({Attr::kReallocatedSectorsRaw, 0});
  fs.specs.push_back({Attr::kRawReadErrorRate, 6});
  fs.specs.push_back({Attr::kHardwareEccRecovered, 6});
  fs.specs.push_back({Attr::kReallocatedSectorsRaw, 6});
  return fs;
}

std::size_t FeatureSet::window_samples() const {
  int longest = 0;
  for (const FeatureSpec& spec : specs) {
    longest = std::max(longest, spec.change_interval_hours);
  }
  return static_cast<std::size_t>(longest) + 1;
}

void extract_row(std::span<const Sample> window, const FeatureSet& fs,
                 float* row) {
  const Sample& now = window.back();
  // Rates over one interval share their past sample; every preset lists
  // them together, so each distinct interval is scanned once per row.
  int interval = 0;
  const Sample* past = nullptr;
  for (std::size_t f = 0; f < fs.specs.size(); ++f) {
    const FeatureSpec& spec = fs.specs[f];
    if (!spec.is_change_rate()) {
      row[f] = now.value(spec.attr);
      continue;
    }
    if (spec.change_interval_hours != interval) {
      interval = spec.change_interval_hours;
      const std::int64_t want = now.hour - interval;
      past = nullptr;
      for (std::size_t j = window.size() - 1; j-- > 0;) {
        if (window[j].hour <= want) {
          past = &window[j];
          break;
        }
      }
    }
    row[f] = past == nullptr
                 ? 0.0f
                 : (now.value(spec.attr) - past->value(spec.attr)) /
                       static_cast<float>(now.hour - past->hour);
  }
}

std::optional<std::vector<float>> extract_features(const DriveRecord& drive,
                                                   std::size_t index,
                                                   const FeatureSet& fs) {
  if (index >= drive.samples.size()) return std::nullopt;
  std::vector<float> row(fs.specs.size());
  extract_row(std::span(drive.samples).first(index + 1), fs, row.data());
  return row;
}

void extract_features_block(const DriveRecord& drive, std::size_t begin,
                            std::size_t end, const FeatureSet& fs,
                            std::vector<float>& out) {
  HDD_REQUIRE(!fs.specs.empty(), "empty feature set");
  HDD_REQUIRE(end <= drive.samples.size(),
              "feature block end past the record");
  if (begin >= end) return;
  const std::size_t base = out.size();
  out.resize(base + (end - begin) * fs.specs.size());
  float* row = out.data() + base;
  const std::span<const Sample> samples(drive.samples);
  for (std::size_t i = begin; i < end; ++i, row += fs.specs.size()) {
    extract_row(samples.first(i + 1), fs, row);
  }
}

}  // namespace hdd::smart
