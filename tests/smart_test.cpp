// Tests for src/smart: the attribute catalogue, drive records, feature
// specifications, and feature extraction (levels + change rates, missing
// samples, history edges).
#include <gtest/gtest.h>

#include "common/error.h"

#include "smart/attributes.h"
#include "smart/drive.h"
#include "smart/features.h"

namespace hdd::smart {
namespace {

TEST(Attributes, TableHasTwelveEntriesInOrder) {
  const auto& table = attribute_table();
  ASSERT_EQ(table.size(), static_cast<std::size_t>(kNumAttributes));
  for (int i = 0; i < kNumAttributes; ++i) {
    EXPECT_EQ(index_of(table[static_cast<std::size_t>(i)].attr), i);
  }
}

TEST(Attributes, SmartIdsMatchTheStandard) {
  EXPECT_EQ(attribute_info(Attr::kRawReadErrorRate).smart_id, 1);
  EXPECT_EQ(attribute_info(Attr::kSpinUpTime).smart_id, 3);
  EXPECT_EQ(attribute_info(Attr::kReallocatedSectors).smart_id, 5);
  EXPECT_EQ(attribute_info(Attr::kSeekErrorRate).smart_id, 7);
  EXPECT_EQ(attribute_info(Attr::kPowerOnHours).smart_id, 9);
  EXPECT_EQ(attribute_info(Attr::kReportedUncorrectable).smart_id, 187);
  EXPECT_EQ(attribute_info(Attr::kHighFlyWrites).smart_id, 189);
  EXPECT_EQ(attribute_info(Attr::kTemperatureCelsius).smart_id, 194);
  EXPECT_EQ(attribute_info(Attr::kHardwareEccRecovered).smart_id, 195);
  EXPECT_EQ(attribute_info(Attr::kCurrentPendingSector).smart_id, 197);
}

TEST(Attributes, RawFlagsMarkOnlyTheTwoRawValues) {
  int raw_count = 0;
  for (const auto& info : attribute_table()) raw_count += info.raw;
  EXPECT_EQ(raw_count, 2);
  EXPECT_TRUE(attribute_info(Attr::kReallocatedSectorsRaw).raw);
  EXPECT_TRUE(attribute_info(Attr::kCurrentPendingSectorRaw).raw);
}

TEST(Attributes, ParseByNameAndAbbrev) {
  EXPECT_EQ(parse_attribute("Power On Hours"), Attr::kPowerOnHours);
  EXPECT_EQ(parse_attribute("POH"), Attr::kPowerOnHours);
  EXPECT_EQ(parse_attribute("TC"), Attr::kTemperatureCelsius);
  EXPECT_EQ(parse_attribute("definitely not an attribute"), std::nullopt);
}

TEST(Sample, SetAndGetRoundTrip) {
  Sample s;
  s.set(Attr::kSeekErrorRate, 42.5f);
  EXPECT_FLOAT_EQ(s.value(Attr::kSeekErrorRate), 42.5f);
  EXPECT_FLOAT_EQ(s.value(Attr::kPowerOnHours), 0.0f);
}

DriveRecord make_drive(std::vector<std::int64_t> hours) {
  DriveRecord d;
  d.serial = "t";
  for (std::int64_t h : hours) {
    Sample s;
    s.hour = h;
    s.set(Attr::kPowerOnHours, static_cast<float>(100 - h));
    d.samples.push_back(s);
  }
  return d;
}

TEST(DriveRecord, BinarySearchFindsLastSample) {
  const auto d = make_drive({0, 5, 10, 20});
  EXPECT_EQ(d.last_sample_at_or_before(-1), -1);
  EXPECT_EQ(d.last_sample_at_or_before(0), 0);
  EXPECT_EQ(d.last_sample_at_or_before(4), 0);
  EXPECT_EQ(d.last_sample_at_or_before(5), 1);
  EXPECT_EQ(d.last_sample_at_or_before(12), 2);
  EXPECT_EQ(d.last_sample_at_or_before(100), 3);
}

TEST(FeatureSpec, NamesEncodeIntervals) {
  EXPECT_EQ((FeatureSpec{Attr::kPowerOnHours, 0}).name(), "POH");
  EXPECT_EQ((FeatureSpec{Attr::kRawReadErrorRate, 6}).name(), "RRER_d6h");
}

TEST(FeatureSets, SizesMatchTheirNames) {
  EXPECT_EQ(basic12_features().size(), 12);
  EXPECT_EQ(expert19_features().size(), 19);
  EXPECT_EQ(stat13_features().size(), 13);
}

TEST(FeatureSets, Stat13ExcludesCurrentPendingSector) {
  // Section IV-B: CPS and its raw value are excluded by the statistical
  // selection.
  for (const auto& spec : stat13_features().specs) {
    EXPECT_NE(spec.attr, Attr::kCurrentPendingSector);
    EXPECT_NE(spec.attr, Attr::kCurrentPendingSectorRaw);
  }
}

TEST(FeatureSets, Stat13HasThreeSixHourChangeRates) {
  int rates = 0;
  for (const auto& spec : stat13_features().specs) {
    if (spec.is_change_rate()) {
      ++rates;
      EXPECT_EQ(spec.change_interval_hours, 6);
    }
  }
  EXPECT_EQ(rates, 3);
}

TEST(FeatureExtraction, LevelsComeFromTheSample) {
  const auto d = make_drive({0, 1, 2});
  const FeatureSet fs{"poh", {{Attr::kPowerOnHours, 0}}};
  const auto row = extract_features(d, 2, fs);
  ASSERT_TRUE(row.has_value());
  EXPECT_FLOAT_EQ((*row)[0], 98.0f);
}

TEST(FeatureExtraction, OutOfRangeIndexReturnsNullopt) {
  const auto d = make_drive({0, 1});
  const FeatureSet fs{"poh", {{Attr::kPowerOnHours, 0}}};
  EXPECT_FALSE(extract_features(d, 2, fs).has_value());
}

TEST(FeatureExtraction, ChangeRateUsesNearestOlderSample) {
  // POH decreases 1/hour in make_drive, so any rate must be ~ -1.
  const auto d = make_drive({0, 2, 4, 6, 8, 10});
  const FeatureSet fs{"d6", {{Attr::kPowerOnHours, 6}}};
  const auto row = extract_features(d, 5, fs);  // hour 10, past = hour 4
  ASSERT_TRUE(row.has_value());
  EXPECT_FLOAT_EQ((*row)[0], -1.0f);
}

TEST(FeatureExtraction, ChangeRateZeroWithoutHistory) {
  const auto d = make_drive({0, 2});
  const FeatureSet fs{"d6", {{Attr::kPowerOnHours, 6}}};
  const auto row = extract_features(d, 1, fs);  // only 2 h of history
  ASSERT_TRUE(row.has_value());
  EXPECT_FLOAT_EQ((*row)[0], 0.0f);
}

TEST(FeatureExtraction, ChangeRateHandlesIrregularGaps) {
  // Missing samples create gaps; the rate normalizes by the actual gap.
  DriveRecord d;
  for (std::int64_t h : {0, 10}) {
    Sample s;
    s.hour = h;
    s.set(Attr::kTemperatureCelsius, h == 0 ? 60.0f : 40.0f);
    d.samples.push_back(s);
  }
  const FeatureSet fs{"d6", {{Attr::kTemperatureCelsius, 6}}};
  const auto row = extract_features(d, 1, fs);
  ASSERT_TRUE(row.has_value());
  EXPECT_FLOAT_EQ((*row)[0], -2.0f);  // -20 over 10 hours
}

TEST(DriveRecord, SamplesBetweenIsHourInclusive) {
  const auto d = make_drive({0, 5, 10, 15, 20});
  using Range = std::pair<std::size_t, std::size_t>;
  EXPECT_EQ(d.samples_between(5, 15), (Range{1, 4}));
  EXPECT_EQ(d.samples_between(4, 16), (Range{1, 4}));
  EXPECT_EQ(d.samples_between(0, 0), (Range{0, 1}));
  EXPECT_EQ(d.samples_between(-10, 100), (Range{0, 5}));
  EXPECT_EQ(d.samples_between(21, 30), (Range{5, 5}));
  EXPECT_EQ(d.samples_between(6, 9), (Range{2, 2}));
  EXPECT_EQ(d.samples_between(15, 5), (Range{3, 3}));  // empty, not negative
}

TEST(FeatureExtraction, BlockAppendsAcrossCalls) {
  const auto d = make_drive({0, 5, 10});
  const FeatureSet fs{"poh", {{Attr::kPowerOnHours, 0}}};
  std::vector<float> rows;
  const auto [a, b] = d.samples_between(0, 0);
  extract_features_block(d, a, b, fs, rows);
  const auto [c, e] = d.samples_between(5, 10);
  extract_features_block(d, c, e, fs, rows);
  EXPECT_EQ(rows.size(), 3u);
}

TEST(FeatureExtraction, EmptyFeatureSetRejected) {
  const auto d = make_drive({0});
  const FeatureSet fs{"empty", {}};
  std::vector<float> rows;
  EXPECT_THROW(extract_features_block(d, 0, 1, fs, rows), ConfigError);
}

TEST(FeatureExtraction, MultiFeatureRowOrderMatchesSpecs) {
  DriveRecord d;
  Sample s;
  s.hour = 0;
  s.set(Attr::kPowerOnHours, 90.0f);
  s.set(Attr::kTemperatureCelsius, 55.0f);
  d.samples.push_back(s);
  const FeatureSet fs{"two",
                      {{Attr::kTemperatureCelsius, 0},
                       {Attr::kPowerOnHours, 0}}};
  const auto row = extract_features(d, 0, fs);
  ASSERT_TRUE(row.has_value());
  EXPECT_FLOAT_EQ((*row)[0], 55.0f);
  EXPECT_FLOAT_EQ((*row)[1], 90.0f);
}

}  // namespace
}  // namespace hdd::smart
