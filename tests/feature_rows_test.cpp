// Live feature rows equal offline rows. Training and evaluation build a
// drive's rows over its whole record (smart::extract_features_block);
// FleetScorer builds them over the samples it keeps per drive. Both go
// through smart::extract_row, and for strictly increasing hours a window
// of the last FeatureSet::window_samples() samples gives the whole
// record's row, sampling gaps included. A recording scorer captures every
// row FleetScorer scores through observe_samples, ingest_runs and
// resume_from, and each is compared bit for bit with the offline row.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/fleet.h"
#include "core/scorer.h"
#include "smart/features.h"
#include "store/telemetry_store.h"

namespace hdd::core {
namespace {

namespace fs = std::filesystem;

// Appends every row it is asked to score; every row votes healthy. The
// fleets below run on a one-thread pool, so rows arrive in scoring order.
class RecordingScorer final : public SampleScorer {
 public:
  explicit RecordingScorer(int width) : width_(width) {}
  double predict(std::span<const float> x) const override {
    rows_.insert(rows_.end(), x.begin(), x.end());
    return 1.0;
  }
  void predict_batch(std::span<const float> xs,
                     std::span<double> out) const override {
    rows_.insert(rows_.end(), xs.begin(), xs.end());
    std::fill(out.begin(), out.end(), 1.0);
  }
  int num_features() const override { return width_; }
  std::string summary() const override { return "recording"; }
  std::vector<float> take() const { return std::exchange(rows_, {}); }

 private:
  int width_;
  mutable std::vector<float> rows_;
};

FleetScorerConfig config_for(const smart::FeatureSet& features,
                             ThreadPool& pool) {
  FleetScorerConfig cfg;
  cfg.features = features;
  cfg.vote.voters = 3;
  cfg.block_rows = 3;  // several blocks per call
  cfg.pool = &pool;
  return cfg;
}

// Rows equal bit for bit; on failure names the first row that differs.
::testing::AssertionResult same_rows(const std::vector<float>& live,
                                     const std::vector<float>& offline,
                                     std::size_t nf) {
  if (live.size() != offline.size()) {
    return ::testing::AssertionFailure()
           << "live scored " << live.size() / nf << " rows, offline has "
           << offline.size() / nf;
  }
  for (std::size_t k = 0; k < live.size(); ++k) {
    if (std::memcmp(&live[k], &offline[k], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "row " << k / nf << " feature " << k % nf << ": live "
             << live[k] << ", offline " << offline[k];
    }
  }
  return ::testing::AssertionSuccess();
}

// The offline rows of `d`'s samples [begin, end), appended to `out`.
void offline_rows(const smart::DriveRecord& d, std::size_t begin,
                  std::size_t end, const smart::FeatureSet& features,
                  std::vector<float>& out) {
  smart::extract_features_block(d, begin, end, features, out);
}

smart::Sample lost_reading(std::int64_t hour) {
  smart::Sample s;
  s.hour = hour;
  s.attrs.fill(std::numeric_limits<float>::quiet_NaN());
  return s;
}

// One drive sampled at hours 0 and 30: across the gap, the 6-hour rate
// reaches back to hour 0 ((30 - 60) / 30 = -1), live as offline.
smart::DriveRecord gap_drive() {
  smart::DriveRecord d;
  d.serial = "gap";
  for (const auto& [hour, temp] :
       {std::pair{0, 60.0f}, std::pair{30, 30.0f}}) {
    smart::Sample s;
    s.hour = hour;
    s.set(smart::Attr::kTemperatureCelsius, temp);
    d.samples.push_back(s);
  }
  return d;
}

const smart::FeatureSet kTemp6{"t6", {{smart::Attr::kTemperatureCelsius, 6}}};

TEST(LiveRows, RateAcrossALongGapMatchesOfflineInObserveSamples) {
  const smart::DriveRecord d = gap_drive();
  std::vector<float> offline;
  offline_rows(d, 0, d.samples.size(), kTemp6, offline);
  ASSERT_EQ(offline, (std::vector<float>{0.0f, -1.0f}));

  ThreadPool pool(1);
  const RecordingScorer rec(1);
  FleetScorer f(rec, config_for(kTemp6, pool));
  f.add_drive(d.serial);
  for (const smart::Sample& s : d.samples) f.observe_samples({&s, 1}, s.hour);
  EXPECT_TRUE(same_rows(rec.take(), offline, 1));
}

TEST(LiveRows, RateAcrossALongGapMatchesOfflineInIngestRuns) {
  const smart::DriveRecord d = gap_drive();
  std::vector<float> offline;
  offline_rows(d, 0, d.samples.size(), kTemp6, offline);

  ThreadPool pool(1);
  const RecordingScorer rec(1);
  FleetScorer f(rec, config_for(kTemp6, pool));
  f.add_drive(d.serial);
  for (const smart::Sample& s : d.samples) {
    const DriveRun run{0, {&s, 1}};
    f.ingest_runs({&run, 1});
  }
  EXPECT_TRUE(same_rows(rec.take(), offline, 1));
}

int longest_interval(const smart::FeatureSet& features) {
  int longest = 0;
  for (const auto& spec : features.specs) {
    longest = std::max(longest, spec.change_interval_hours);
  }
  return longest;
}

// Drives with strictly increasing hours: mostly hourly, with gaps of up to
// four times the set's longest interval (an hour-trimmed history of 4x the
// interval loses the past sample beyond 3x).
std::vector<smart::DriveRecord> random_fleet(const smart::FeatureSet& features,
                                             std::uint64_t seed) {
  Rng rng(seed);
  const auto max_gap =
      static_cast<std::uint64_t>(4 * std::max(1, longest_interval(features)));
  std::vector<smart::DriveRecord> drives(5);
  for (std::size_t d = 0; d < drives.size(); ++d) {
    drives[d].serial = "drive-" + std::to_string(d);
    auto hour = static_cast<std::int64_t>(rng.uniform_int(4));
    const std::size_t n = 20 + rng.uniform_int(60);
    for (std::size_t k = 0; k < n; ++k) {
      smart::Sample s;
      s.hour = hour;
      for (float& v : s.attrs) v = static_cast<float>(100.0 * rng.uniform());
      drives[d].samples.push_back(s);
      hour += rng.uniform() < 0.6
                  ? 1
                  : 1 + static_cast<std::int64_t>(rng.uniform_int(max_gap));
    }
  }
  return drives;
}

struct PropertyCase {
  smart::FeatureSet features;
  std::uint64_t seed;
};

std::vector<PropertyCase> property_cases() {
  // Rates of 1, 6 and 24 h, interleaved so no interval is listed once.
  const smart::FeatureSet mixed{
      "mixed",
      {{smart::Attr::kTemperatureCelsius, 0},
       {smart::Attr::kRawReadErrorRate, 1},
       {smart::Attr::kTemperatureCelsius, 6},
       {smart::Attr::kHardwareEccRecovered, 24},
       {smart::Attr::kPowerOnHours, 0},
       {smart::Attr::kTemperatureCelsius, 1},
       {smart::Attr::kSeekErrorRate, 6}}};
  std::vector<PropertyCase> out;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const smart::FeatureSet& fs :
         {smart::basic12_features(), smart::expert19_features(),
          smart::stat13_features(), mixed}) {
      out.push_back({fs, seed});
    }
  }
  return out;
}

class LiveRowsProperty : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("hdd_feature_rows_") + info->name());
    fs::remove_all(dir_);
    // Lost readings are quarantined with one warn line per interval.
    level_ = log_level();
    set_log_level(LogLevel::kError);
  }
  void TearDown() override {
    set_log_level(level_);
    fs::remove_all(dir_);
  }
  fs::path dir_;
  LogLevel level_ = LogLevel::kInfo;
};

// observe_samples: one lockstep interval per hour any drive reports; a
// drive without a reading that hour sends a lost one (NaN, quarantined).
TEST_F(LiveRowsProperty, ObserveSamplesScoresTheOfflineRows) {
  for (const PropertyCase& c : property_cases()) {
    SCOPED_TRACE(c.features.name + " seed " + std::to_string(c.seed));
    const auto drives = random_fleet(c.features, c.seed);
    const auto nf = static_cast<std::size_t>(c.features.size());
    std::vector<std::int64_t> hours;
    for (const auto& d : drives) {
      for (const auto& s : d.samples) hours.push_back(s.hour);
    }
    std::sort(hours.begin(), hours.end());
    hours.erase(std::unique(hours.begin(), hours.end()), hours.end());

    ThreadPool pool(1);
    const RecordingScorer rec(c.features.size());
    FleetScorer f(rec, config_for(c.features, pool));
    for (const auto& d : drives) f.add_drive(d.serial);
    std::vector<std::size_t> next(drives.size(), 0);
    std::vector<float> offline;
    for (const std::int64_t h : hours) {
      std::vector<smart::Sample> interval;
      for (std::size_t d = 0; d < drives.size(); ++d) {
        const auto& samples = drives[d].samples;
        if (next[d] < samples.size() && samples[next[d]].hour == h) {
          interval.push_back(samples[next[d]]);
          offline_rows(drives[d], next[d], next[d] + 1, c.features, offline);
          ++next[d];
        } else {
          interval.push_back(lost_reading(h));
        }
      }
      f.observe_samples(interval, h);
    }
    EXPECT_TRUE(same_rows(rec.take(), offline, nf));
  }
}

// ingest_runs into a journal, resume_from that journal, then ingest_runs
// on the resumed fleet: runs of random length, several drives per call,
// some drives twice in one call, and re-sent runs the stale rule drops.
TEST_F(LiveRowsProperty, IngestRunsAndResumeScoreTheOfflineRows) {
  for (const PropertyCase& c : property_cases()) {
    SCOPED_TRACE(c.features.name + " seed " + std::to_string(c.seed));
    const auto drives = random_fleet(c.features, c.seed);
    const auto nf = static_cast<std::size_t>(c.features.size());
    const std::string dir =
        (dir_ / (c.features.name + std::to_string(c.seed))).string();
    Rng rng(c.seed * 7919);

    // Feeds each drive's samples [next, stop) through ingest_runs calls.
    std::vector<std::size_t> next(drives.size(), 0);
    const auto ingest = [&](FleetScorer& f,
                            const std::vector<std::size_t>& stop) {
      std::vector<float> offline;
      for (;;) {
        std::vector<DriveRun> runs;
        for (int r = 0; r < 4; ++r) {
          const std::size_t d = rng.uniform_int(drives.size());
          const auto& samples = drives[d].samples;
          if (next[d] >= stop[d]) continue;
          if (next[d] > 0 && rng.uniform() < 0.2) {
            // Re-send the last sample: stale, never scored.
            runs.push_back({d, {&samples[next[d] - 1], 1}});
            continue;
          }
          const std::size_t len =
              std::min(stop[d] - next[d], 1 + rng.uniform_int(8));
          runs.push_back({d, {&samples[next[d]], len}});
          offline_rows(drives[d], next[d], next[d] + len, c.features, offline);
          next[d] += len;
        }
        if (!runs.empty()) f.ingest_runs(runs);
        bool done = true;
        for (std::size_t d = 0; d < drives.size(); ++d) {
          done = done && next[d] >= stop[d];
        }
        if (done) return offline;
      }
    };

    std::vector<std::size_t> half(drives.size());
    std::vector<std::size_t> all(drives.size());
    for (std::size_t d = 0; d < drives.size(); ++d) {
      all[d] = drives[d].samples.size();
      half[d] = rng.uniform_int(all[d] + 1);
    }
    ThreadPool pool(1);
    const RecordingScorer rec(c.features.size());
    {
      store::TelemetryStore store(dir);
      FleetScorer f(rec, config_for(c.features, pool));
      for (const auto& d : drives) f.add_drive(d.serial);
      f.attach_journal(&store);
      const auto offline = ingest(f, half);
      ASSERT_TRUE(same_rows(rec.take(), offline, nf)) << "ingest_runs";
    }

    store::TelemetryStore store(dir);
    FleetScorer f(rec, config_for(c.features, pool));
    f.resume_from(store, /*drop_partial_tail=*/false);
    std::vector<float> replayed;
    for (std::size_t d = 0; d < drives.size(); ++d) {
      offline_rows(drives[d], 0, half[d], c.features, replayed);
    }
    ASSERT_TRUE(same_rows(rec.take(), replayed, nf)) << "resume_from";

    f.attach_journal(&store);
    const auto offline = ingest(f, all);
    EXPECT_TRUE(same_rows(rec.take(), offline, nf)) << "after resume";
  }
}

}  // namespace
}  // namespace hdd::core
