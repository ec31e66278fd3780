// The kill-and-resume property of journaled streaming (ISSUE acceptance
// criterion): a FleetScorer resumed from its TelemetryStore after an
// interrupt at ANY interval raises byte-identical alarms (drive, hour) to
// the uninterrupted run — including when the interrupt tore the final
// append mid-record.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "core/fleet.h"
#include "core/scorer.h"
#include "io/env.h"
#include "obs/metrics.h"
#include "store/format.h"
#include "store/telemetry_store.h"

namespace hdd::core {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kDrives = 6;
constexpr std::int64_t kHours = 48;

// Deterministic pseudo-random telemetry: every attribute value is a pure
// function of (drive, hour), so any two runs observe identical samples.
float hval(std::uint32_t d, std::int64_t h, std::uint32_t salt) {
  std::uint32_t x = d * 2654435761u +
                    static_cast<std::uint32_t>(h) * 40503u + salt * 97u;
  x ^= x >> 13;
  x *= 2246822519u;
  x ^= x >> 16;
  return static_cast<float>(x & 0xFFFF) / 32768.0f - 1.0f;  // [-1, 1)
}

smart::Sample sample_for(std::uint32_t d, std::int64_t h) {
  smart::Sample s;
  s.hour = h;
  // Per-drive bias so some drives alarm early, some late, some never.
  const float bias = 0.9f * (static_cast<float>(d % 3) - 1.0f);
  s.set(smart::Attr::kRawReadErrorRate, hval(d, h, 1) + bias);
  s.set(smart::Attr::kTemperatureCelsius, 10.0f * hval(d, h, 2));
  return s;
}

std::vector<smart::Sample> interval_at(std::int64_t h) {
  std::vector<smart::Sample> out(kDrives);
  for (std::uint32_t d = 0; d < kDrives; ++d) out[d] = sample_for(d, h);
  return out;
}

// Two features — one level, one 6-hour change rate — so the bounded history
// window actually matters to the score.
smart::FeatureSet two_features() {
  return {"t2",
          {{smart::Attr::kRawReadErrorRate, 0},
           {smart::Attr::kTemperatureCelsius, 6}}};
}

class MixScorer final : public SampleScorer {
 public:
  double predict(std::span<const float> x) const override {
    return static_cast<double>(x[0]) + 0.03 * static_cast<double>(x[1]);
  }
  void predict_batch(std::span<const float> xs,
                     std::span<double> out) const override {
    for (std::size_t r = 0; r < out.size(); ++r) {
      out[r] = predict(xs.subspan(2 * r, 2));
    }
  }
  int num_features() const override { return 2; }
  std::string summary() const override { return "mix"; }
};

FleetScorerConfig test_config() {
  FleetScorerConfig cfg;
  cfg.features = two_features();
  cfg.vote.voters = 5;
  cfg.block_rows = 4;  // exercise multi-block paths with 6 drives
  return cfg;
}

struct Outcome {
  bool alarmed = false;
  std::int64_t alarm_hour = -1;
  bool operator==(const Outcome&) const = default;
};

std::vector<Outcome> outcomes(const FleetScorer& f) {
  std::vector<Outcome> out(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    out[i] = {f.state(i).alarmed(), f.state(i).alarm_hour()};
  }
  return out;
}

// Everything observable about a drive's voting state, window included.
struct VoteSnapshot {
  bool alarmed = false;
  std::int64_t alarm_hour = -1;
  std::int64_t samples_seen = 0;
  bool decision = false;
  bool operator==(const VoteSnapshot&) const = default;
};

std::vector<VoteSnapshot> vote_states(const FleetScorer& f) {
  std::vector<VoteSnapshot> out(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    const eval::VoteWindow& st = f.state(i);
    out[i] = {st.alarmed(), st.alarm_hour(), st.samples_seen(),
              st.current_decision()};
  }
  return out;
}

void add_result(FleetScorer::IngestResult& sum,
                const FleetScorer::IngestResult& r) {
  sum.accepted += r.accepted;
  sum.quarantined += r.quarantined;
  sum.stale += r.stale;
  sum.journal_failed += r.journal_failed;
}

// The ground truth: one uninterrupted streaming run over all kHours.
std::vector<Outcome> baseline_run(const SampleScorer& scorer) {
  FleetScorer f(scorer, test_config());
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    f.add_drive("drive-" + std::to_string(d));
  }
  for (std::int64_t h = 0; h < kHours; ++h) {
    const auto batch = interval_at(h);
    f.observe_samples(batch, h);
  }
  return outcomes(f);
}

class DurableFleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    base_dir_ = fs::temp_directory_path() /
                (std::string("hdd_durable_fleet_") + info->name());
    fs::remove_all(base_dir_);
    fs::create_directories(base_dir_);
  }
  void TearDown() override { fs::remove_all(base_dir_); }

  std::string store_dir(const std::string& tag) const {
    return (base_dir_ / tag).string();
  }

  fs::path base_dir_;
};

TEST_F(DurableFleetTest, ResumeAtAnyIntervalGivesIdenticalAlarms) {
  const MixScorer scorer;
  const auto expected = baseline_run(scorer);
  // The scenario is only meaningful if some — but not all — drives alarm.
  std::size_t n_alarmed = 0;
  for (const auto& o : expected) n_alarmed += o.alarmed ? 1 : 0;
  ASSERT_GT(n_alarmed, 0u);
  ASSERT_LT(n_alarmed, kDrives);

  for (const std::int64_t kill_after : {1, 3, 7, 12, 25, 37, 47, 48}) {
    const std::string dir = store_dir("kill" + std::to_string(kill_after));
    // Phase 1: journaled run, killed after `kill_after` intervals.
    {
      store::TelemetryStore store(dir);
      FleetScorer f(scorer, test_config());
      for (std::uint32_t d = 0; d < kDrives; ++d) {
        f.add_drive("drive-" + std::to_string(d));
      }
      f.attach_journal(&store);
      for (std::int64_t h = 0; h < kill_after; ++h) {
        const auto batch = interval_at(h);
        f.observe_samples(batch, h);
      }
    }  // scorer state is GONE; only the store survives the "crash"

    // Phase 2: fresh process — resume from the log and keep monitoring.
    store::TelemetryStore store(dir);
    FleetScorer f(scorer, test_config());
    const auto r = f.resume_from(store);
    EXPECT_EQ(r.drives, kDrives);
    EXPECT_EQ(r.partial_dropped, 0u);  // clean kill between intervals
    EXPECT_EQ(r.last_hour, kill_after - 1);
    f.attach_journal(&store);
    for (std::int64_t h = r.last_hour + 1; h < kHours; ++h) {
      const auto batch = interval_at(h);
      f.observe_samples(batch, h);
    }

    EXPECT_EQ(outcomes(f), expected)
        << "alarm divergence after kill at interval " << kill_after;
  }
}

TEST_F(DurableFleetTest, ResumeAfterTornAppendGivesIdenticalAlarms) {
  const MixScorer scorer;
  const auto expected = baseline_run(scorer);

  const std::int64_t kill_after = 20;
  const std::string dir = store_dir("torn");
  {
    store::TelemetryStore store(dir);
    FleetScorer f(scorer, test_config());
    for (std::uint32_t d = 0; d < kDrives; ++d) {
      f.add_drive("drive-" + std::to_string(d));
    }
    f.attach_journal(&store);
    for (std::int64_t h = 0; h < kill_after; ++h) {
      const auto batch = interval_at(h);
      f.observe_samples(batch, h);
    }
  }
  // The "crash" tears the final append mid-record: the last drive's sample
  // at hour 19 loses its trailing bytes.
  fs::path seg;
  for (const auto& e : fs::directory_iterator(dir)) seg = e.path();
  ASSERT_FALSE(seg.empty());
  fs::resize_file(seg, fs::file_size(seg) - 5);

  // A private metrics registry for the resumed process: the recovery
  // taxonomy must report exactly what was injected — one torn-tail
  // truncation, nothing else.
  obs::Registry reg;
  store::StoreOptions sopt;
  sopt.metrics = &reg;
  store::TelemetryStore store(dir, sopt);
  EXPECT_TRUE(store.recovery().tail_truncated);
  const char* rec = "hdd_store_recovery_outcomes_total";
  EXPECT_EQ(reg.counter(rec, "", {{"outcome", "torn_tail"}}).value(), 1u);
  EXPECT_EQ(reg.counter(rec, "", {{"outcome", "crc_drop"}}).value(), 0u);
  EXPECT_EQ(reg.counter(rec, "", {{"outcome", "header_skip"}}).value(), 0u);
  EXPECT_EQ(reg.counter(rec, "", {{"outcome", "record_dropped"}}).value(), 0u);
  auto cfg = test_config();
  cfg.metrics = &reg;
  FleetScorer f(scorer, cfg);
  const auto r = f.resume_from(store);
  EXPECT_EQ(reg.counter("hdd_fleet_journal_resume_total", "").value(), 1u);
  EXPECT_EQ(reg.counter("hdd_fleet_resume_samples_total", "").value(),
            r.samples_replayed);
  // The torn interval (hour 19) is dropped for every drive so the fleet
  // resumes aligned...
  EXPECT_EQ(r.partial_dropped, kDrives - 1);
  EXPECT_EQ(r.last_hour, kill_after - 2);
  f.attach_journal(&store);
  // ...and re-observing hour 19 completes it (appends are idempotent per
  // store hour, so drives that kept hour 19 on disk are not duplicated).
  for (std::int64_t h = r.last_hour + 1; h < kHours; ++h) {
    const auto batch = interval_at(h);
    f.observe_samples(batch, h);
  }
  EXPECT_EQ(outcomes(f), expected);

  // The re-observed interval left exactly one copy per drive on disk.
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    EXPECT_EQ(store.read_drive(d, 19, 19).size(), 1u);
  }
}

// resume_from with an empty registry adopts the store's fleet; with a
// mismatched registry it must refuse rather than misattribute telemetry.
TEST_F(DurableFleetTest, ResumeValidatesRegistry) {
  const MixScorer scorer;
  const std::string dir = store_dir("reg");
  store::TelemetryStore store(dir);
  store.register_drive("drive-0");
  store.append(0, sample_for(0, 0));
  store.flush();

  FleetScorer adopting(scorer, test_config());
  const auto r = adopting.resume_from(store);
  EXPECT_EQ(r.drives, 1u);
  EXPECT_EQ(adopting.serial(0), "drive-0");

  FleetScorer mismatched(scorer, test_config());
  mismatched.add_drive("other-drive");
  EXPECT_THROW(mismatched.resume_from(store), ConfigError);

  FleetScorer wrong_size(scorer, test_config());
  wrong_size.add_drive("drive-0");
  wrong_size.add_drive("drive-1");
  EXPECT_THROW(wrong_size.resume_from(store), ConfigError);
}

TEST_F(DurableFleetTest, ObserveSamplesValidatesInput) {
  const MixScorer scorer;
  FleetScorer f(scorer, test_config());
  f.add_drive("a");
  f.add_drive("b");
  std::vector<smart::Sample> wrong_count(1);
  EXPECT_THROW(f.observe_samples(wrong_count, 0), ConfigError);
  std::vector<smart::Sample> wrong_hour(2);
  wrong_hour[0].hour = 0;
  wrong_hour[1].hour = 3;  // not the interval hour
  EXPECT_THROW(f.observe_samples(wrong_hour, 0), ConfigError);
}

// Journal-less observe_samples equals journaled observe_samples: the
// durability layer must not perturb scoring.
TEST_F(DurableFleetTest, JournalDoesNotChangeDecisions) {
  const MixScorer scorer;
  const auto expected = baseline_run(scorer);  // no journal attached

  store::TelemetryStore store(store_dir("journal"));
  FleetScorer f(scorer, test_config());
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    f.add_drive("drive-" + std::to_string(d));
  }
  f.attach_journal(&store);
  for (std::int64_t h = 0; h < kHours; ++h) {
    const auto batch = interval_at(h);
    f.observe_samples(batch, h);
  }
  EXPECT_EQ(outcomes(f), expected);
  EXPECT_EQ(store.sample_count(), kDrives * static_cast<std::size_t>(kHours));
}

// Observing an hour twice through observe_samples is a counted no-op, with
// and without a journal: the repeat is reported stale, leaves every
// drive's vote window as it was and journals no second copy.
TEST_F(DurableFleetTest, RepeatedIntervalIsAStaleNoop) {
  const MixScorer scorer;
  for (const bool journaled : {false, true}) {
    store::TelemetryStore store(store_dir(journaled ? "j" : "nj"));
    FleetScorer once(scorer, test_config());
    FleetScorer twice(scorer, test_config());
    for (std::uint32_t d = 0; d < kDrives; ++d) {
      once.add_drive("drive-" + std::to_string(d));
      twice.add_drive("drive-" + std::to_string(d));
    }
    if (journaled) twice.attach_journal(&store);
    for (std::int64_t h = 0; h < kHours; ++h) {
      const auto batch = interval_at(h);
      once.observe_samples(batch, h);
      EXPECT_EQ(twice.observe_samples(batch, h).accepted, kDrives);
      const auto again = twice.observe_samples(batch, h);
      EXPECT_EQ(again.stale, kDrives) << "hour " << h;
      EXPECT_EQ(again.accepted, 0u) << "hour " << h;
      EXPECT_EQ(vote_states(twice), vote_states(once))
          << "journaled " << journaled << " hour " << h;
    }
    if (journaled) {
      for (std::uint32_t d = 0; d < kDrives; ++d) {
        EXPECT_EQ(store.read_drive(d, 0, kHours).size(),
                  static_cast<std::size_t>(kHours));
      }
    }
  }
}

// One intake rule on both paths: the same lockstep stream, with a NaN
// sample and a late (out-of-order) re-delivered interval, gives identical
// vote states, results and counters through observe_samples and through
// per-drive ingest_drive.
TEST_F(DurableFleetTest, IntakePathsAgreeOnQuarantineAndStaleSamples) {
  const MixScorer scorer;
  obs::Registry reg_a;
  obs::Registry reg_b;
  auto cfg_a = test_config();
  cfg_a.metrics = &reg_a;
  auto cfg_b = test_config();
  cfg_b.metrics = &reg_b;
  store::TelemetryStore store_a(store_dir("a"));
  store::TelemetryStore store_b(store_dir("b"));
  FleetScorer a(scorer, cfg_a);
  FleetScorer b(scorer, cfg_b);
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    a.add_drive("drive-" + std::to_string(d));
    b.add_drive("drive-" + std::to_string(d));
  }
  a.attach_journal(&store_a);
  b.attach_journal(&store_b);

  std::vector<std::int64_t> hours;
  for (std::int64_t h = 0; h < kHours; ++h) {
    hours.push_back(h);
    if (h == 20) hours.push_back(12);  // a late re-delivery of hour 12
  }
  FleetScorer::IngestResult sum_a;
  FleetScorer::IngestResult sum_b;
  for (const std::int64_t h : hours) {
    auto batch = interval_at(h);
    if (h == 9) {
      batch[3].set(smart::Attr::kRawReadErrorRate,
                   std::numeric_limits<float>::quiet_NaN());
    }
    add_result(sum_a, a.observe_samples(batch, h));
    for (std::uint32_t d = 0; d < kDrives; ++d) {
      add_result(sum_b,
                 b.ingest_drive(d, std::span<const smart::Sample>(batch)
                                       .subspan(d, 1)));
    }
  }

  EXPECT_EQ(vote_states(a), vote_states(b));
  EXPECT_EQ(sum_a.quarantined, 1u);
  EXPECT_EQ(sum_a.stale, kDrives);
  EXPECT_FALSE(sum_a.journal_failed);
  EXPECT_EQ(sum_b.quarantined, sum_a.quarantined);
  EXPECT_EQ(sum_b.stale, sum_a.stale);
  EXPECT_EQ(sum_b.accepted, sum_a.accepted);
  EXPECT_EQ(sum_b.journal_failed, sum_a.journal_failed);
  EXPECT_EQ(a.quarantined_samples(), 1u);
  EXPECT_EQ(b.quarantined_samples(), a.quarantined_samples());
  for (const char* name :
       {"hdd_fleet_quarantined_samples_total", "hdd_fleet_samples_scored_total",
        "hdd_fleet_alarms_total", "hdd_fleet_vote_transitions_total"}) {
    EXPECT_EQ(reg_b.counter(name, "").value(), reg_a.counter(name, "").value())
        << name;
  }
  EXPECT_EQ(store_a.sample_count(), kDrives * kHours - 1);
  EXPECT_EQ(store_b.sample_count(), store_a.sample_count());
}

// A call that quarantines several samples logs one warn line naming the
// count and the first offender, on both intake paths.
TEST_F(DurableFleetTest, QuarantineLogsOneLinePerCall) {
  const MixScorer scorer;
  FleetScorer f(scorer, test_config());
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    f.add_drive("drive-" + std::to_string(d));
  }
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto batch = interval_at(0);
  batch[2].set(smart::Attr::kRawReadErrorRate, nan);
  batch[4].set(smart::Attr::kRawReadErrorRate, nan);
  ::testing::internal::CaptureStderr();
  f.observe_samples(batch, 0);
  std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(std::count(log.begin(), log.end(), '\n'), 1) << log;
  EXPECT_NE(log.find("quarantined 2 sample(s); first: drive drive-2 at hour 0"),
            std::string::npos)
      << log;

  std::vector<smart::Sample> run = {sample_for(0, 1), sample_for(0, 2),
                                    sample_for(0, 3)};
  run[1].set(smart::Attr::kTemperatureCelsius, nan);
  run[2].set(smart::Attr::kTemperatureCelsius, nan);
  ::testing::internal::CaptureStderr();
  const auto r = f.ingest_drive(0, run);
  log = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(r.quarantined, 2u);
  EXPECT_EQ(r.accepted, 1u);
  EXPECT_EQ(std::count(log.begin(), log.end(), '\n'), 1) << log;
  EXPECT_NE(log.find("quarantined 2 sample(s); first: drive drive-0 at hour 2"),
            std::string::npos)
      << log;
  EXPECT_EQ(f.quarantined_samples(), 4u);
}

// Drive d's samples for hours [from, to).
std::vector<smart::Sample> drive_hours(std::uint32_t d, std::int64_t from,
                                       std::int64_t to) {
  std::vector<smart::Sample> out;
  for (std::int64_t h = from; h < to; ++h) out.push_back(sample_for(d, h));
  return out;
}

// The runs of one ingest_runs call, over samples the set owns.
struct RunSet {
  std::vector<std::uint32_t> drives;
  std::vector<std::vector<smart::Sample>> chunks;

  void add(std::uint32_t d, std::int64_t from, std::int64_t to) {
    drives.push_back(d);
    chunks.push_back(drive_hours(d, from, to));
  }
  // Valid until the next add().
  std::vector<DriveRun> runs() const {
    std::vector<DriveRun> out;
    for (std::size_t k = 0; k < chunks.size(); ++k) {
      out.push_back({drives[k], chunks[k]});
    }
    return out;
  }
};

// Every drive's hours [from, to) as one run each, in drive order.
RunSet window_runs(std::int64_t from, std::int64_t to) {
  RunSet set;
  for (std::uint32_t d = 0; d < kDrives; ++d) set.add(d, from, to);
  return set;
}

using StoredSample =
    std::tuple<std::uint32_t, std::int64_t,
               std::array<float, smart::kNumAttributes>>;

std::vector<StoredSample> store_contents(const store::TelemetryStore& st) {
  std::vector<StoredSample> out;
  st.scan([&](std::uint32_t drive, const smart::Sample& x) {
    out.emplace_back(drive, x.hour, x.attrs);
  });
  return out;
}

// Fails the nth append a test arms (counted from arming) without landing
// any of it. Everything else reaches the real files.
class FlakyEnv final : public io::EnvWrapper {
 public:
  FlakyEnv() : io::EnvWrapper(io::Env::posix()) {}

  void fail_append_in(std::size_t n) { append_countdown_ = n; }

  io::IoStatus new_append_file(const std::string& path, bool truncate,
                               std::unique_ptr<io::File>& out) override {
    std::unique_ptr<io::File> f;
    if (auto st = target().new_append_file(path, truncate, f); !st.ok()) {
      return st;
    }
    out = std::make_unique<FlakyFile>(std::move(f), *this);
    return io::IoStatus::success();
  }

 private:
  class FlakyFile final : public io::File {
   public:
    FlakyFile(std::unique_ptr<io::File> f, FlakyEnv& env)
        : f_(std::move(f)), env_(&env) {}
    io::IoStatus append(std::string_view data) override {
      if (env_->append_countdown_ > 0 && --env_->append_countdown_ == 0) {
        return io::IoStatus::permanent_error("injected append failure");
      }
      return f_->append(data);
    }
    io::IoStatus sync() override { return f_->sync(); }
    io::IoStatus close() override { return f_->close(); }

   private:
    std::unique_ptr<io::File> f_;
    FlakyEnv* env_;
  };

  std::size_t append_countdown_ = 0;  // 0 = disarmed
};

// The live store answers for every drive exactly what a clean reopen of
// its directory recovers: count, last hour and samples.
void expect_live_matches_reopen(const store::TelemetryStore& live) {
  const store::TelemetryStore reopened(live.directory());
  ASSERT_EQ(reopened.drive_count(), live.drive_count());
  const auto want = reopened.read_window();
  const auto got = live.read_window();
  for (std::uint32_t d = 0; d < live.drive_count(); ++d) {
    SCOPED_TRACE("drive " + std::to_string(d));
    EXPECT_EQ(live.drive(d).serial, reopened.drive(d).serial);
    EXPECT_EQ(live.drive(d).n_samples, reopened.drive(d).n_samples);
    EXPECT_EQ(live.drive(d).last_hour, reopened.drive(d).last_hour);
    ASSERT_EQ(got[d].samples.size(), want[d].samples.size());
    for (std::size_t k = 0; k < got[d].samples.size(); ++k) {
      EXPECT_EQ(got[d].samples[k].hour, want[d].samples[k].hour);
      EXPECT_EQ(got[d].samples[k].attrs, want[d].samples[k].attrs);
    }
  }
}

// Every drive's journal holds hours [0, to) once each, in order, in the
// live store and after a reopen.
void expect_each_hour_once(const store::TelemetryStore& live,
                           std::int64_t to) {
  const store::TelemetryStore reopened(live.directory());
  for (const store::TelemetryStore* st : {&live, &reopened}) {
    for (std::uint32_t d = 0; d < kDrives; ++d) {
      std::vector<std::int64_t> hours;
      for (const smart::Sample& x : st->read_drive(d)) hours.push_back(x.hour);
      std::vector<std::int64_t> want(static_cast<std::size_t>(to));
      for (std::int64_t h = 0; h < to; ++h) want[h] = h;
      EXPECT_EQ(hours, want) << "drive " << d;
    }
  }
}

// Grouping runs into one call changes only the number of journal writes:
// the runs of each 6-hour window through one ingest_runs call — every
// drive twice (two 3-hour runs), then drive 0's first run again, stale
// against a run of the same call that is not scored yet — leave the same
// vote states, results and store contents as the same runs through
// ingest_drive one at a time.
TEST_F(DurableFleetTest, IngestRunsMatchesPerRunIngestDrive) {
  const MixScorer scorer;
  store::TelemetryStore store_a(store_dir("a"));
  store::TelemetryStore store_b(store_dir("b"));
  FleetScorer a(scorer, test_config());
  FleetScorer b(scorer, test_config());
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    a.add_drive("drive-" + std::to_string(d));
    b.add_drive("drive-" + std::to_string(d));
  }
  a.attach_journal(&store_a);
  b.attach_journal(&store_b);

  FleetScorer::IngestResult sum_a;
  FleetScorer::IngestResult sum_b;
  for (std::int64_t h = 0; h < kHours; h += 6) {
    RunSet set;
    for (std::uint32_t d = 0; d < kDrives; ++d) set.add(d, h, h + 3);
    for (std::uint32_t d = 0; d < kDrives; ++d) set.add(d, h + 3, h + 6);
    set.add(0, h, h + 3);
    const auto runs = set.runs();
    add_result(sum_a, a.ingest_runs(runs));
    for (const DriveRun& r : runs) {
      add_result(sum_b, b.ingest_drive(r.drive, r.samples));
    }
  }

  EXPECT_EQ(vote_states(a), vote_states(b));
  EXPECT_EQ(outcomes(a), baseline_run(scorer));
  EXPECT_EQ(sum_a.accepted, kDrives * kHours);
  EXPECT_EQ(sum_a.stale, 3u * (kHours / 6));
  EXPECT_EQ(sum_a.journal_failed, 0u);
  EXPECT_EQ(sum_b.accepted, sum_a.accepted);
  EXPECT_EQ(sum_b.stale, sum_a.stale);
  EXPECT_EQ(sum_b.quarantined, sum_a.quarantined);
  EXPECT_EQ(sum_b.journal_failed, sum_a.journal_failed);
  EXPECT_EQ(store_a.sample_count(), kDrives * kHours);
  EXPECT_EQ(store_contents(store_a), store_contents(store_b));
}

// A failed write at the call's flush_to_os drops every run of the call:
// none is scored, each is counted in journal_failed, degraded() latches
// and one warn line names the call. The store holds none of the call, so
// the re-send is journaled once and scored.
TEST_F(DurableFleetTest, FlushFailureDropsEveryRunOfTheCall) {
  const MixScorer scorer;
  FlakyEnv env;
  store::StoreOptions opt;
  opt.env = &env;
  store::TelemetryStore store(store_dir("flush"), opt);
  FleetScorer f(scorer, test_config());
  FleetScorer ref(scorer, test_config());  // no journal, no faults
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    f.add_drive("drive-" + std::to_string(d));
    ref.add_drive("drive-" + std::to_string(d));
  }
  f.attach_journal(&store);

  const RunSet set = window_runs(0, 6);
  const auto runs = set.runs();
  env.fail_append_in(1);  // the call's one write, at flush_to_os
  ::testing::internal::CaptureStderr();
  const auto r = f.ingest_runs(runs);
  const std::string log = ::testing::internal::GetCapturedStderr();

  EXPECT_EQ(r.journal_failed, kDrives);
  EXPECT_EQ(r.accepted, 0u);
  EXPECT_TRUE(f.degraded());
  EXPECT_EQ(f.journal_failures(), 1u);
  std::size_t warn_lines = 0;
  for (std::size_t at = log.find("fleet: journal write failed");
       at != std::string::npos;
       at = log.find("fleet: journal write failed", at + 1)) {
    ++warn_lines;
  }
  EXPECT_EQ(warn_lines, 1u) << log;
  for (std::size_t d = 0; d < kDrives; ++d) {
    EXPECT_EQ(f.state(d).samples_seen(), 0) << "drive " << d;
  }
  EXPECT_EQ(store.sample_count(), 0u);
  expect_live_matches_reopen(store);

  const auto again = f.ingest_runs(runs);
  EXPECT_EQ(again.accepted, kDrives * 6);
  EXPECT_EQ(again.journal_failed, 0u);
  EXPECT_EQ(again.stale, 0u);
  expect_live_matches_reopen(store);
  expect_each_hour_once(store, 6);
  (void)ref.ingest_runs(runs);
  EXPECT_EQ(vote_states(f), vote_states(ref));
}

// One rule for every failed write of a call: one that fails in the append
// phase (here the write a mid-call rotation makes) drops every run of the
// call, the runs appended before it included, as a failed flush does.
TEST_F(DurableFleetTest, WriteFailureMidCallDropsEveryRun) {
  const MixScorer scorer;
  FlakyEnv env;
  store::StoreOptions opt;
  opt.env = &env;
  // The warm call leaves room for about 28 of the next call's 36 frames.
  opt.segment_bytes = 4096;
  store::TelemetryStore store(store_dir("append"), opt);
  FleetScorer f(scorer, test_config());
  FleetScorer ref(scorer, test_config());
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    f.add_drive("drive-" + std::to_string(d));
    ref.add_drive("drive-" + std::to_string(d));
  }
  f.attach_journal(&store);

  const RunSet warm = window_runs(0, 6);
  const auto warm_runs = warm.runs();
  ASSERT_EQ(f.ingest_runs(warm_runs).journal_failed, 0u);
  (void)ref.ingest_runs(warm_runs);
  ASSERT_EQ(store.segment_count(), 1u);

  const RunSet set = window_runs(6, 12);
  const auto runs = set.runs();
  env.fail_append_in(1);  // the rotation's write of the call's first runs
  ::testing::internal::CaptureStderr();
  const auto r = f.ingest_runs(runs);
  (void)::testing::internal::GetCapturedStderr();

  EXPECT_EQ(r.journal_failed, kDrives);
  EXPECT_EQ(r.accepted, 0u);
  EXPECT_TRUE(f.degraded());
  EXPECT_EQ(f.journal_failures(), 1u);
  EXPECT_EQ(store.segment_count(), 1u);  // failed before the next opened
  EXPECT_EQ(store.sample_count(), kDrives * 6);
  EXPECT_EQ(vote_states(f), vote_states(ref));
  expect_live_matches_reopen(store);

  const auto again = f.ingest_runs(runs);
  EXPECT_EQ(again.accepted, kDrives * 6);
  EXPECT_EQ(store.segment_count(), 2u);
  expect_live_matches_reopen(store);
  expect_each_hour_once(store, 12);
  (void)ref.ingest_runs(runs);
  EXPECT_EQ(vote_states(f), vote_states(ref));
}

// Caps the size of every file this process writes (the soft RLIMIT_FSIZE)
// with SIGXFSZ ignored, so a write that would pass the cap lands what fits
// and the kernel then fails it with EFBIG: a real short write, through
// io::Env::posix() and no fault decorator. Both are restored on scope exit.
class FileSizeCap {
 public:
  explicit FileSizeCap(std::uint64_t bytes) {
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_), 0);
    handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit cap = saved_;
    cap.rlim_cur = static_cast<rlim_t>(bytes);
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &cap), 0);
  }
  ~FileSizeCap() {
    (void)::setrlimit(RLIMIT_FSIZE, &saved_);
    (void)std::signal(SIGXFSZ, handler_);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;

 private:
  rlimit saved_{};
  void (*handler_)(int) = SIG_DFL;
};

// Bytes in the store's segment files.
std::uint64_t journal_bytes(const store::TelemetryStore& st) {
  std::uint64_t n = 0;
  for (const auto& e : fs::directory_iterator(st.directory())) {
    n += fs::file_size(e.path());
  }
  return n;
}

// A real write failure in ingest_runs's flush_to_os, after the call's runs
// were indexed: one whole frame and part of the next land, then EFBIG.
// The live store must agree with a reopen, and the re-send must journal
// each hour once.
TEST_F(DurableFleetTest, RealShortWriteAtFlushKeepsLiveStoreEqualToReopen) {
  const MixScorer scorer;
  store::TelemetryStore store(store_dir("efbig"));
  FleetScorer f(scorer, test_config());
  FleetScorer ref(scorer, test_config());
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    f.add_drive("drive-" + std::to_string(d));
    ref.add_drive("drive-" + std::to_string(d));
  }
  f.attach_journal(&store);
  const RunSet warm = window_runs(0, 6);
  ASSERT_EQ(f.ingest_runs(warm.runs()).accepted, kDrives * 6);
  (void)ref.ingest_runs(warm.runs());

  const RunSet set = window_runs(6, 12);
  FleetScorer::IngestResult r;
  {
    const FileSizeCap cap(journal_bytes(store) + store::kSampleFrameBytes +
                          10);
    r = f.ingest_runs(set.runs());
  }
  EXPECT_EQ(r.journal_failed, kDrives);
  EXPECT_EQ(r.accepted, 0u);
  EXPECT_TRUE(f.degraded());
  expect_live_matches_reopen(store);
  EXPECT_EQ(store.sample_count(), kDrives * 6);

  EXPECT_EQ(f.ingest_runs(set.runs()).accepted, kDrives * 6);
  expect_live_matches_reopen(store);
  expect_each_hour_once(store, 12);
  (void)ref.ingest_runs(set.runs());
  EXPECT_EQ(vote_states(f), vote_states(ref));
}

// The same real short write in observe_samples's journal write.
TEST_F(DurableFleetTest, RealShortWriteInObserveSamplesKeepsLiveEqualToReopen) {
  const MixScorer scorer;
  store::TelemetryStore store(store_dir("efbig_obs"));
  FleetScorer f(scorer, test_config());
  FleetScorer ref(scorer, test_config());
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    f.add_drive("drive-" + std::to_string(d));
    ref.add_drive("drive-" + std::to_string(d));
  }
  f.attach_journal(&store);
  constexpr std::int64_t kFail = 10;
  for (std::int64_t h = 0; h < kFail; ++h) {
    f.observe_samples(interval_at(h), h);
    ref.observe_samples(interval_at(h), h);
  }
  FleetScorer::IngestResult r;
  {
    const FileSizeCap cap(journal_bytes(store) + store::kSampleFrameBytes +
                          10);
    r = f.observe_samples(interval_at(kFail), kFail);
  }
  EXPECT_EQ(r.journal_failed, kDrives);
  EXPECT_EQ(r.accepted, 0u);
  EXPECT_TRUE(f.degraded());
  expect_live_matches_reopen(store);
  EXPECT_EQ(store.sample_count(), kDrives * kFail);

  for (std::int64_t h = kFail; h < 2 * kFail; ++h) {
    EXPECT_EQ(f.observe_samples(interval_at(h), h).accepted, kDrives);
    ref.observe_samples(interval_at(h), h);
  }
  expect_live_matches_reopen(store);
  expect_each_hour_once(store, 2 * kFail);
  EXPECT_EQ(vote_states(f), vote_states(ref));
}

// The same real short write at a rotation: the call's runs cross the
// segment's end, and the write that seals the full segment fails.
TEST_F(DurableFleetTest, RealShortWriteAtRotationKeepsLiveEqualToReopen) {
  const MixScorer scorer;
  store::StoreOptions opt;
  opt.segment_bytes = 4096;
  store::TelemetryStore store(store_dir("efbig_rot"), opt);
  FleetScorer f(scorer, test_config());
  FleetScorer ref(scorer, test_config());
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    f.add_drive("drive-" + std::to_string(d));
    ref.add_drive("drive-" + std::to_string(d));
  }
  f.attach_journal(&store);
  const RunSet warm = window_runs(0, 6);
  ASSERT_EQ(f.ingest_runs(warm.runs()).accepted, kDrives * 6);
  (void)ref.ingest_runs(warm.runs());
  ASSERT_EQ(store.segment_count(), 1u);

  const RunSet set = window_runs(6, 12);
  FleetScorer::IngestResult r;
  {
    const FileSizeCap cap(journal_bytes(store) + store::kSampleFrameBytes +
                          10);
    r = f.ingest_runs(set.runs());
  }
  EXPECT_EQ(r.journal_failed, kDrives);
  EXPECT_EQ(store.segment_count(), 1u);  // failed at the rotation
  expect_live_matches_reopen(store);
  EXPECT_EQ(store.sample_count(), kDrives * 6);

  EXPECT_EQ(f.ingest_runs(set.runs()).accepted, kDrives * 6);
  EXPECT_EQ(store.segment_count(), 2u);
  expect_live_matches_reopen(store);
  expect_each_hour_once(store, 12);
  (void)ref.ingest_runs(set.runs());
  EXPECT_EQ(vote_states(f), vote_states(ref));
}

}  // namespace
}  // namespace hdd::core
