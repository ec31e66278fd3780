// Tests for src/sim: determinism of the counter-based generator, latent
// population structure, the deterioration ramp, drift, missing telemetry,
// and fleet materialization invariants.
#include <gtest/gtest.h>

#include "common/error.h"

#include <cmath>
#include <cstring>
#include <random>
#include <set>

#include "sim/generator.h"

namespace hdd::sim {
namespace {

using smart::Attr;

TraceGenerator make_w_gen(std::uint64_t seed = 42) {
  return TraceGenerator(family_w_profile(), seed, 0);
}

constexpr std::int64_t kHorizon = 8 * 7 * 24;

TEST(Profiles, BothFamiliesAreWellFormed) {
  for (const auto& p : {family_w_profile(), family_q_profile()}) {
    EXPECT_FALSE(p.signatures.empty());
    double total = 0.0;
    for (const auto& s : p.signatures) {
      EXPECT_GT(s.weight, 0.0);
      EXPECT_FALSE(s.effects.empty());
      total += s.weight;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_GT(p.window_max_hours, p.window_min_hours);
    EXPECT_GT(p.severity_max, p.severity_min);
    EXPECT_GE(p.sudden_death_frac, 0.0);
    EXPECT_LT(p.sudden_death_frac, 0.5);
  }
}

TEST(Latent, DeterministicAcrossCallsAndInstances) {
  const auto gen_a = make_w_gen();
  const auto gen_b = make_w_gen();
  for (std::uint64_t i : {0ull, 1ull, 57ull}) {
    const auto a = gen_a.make_latent(i, true, kHorizon);
    const auto b = gen_b.make_latent(i, true, kHorizon);
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.fail_hour, b.fail_hour);
    EXPECT_DOUBLE_EQ(a.age_hours, b.age_hours);
    EXPECT_DOUBLE_EQ(a.window_hours, b.window_hours);
    EXPECT_EQ(a.signature, b.signature);
  }
}

TEST(Latent, GoodAndFailedStreamsAreDistinct) {
  const auto gen = make_w_gen();
  const auto good = gen.make_latent(7, false, kHorizon);
  const auto failed = gen.make_latent(7, true, kHorizon);
  EXPECT_NE(good.key, failed.key);
  EXPECT_FALSE(good.failed);
  EXPECT_TRUE(failed.failed);
  EXPECT_EQ(good.fail_hour, -1);
  EXPECT_GE(failed.fail_hour, 24);
  EXPECT_LT(failed.fail_hour, kHorizon);
}

TEST(Latent, SeedChangesThePopulation) {
  const auto a = make_w_gen(1).make_latent(0, false, kHorizon);
  const auto b = make_w_gen(2).make_latent(0, false, kHorizon);
  EXPECT_NE(a.key, b.key);
}

TEST(Latent, FailedDrivesAreOlderOnAverage) {
  const auto gen = make_w_gen();
  double good_age = 0.0, failed_age = 0.0;
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    good_age += gen.make_latent(static_cast<std::uint64_t>(i), false,
                                kHorizon).age_hours;
    failed_age += gen.make_latent(static_cast<std::uint64_t>(i), true,
                                  kHorizon).age_hours;
  }
  EXPECT_GT(failed_age / n, good_age / n);
}

TEST(Latent, WindowsWithinConfiguredBounds) {
  const auto profile = family_w_profile();
  const auto gen = make_w_gen();
  for (int i = 0; i < 300; ++i) {
    const auto d = gen.make_latent(static_cast<std::uint64_t>(i), true,
                                   kHorizon);
    if (d.signature < 0) {
      EXPECT_DOUBLE_EQ(d.window_hours, 0.0);  // sudden death
      continue;
    }
    EXPECT_GE(d.window_hours, profile.window_min_hours);
    EXPECT_LE(d.window_hours, profile.window_max_hours);
    EXPECT_GE(d.severity, profile.severity_min);
    EXPECT_LE(d.severity, profile.severity_max);
    EXPECT_GE(d.signature, 0);
    EXPECT_LT(d.signature,
              static_cast<int>(profile.signatures.size()));
  }
}

TEST(Latent, SuddenDeathFractionApproximatelyHonored) {
  const auto gen = make_w_gen();
  int sudden = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    sudden += gen.make_latent(static_cast<std::uint64_t>(i), true,
                              kHorizon).signature < 0;
  }
  const double frac = static_cast<double>(sudden) / n;
  EXPECT_NEAR(frac, family_w_profile().sudden_death_frac, 0.02);
}

TEST(Latent, BorderlineSubpopulationExists) {
  const auto gen = make_w_gen();
  int borderline = 0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    const auto d = gen.make_latent(static_cast<std::uint64_t>(i), false,
                                   kHorizon);
    borderline += d.rsc_raw_base >= 10.0;
  }
  // borderline_frac plus part of the benign 13% small-count band.
  EXPECT_GT(borderline, 0);
  EXPECT_LT(static_cast<double>(borderline) / n, 0.10);
}

TEST(Ramp, ZeroForGoodAndPreOnset) {
  const auto gen = make_w_gen();
  const auto good = gen.make_latent(0, false, kHorizon);
  EXPECT_DOUBLE_EQ(gen.ramp_at(good, 100), 0.0);

  // Find a failed drive with a window comfortably inside its record.
  for (int i = 0; i < 50; ++i) {
    const auto d = gen.make_latent(static_cast<std::uint64_t>(i), true,
                                   kHorizon);
    if (d.signature < 0) continue;
    const auto onset =
        d.fail_hour - static_cast<std::int64_t>(d.window_hours);
    if (onset <= 10) continue;
    EXPECT_DOUBLE_EQ(gen.ramp_at(d, onset - 5), 0.0);
    EXPECT_GT(gen.ramp_at(d, d.fail_hour), 0.99);
    // Monotone non-decreasing along the window.
    double prev = 0.0;
    for (std::int64_t t = onset; t <= d.fail_hour;
         t += std::max<std::int64_t>(1, (d.fail_hour - onset) / 20)) {
      const double s = gen.ramp_at(d, t);
      EXPECT_GE(s, prev - 1e-12);
      prev = s;
    }
    return;
  }
  FAIL() << "no suitable failed drive found";
}

TEST(Samples, DeterministicAtEveryHour) {
  const auto gen = make_w_gen();
  const auto d = gen.make_latent(3, false, kHorizon);
  for (std::int64_t h : {0, 17, 1000}) {
    const auto a = gen.sample_at(d, h);
    const auto b = gen.sample_at(d, h);
    EXPECT_EQ(a.attrs, b.attrs);
  }
}

TEST(Samples, ValuesWithinClampRanges) {
  const auto gen = make_w_gen();
  const auto profile = family_w_profile();
  for (int i = 0; i < 20; ++i) {
    const auto d = gen.make_latent(static_cast<std::uint64_t>(i), i % 2 == 0,
                                   kHorizon);
    const std::int64_t end = d.failed ? d.fail_hour : kHorizon - 1;
    for (std::int64_t h = std::max<std::int64_t>(0, end - 100); h <= end;
         h += 7) {
      const auto s = gen.sample_at(d, h);
      for (int a = 0; a < smart::kNumAttributes; ++a) {
        const auto& b = profile.behavior[static_cast<std::size_t>(a)];
        EXPECT_GE(s.attrs[static_cast<std::size_t>(a)], b.lo);
        EXPECT_LE(s.attrs[static_cast<std::size_t>(a)], b.hi);
      }
    }
  }
}

TEST(Samples, ValuesAreIntegerQuantized) {
  const auto gen = make_w_gen();
  const auto d = gen.make_latent(11, false, kHorizon);
  const auto s = gen.sample_at(d, 500);
  for (float v : s.attrs) {
    EXPECT_FLOAT_EQ(v, std::round(v));
  }
}

TEST(Samples, PowerOnHoursDecreasesWithAge) {
  const auto gen = make_w_gen();
  const auto d = gen.make_latent(5, false, kHorizon);
  const float early = gen.sample_at(d, 0).value(Attr::kPowerOnHours);
  const float late = gen.sample_at(d, kHorizon - 1).value(Attr::kPowerOnHours);
  EXPECT_LE(late, early);
}

TEST(Samples, ReallocatedSectorsNeverShrinkForGoodDrives) {
  const auto gen = make_w_gen();
  const auto d = gen.make_latent(13, false, kHorizon);
  float prev = -1.0f;
  for (std::int64_t h = 0; h < 400; h += 5) {
    const float v = gen.sample_at(d, h).value(Attr::kReallocatedSectorsRaw);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Samples, FailureSignatureMovesItsAttributes) {
  const auto gen = make_w_gen();
  const auto profile = family_w_profile();
  int checked = 0;
  for (int i = 0; i < 200 && checked < 20; ++i) {
    const auto d = gen.make_latent(static_cast<std::uint64_t>(i), true,
                                   kHorizon);
    if (d.signature < 0 || d.window_hours < 100.0) continue;
    const auto onset =
        d.fail_hour - static_cast<std::int64_t>(d.window_hours);
    if (onset < 0) continue;
    const auto& sig =
        profile.signatures[static_cast<std::size_t>(d.signature)];
    // Compare mean attribute value pre-onset vs at failure.
    for (const auto& e : sig.effects) {
      double pre = 0.0, post = 0.0;
      const int reps = 12;
      for (int r = 0; r < reps; ++r) {
        pre += gen.sample_at(d, std::max<std::int64_t>(0, onset - 40 + r))
                   .value(e.attr);
        post += gen.sample_at(d, d.fail_hour - r).value(e.attr);
      }
      if (e.delta < 0) {
        EXPECT_LT(post / reps, pre / reps + 1.0)
            << "attr " << smart::attribute_name(e.attr) << " drive " << i;
      }
    }
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

TEST(Samples, PopulationDriftShiftsTheMean) {
  const auto gen = make_w_gen();
  // Temperature drifts down (hotter) by ~0.9/week: over 7 weeks ~6 points.
  double week0 = 0.0, week7 = 0.0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    const auto d = gen.make_latent(static_cast<std::uint64_t>(i), false,
                                   kHorizon);
    week0 += gen.sample_at(d, 10).value(Attr::kTemperatureCelsius);
    week7 += gen.sample_at(d, 10 + 7 * 168).value(Attr::kTemperatureCelsius);
  }
  EXPECT_LT(week7 / n, week0 / n - 3.0);
}

TEST(Missing, RateApproximatelyHonored) {
  const auto gen = make_w_gen();
  const auto d = gen.make_latent(2, false, kHorizon);
  int missing = 0;
  const int n = 5000;
  for (int h = 0; h < n; ++h) missing += gen.is_missing(d, h);
  EXPECT_NEAR(static_cast<double>(missing) / n,
              family_w_profile().missing_prob, 0.01);
}

TEST(Materialize, RespectsIntervalAndFailureCut) {
  const auto gen = make_w_gen();
  const auto d = gen.make_latent(9, true, kHorizon);
  const auto rec = gen.materialize(d, 0, kHorizon, 2);
  ASSERT_FALSE(rec.samples.empty());
  EXPECT_TRUE(rec.failed);
  EXPECT_LE(rec.samples.back().hour, d.fail_hour);
  for (std::size_t i = 1; i < rec.samples.size(); ++i) {
    EXPECT_GT(rec.samples[i].hour, rec.samples[i - 1].hour);
    EXPECT_EQ(rec.samples[i].hour % 2, 0);
  }
}

TEST(Materialize, WindowAlignsToGrid) {
  const auto gen = make_w_gen();
  const auto d = gen.make_latent(9, false, kHorizon);
  const auto rec = gen.materialize(d, 5, 29, 4);
  for (const auto& s : rec.samples) {
    EXPECT_EQ(s.hour % 4, 0);
    EXPECT_GE(s.hour, 8);  // first grid point >= 5
    EXPECT_LE(s.hour, 29);
  }
}

TEST(Materialize, RejectsBadInterval) {
  const auto gen = make_w_gen();
  const auto d = gen.make_latent(0, false, kHorizon);
  EXPECT_THROW(gen.materialize(d, 0, 10, 0), ConfigError);
}

TEST(Samples, FamilyQRunsHotterThanW) {
  // Family "Q" is the hotter, noisier fleet (Figure 5's setup).
  const TraceGenerator w_gen(family_w_profile(), 42, 0);
  const TraceGenerator q_gen(family_q_profile(), 42, 1);
  double w_tc = 0.0, q_tc = 0.0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const auto wd = w_gen.make_latent(static_cast<std::uint64_t>(i), false,
                                      kHorizon);
    const auto qd = q_gen.make_latent(static_cast<std::uint64_t>(i), false,
                                      kHorizon);
    w_tc += w_gen.sample_at(wd, 50).value(Attr::kTemperatureCelsius);
    q_tc += q_gen.sample_at(qd, 50).value(Attr::kTemperatureCelsius);
  }
  // Normalized TC = 100 - Celsius: hotter means lower.
  EXPECT_LT(q_tc / n, w_tc / n - 2.0);
}

TEST(Samples, SpikeEpisodesAreRareButPresent) {
  // Over many drive-hours, some samples must deviate far below a drive's
  // typical Raw Read Error Rate (spikes), but only a small fraction.
  const auto gen = make_w_gen();
  int spiky = 0, total = 0;
  for (int i = 0; i < 40; ++i) {
    const auto d = gen.make_latent(static_cast<std::uint64_t>(i), false,
                                   kHorizon);
    const double base = d.base[smart::index_of(Attr::kRawReadErrorRate)];
    for (std::int64_t h = 0; h < 500; h += 1) {
      const float v = gen.sample_at(d, h).value(Attr::kRawReadErrorRate);
      if (v < base - 25.0) ++spiky;
      ++total;
    }
  }
  EXPECT_GT(spiky, 0);
  EXPECT_LT(static_cast<double>(spiky) / total, 0.05);
}

TEST(Fleet, PaperConfigScalesCounts) {
  const auto full = paper_fleet_config(1.0);
  ASSERT_EQ(full.families.size(), 2u);
  EXPECT_EQ(full.families[0].n_good, 22790u);
  EXPECT_EQ(full.families[0].n_failed, 434u);
  EXPECT_EQ(full.families[1].n_good, 2441u);
  EXPECT_EQ(full.families[1].n_failed, 127u);

  const auto small = paper_fleet_config(0.1);
  EXPECT_EQ(small.families[0].n_good, 2279u);
  EXPECT_EQ(small.families[1].n_failed, 13u);
}

TEST(Fleet, GenerateProducesExpectedStructure) {
  auto config = paper_fleet_config(0.005, 7, 4);
  const auto ds = generate_fleet_window(config, 0, 1);
  EXPECT_EQ(ds.family_names.size(), 2u);
  EXPECT_EQ(ds.count_good(0), config.families[0].n_good);
  EXPECT_EQ(ds.count_failed(0), config.families[0].n_failed);
  EXPECT_EQ(ds.count_good(1), config.families[1].n_good);
  EXPECT_EQ(ds.count_failed(1), config.families[1].n_failed);

  std::set<std::string> serials;
  for (const auto& d : ds.drives) {
    EXPECT_TRUE(serials.insert(d.serial).second) << "duplicate serial";
    if (!d.failed) {
      ASSERT_FALSE(d.samples.empty());
      EXPECT_LT(d.samples.back().hour, 168);
    } else {
      EXPECT_GE(d.fail_hour, 24);
    }
  }
}

TEST(Fleet, GenerationIsReproducible) {
  auto config = paper_fleet_config(0.002, 99, 6);
  const auto a = generate_fleet_window(config, 0, 1);
  const auto b = generate_fleet_window(config, 0, 1);
  ASSERT_EQ(a.drives.size(), b.drives.size());
  for (std::size_t i = 0; i < a.drives.size(); ++i) {
    ASSERT_EQ(a.drives[i].samples.size(), b.drives[i].samples.size());
    for (std::size_t s = 0; s < a.drives[i].samples.size(); ++s) {
      EXPECT_EQ(a.drives[i].samples[s].attrs, b.drives[i].samples[s].attrs);
    }
  }
}

// `window` must be exactly the samples of `whole` with hour in [from, to]:
// same count, same hours, same attribute bits.
void expect_slice(const smart::DriveRecord& whole,
                  const smart::DriveRecord& window, std::int64_t from,
                  std::int64_t to, const std::string& what) {
  const auto [first, last] = whole.samples_between(from, to);
  ASSERT_EQ(window.samples.size(), last - first) << what;
  for (std::size_t k = 0; k < window.samples.size(); ++k) {
    const smart::Sample& w = whole.samples[first + k];
    const smart::Sample& p = window.samples[k];
    ASSERT_EQ(p.hour, w.hour) << what << ", sample " << k;
    ASSERT_EQ(std::memcmp(p.attrs.data(), w.attrs.data(), sizeof p.attrs), 0)
        << what << ", hour " << p.hour;
  }
}

TEST(Fleet, WeekWindowsTile) {
  // Random access: a window of any drive, good or failed, regenerated alone
  // equals the same hours of the drive's whole-horizon record, on every
  // sampling interval and for windows off the sampling grid. The failed
  // records and generate_fleet_window's week windows are such slices too.
  std::mt19937_64 rng(5);
  for (int interval = 1; interval <= 4; ++interval) {
    const auto config = paper_fleet_config(0.002, 5, interval);
    const std::int64_t horizon =
        std::int64_t{config.observation_weeks} * 168;
    const std::string at = "interval " + std::to_string(interval);
    for (std::size_t f = 0; f < config.families.size(); ++f) {
      const auto whole = generate_good_window(config, f, 0, horizon - 1);
      for (int round = 0; round < 6; ++round) {
        const auto from = static_cast<std::int64_t>(rng() % horizon);
        const auto to =
            from + static_cast<std::int64_t>(rng() % (horizon - from));
        const auto part = generate_good_window(config, f, from, to);
        ASSERT_EQ(part.size(), whole.size());
        const std::size_t i = rng() % part.size();
        EXPECT_EQ(part[i].serial, whole[i].serial);
        expect_slice(whole[i], part[i], from, to,
                     at + ", good " + whole[i].serial);
      }

      const TraceGenerator gen(config.families[f].profile, config.seed, f);
      const auto failed = generate_failed(config, f);
      for (std::size_t i = 0; i < failed.size(); ++i) {
        const auto latent = gen.make_latent(i, /*failed=*/true, horizon);
        const auto all = gen.materialize(latent, 0, horizon - 1, interval);
        const std::string what = at + ", failed " + failed[i].serial;
        expect_slice(all, failed[i],
                     latent.fail_hour -
                         std::int64_t{config.failed_record_days} * 24,
                     latent.fail_hour, what);
        for (int round = 0; round < 6; ++round) {
          const auto from = static_cast<std::int64_t>(rng() % horizon);
          const auto to =
              from + static_cast<std::int64_t>(rng() % (horizon - from));
          expect_slice(all, gen.materialize(latent, from, to, interval), from,
                       to, what);
        }
      }
    }

    const int w0 = static_cast<int>(rng() % 8);
    const int w1 = w0 + 1 + static_cast<int>(rng() % (8 - w0));
    const auto weeks = generate_fleet_window(config, w0, w1);
    const auto full = generate_fleet(config);
    ASSERT_EQ(weeks.drives.size(), full.drives.size());
    for (std::size_t d = 0; d < full.drives.size(); ++d) {
      const bool failed = full.drives[d].failed;
      expect_slice(full.drives[d], weeks.drives[d],
                   failed ? 0 : std::int64_t{w0} * 168,
                   failed ? horizon : std::int64_t{w1} * 168 - 1,
                   at + ", fleet " + full.drives[d].serial);
    }
  }
}

TEST(Fleet, BadWeekRangeRejected) {
  auto config = paper_fleet_config(0.002);
  EXPECT_THROW(generate_fleet_window(config, 2, 1), ConfigError);
  EXPECT_THROW(generate_fleet_window(config, 0, 100), ConfigError);
}

}  // namespace
}  // namespace hdd::sim
