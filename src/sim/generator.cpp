#include "sim/generator.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numbers>
#include <utility>

#include "common/error.h"
#include "common/math_util.h"
#include "common/thread_pool.h"

namespace hdd::sim {

using smart::Attr;

namespace {

// Stream ids for the counter-based RNG: every independent random quantity
// gets its own stream so keys never collide.
enum Stream : std::uint64_t {
  kAttrNoiseBase = 0,    // + attribute index (0..11)
  kSpikeStart = 100,
  kSpikeLen = 101,
  kSpikeSeverity = 102,
  kSpikeShape = 103,
  kMissing = 104,
  kRampJitterBase = 200, // + attribute index
};

double counter_to_norm(Attr raw, double count) {
  // Mapping from raw event counts to the vendor-normalized 100..1 scale.
  switch (raw) {
    case Attr::kReallocatedSectorsRaw:
      return 100.0 - 0.08 * count;
    case Attr::kCurrentPendingSectorRaw:
      return 100.0 - 0.8 * count;
    default:
      HDD_ASSERT_MSG(false, "no normalized mirror for this counter");
  }
  return 100.0;
}


}  // namespace

TraceGenerator::TraceGenerator(FamilyProfile profile, std::uint64_t seed,
                               std::uint64_t family_salt)
    : profile_(std::move(profile)),
      root_(CounterRng(seed).child(hash_combine(0x66616d696c79ULL,
                                                family_salt))) {
  HDD_REQUIRE(!profile_.signatures.empty(),
              "family profile needs at least one failure signature");
}

DriveLatent TraceGenerator::make_latent(std::uint64_t index, bool failed,
                                        std::int64_t horizon_hours) const {
  DriveLatent d;
  d.failed = failed;
  d.key = root_.child(failed ? index * 2 + 1 : index * 2).seed();

  // Sequential draws in a fixed order keep the latent state deterministic.
  Rng rng(d.key);

  d.age_hours = failed ? rng.uniform(profile_.age_failed_min,
                                     profile_.age_failed_max)
                       : rng.uniform(profile_.age_good_min,
                                     profile_.age_good_max);
  d.diurnal_phase = rng.uniform(0.0, 2.0 * std::numbers::pi);

  for (int a = 0; a < smart::kNumAttributes; ++a) {
    const AttrBehavior& b = profile_.behavior[static_cast<std::size_t>(a)];
    d.base[static_cast<std::size_t>(a)] =
        b.base_sd > 0 ? rng.normal(b.base_mean, b.base_sd) : b.base_mean;
  }

  // Static counter state: most good drives are pristine, a minority carry a
  // few historical reallocations, and a small borderline subpopulation has
  // visibly elevated counters.
  const double u = rng.uniform();
  if (u < profile_.borderline_frac) {
    d.rsc_raw_base = rng.uniform(10.0, profile_.borderline_rsc_max);
    d.cps_raw_base = rng.uniform(0.0, profile_.borderline_cps_max);
    d.rue_base = rng.uniform(0.0, profile_.borderline_rue_max);
    d.rsc_rate_per_hour = rng.uniform(0.03, 0.3);
    d.base[smart::index_of(Attr::kTemperatureCelsius)] -=
        rng.uniform(0.0, profile_.borderline_tc_shift);
    d.base[smart::index_of(Attr::kSeekErrorRate)] -=
        rng.uniform(0.0, profile_.borderline_ser_shift);
  } else if (u < profile_.borderline_frac + 0.13) {
    d.rsc_raw_base = rng.uniform(1.0, 8.0);
  }

  // Benign wear shared by the whole population: ~20% of drives reallocate
  // slowly all the time, ~10% log occasional high-fly writes, and any drive
  // can take a few step bursts of reallocations (a bad patch of media).
  if (rng.chance(0.20)) {
    d.rsc_rate_per_hour =
        std::max(d.rsc_rate_per_hour, rng.uniform(0.01, 0.15));
  }
  if (rng.chance(0.10)) d.hfw_base = rng.uniform(1.0, 15.0);
  for (int b = 0; b < DriveLatent::kMaxBursts; ++b) {
    if (!rng.chance(0.15)) continue;
    d.burst_hour[static_cast<std::size_t>(b)] = static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(
            std::max<std::int64_t>(1, horizon_hours))));
    d.burst_amount[static_cast<std::size_t>(b)] = rng.uniform(2.0, 60.0);
  }

  if (failed) {
    HDD_REQUIRE(horizon_hours > 24, "failure horizon too short");
    d.fail_hour = 24 + static_cast<std::int64_t>(rng.uniform_int(
                           static_cast<std::uint64_t>(horizon_hours - 24)));
    if (rng.chance(profile_.sudden_death_frac)) {
      d.signature = -1;  // no SMART warning at all
      d.window_hours = 0.0;
    } else {
      d.window_hours =
          clamp(rng.lognormal(profile_.window_log_mu,
                              profile_.window_log_sigma),
                profile_.window_min_hours, profile_.window_max_hours);
      d.ramp_power =
          rng.uniform(profile_.ramp_power_min, profile_.ramp_power_max);
      d.severity = rng.uniform(profile_.severity_min, profile_.severity_max);
      // Mixture draw over signatures.
      double total = 0.0;
      for (const auto& s : profile_.signatures) total += s.weight;
      double pick = rng.uniform(0.0, total);
      d.signature = 0;
      for (std::size_t s = 0; s < profile_.signatures.size(); ++s) {
        pick -= profile_.signatures[s].weight;
        if (pick <= 0.0) {
          d.signature = static_cast<int>(s);
          break;
        }
      }
      // Failing drives run slightly hotter even before the ramp begins.
      d.base[smart::index_of(Attr::kTemperatureCelsius)] -=
          rng.uniform(0.0, 3.0);
    }
  }
  return d;
}

double TraceGenerator::ramp_at(const DriveLatent& d, std::int64_t hour) const {
  if (!d.failed || d.signature < 0 || d.window_hours <= 0.0) return 0.0;
  const double onset = static_cast<double>(d.fail_hour) - d.window_hours;
  const double t = static_cast<double>(hour);
  if (t <= onset) return 0.0;
  const double frac =
      clamp((t - onset) / d.window_hours, 0.0, 1.0);
  return std::pow(frac, d.ramp_power);
}

bool TraceGenerator::is_missing(const DriveLatent& d,
                                std::int64_t hour) const {
  const CounterRng rng(d.key);
  return rng.chance(profile_.missing_prob,
                    static_cast<std::uint64_t>(hour), kMissing);
}

smart::Sample TraceGenerator::sample_at(const DriveLatent& d,
                                        std::int64_t hour) const {
  const CounterRng rng(d.key);
  const std::uint64_t h = static_cast<std::uint64_t>(hour);
  const double week = static_cast<double>(hour) / 168.0;

  std::array<double, smart::kNumAttributes> v{};

  // Healthy behaviour of the noisy normalized attributes.
  for (int a = 0; a < smart::kNumAttributes; ++a) {
    const auto ai = static_cast<std::size_t>(a);
    const AttrBehavior& b = profile_.behavior[ai];
    double x = d.base[ai] + b.drift_per_week * week;
    if (b.diurnal_amp > 0.0) {
      x += b.diurnal_amp *
           std::sin(2.0 * std::numbers::pi *
                        static_cast<double>(hour % 24) / 24.0 +
                    d.diurnal_phase);
    }
    if (b.noise_sd > 0.0) {
      x += b.noise_sd * rng.normal(h, kAttrNoiseBase + static_cast<std::uint64_t>(a));
    }
    v[ai] = x;
  }

  // Power On Hours: purely age-driven (fleet aging is the drift here).
  v[smart::index_of(Attr::kPowerOnHours)] =
      100.0 - (d.age_hours + static_cast<double>(hour)) / 600.0;

  // Event counters: static base state plus benign wear...
  double rsc_raw = d.rsc_raw_base +
                   d.rsc_rate_per_hour * static_cast<double>(hour);
  for (int b = 0; b < DriveLatent::kMaxBursts; ++b) {
    const auto bi = static_cast<std::size_t>(b);
    if (d.burst_hour[bi] >= 0 && hour >= d.burst_hour[bi]) {
      rsc_raw += d.burst_amount[bi];
    }
  }
  double cps_raw = d.cps_raw_base;
  double rue_norm = 100.0 - 1.5 * d.rue_base;
  double hfw_norm = 100.0 - d.hfw_base;

  // ...plus the failure ramp.
  const double s = ramp_at(d, hour);
  if (s > 0.0) {
    const FailureSignature& sig =
        profile_.signatures[static_cast<std::size_t>(d.signature)];
    for (const auto& e : sig.effects) {
      const auto ai = static_cast<std::size_t>(smart::index_of(e.attr));
      double delta = e.delta * d.severity * s;
      if (e.jitter > 0.0) {
        delta += e.jitter * s *
                 rng.normal(h, kRampJitterBase +
                                   static_cast<std::uint64_t>(
                                       smart::index_of(e.attr)));
      }
      if (e.attr == Attr::kReportedUncorrectable) {
        rue_norm += delta;
      } else if (e.attr == Attr::kHighFlyWrites) {
        hfw_norm += delta;
      } else {
        v[ai] += delta;
      }
    }
    // Counters accumulate super-linearly toward the failure hour.
    for (const auto& c : sig.counters) {
      const double grown = c.count_at_full_ramp * d.severity *
                           std::pow(s, 1.3);
      if (c.raw_attr == Attr::kReallocatedSectorsRaw) rsc_raw += grown;
      else cps_raw += grown;
    }
  }

  // Transient spike episodes: brief telemetry anomalies on any drive. An
  // episode starting at hour h0 covers [h0, h0 + len). Scan the recent past
  // for a covering start; the latest one wins.
  for (int back = 0; back < profile_.spike_max_len_hours; ++back) {
    const std::int64_t h0 = hour - back;
    if (h0 < 0) break;
    const std::uint64_t uh0 = static_cast<std::uint64_t>(h0);
    if (!rng.chance(profile_.spike_start_prob, uh0, kSpikeStart)) continue;
    const double ulen = rng.uniform(uh0, kSpikeLen);
    const int len = std::min<int>(
        profile_.spike_max_len_hours,
        1 + static_cast<int>(-profile_.spike_mean_len_hours *
                             std::log(std::max(ulen, 1e-12))));
    if (back >= len) continue;
    const double m = profile_.spike_magnitude *
                     (0.5 + rng.uniform(uh0, kSpikeSeverity));
    // A spike mimics a short burst of media trouble: error rates and
    // temperature move, and a few sectors go pending before being cleared.
    v[smart::index_of(Attr::kRawReadErrorRate)] -= 12.0 * m;
    v[smart::index_of(Attr::kHardwareEccRecovered)] -= 10.0 * m;
    v[smart::index_of(Attr::kTemperatureCelsius)] -= 4.0 * m;
    if (rng.uniform(uh0, kSpikeShape) < 0.3) {
      cps_raw += 4.0 * m;
      rue_norm -= 1.5 * m;
    }
    break;
  }

  // Fold counters into their normalized mirrors and clamp everything.
  v[smart::index_of(Attr::kReallocatedSectorsRaw)] = rsc_raw;
  v[smart::index_of(Attr::kCurrentPendingSectorRaw)] = cps_raw;
  v[smart::index_of(Attr::kReallocatedSectors)] =
      counter_to_norm(Attr::kReallocatedSectorsRaw, rsc_raw);
  v[smart::index_of(Attr::kCurrentPendingSector)] =
      counter_to_norm(Attr::kCurrentPendingSectorRaw, cps_raw);
  v[smart::index_of(Attr::kReportedUncorrectable)] = rue_norm;
  v[smart::index_of(Attr::kHighFlyWrites)] = hfw_norm;

  smart::Sample out;
  out.hour = hour;
  for (int a = 0; a < smart::kNumAttributes; ++a) {
    const auto ai = static_cast<std::size_t>(a);
    const AttrBehavior& b = profile_.behavior[ai];
    // Vendor firmware reports integers; round like it would.
    out.attrs[ai] =
        static_cast<float>(std::round(clamp(v[ai], b.lo, b.hi)));
  }
  return out;
}

smart::DriveRecord TraceGenerator::materialize(const DriveLatent& d,
                                               std::int64_t from_hour,
                                               std::int64_t to_hour,
                                               int interval_hours) const {
  HDD_REQUIRE(interval_hours > 0, "interval must be positive");
  smart::DriveRecord rec;
  rec.failed = d.failed;
  rec.fail_hour = d.fail_hour;

  std::int64_t begin = from_hour;
  std::int64_t end = to_hour;
  if (d.failed) end = std::min<std::int64_t>(end, d.fail_hour);
  // Align to the global sampling grid.
  if (begin % interval_hours != 0) {
    begin += interval_hours - begin % interval_hours;
  }
  if (begin < 0) begin = 0;
  rec.samples.reserve(static_cast<std::size_t>(
      std::max<std::int64_t>(0, (end - begin) / interval_hours + 1)));
  for (std::int64_t t = begin; t <= end; t += interval_hours) {
    if (is_missing(d, t)) continue;
    rec.samples.push_back(sample_at(d, t));
  }
  return rec;
}

FleetConfig paper_fleet_config(double scale, std::uint64_t seed,
                               int sample_interval_hours) {
  HDD_REQUIRE(scale > 0.0, "scale must be positive");
  auto scaled = [scale](double n) {
    return static_cast<std::size_t>(std::max(1.0, std::round(n * scale)));
  };
  FleetConfig cfg;
  cfg.seed = seed;
  cfg.sample_interval_hours = sample_interval_hours;
  cfg.observation_weeks = 8;
  cfg.failed_record_days = 20;
  cfg.families.push_back({family_w_profile(), scaled(22790), scaled(434)});
  cfg.families.push_back({family_q_profile(), scaled(2441), scaled(127)});
  return cfg;
}

namespace {

// Materializes every good (`failed` false) or failed drive of family
// `family`, drive i over the hours `window(latent)` returns.
template <class Window>
std::vector<smart::DriveRecord> generate_drives(const FleetConfig& config,
                                                std::size_t family,
                                                bool failed, Window window) {
  HDD_REQUIRE(family < config.families.size(), "no such family");
  const FamilySpec& fam = config.families[family];
  const TraceGenerator gen(fam.profile, config.seed, family);
  const std::int64_t horizon =
      static_cast<std::int64_t>(config.observation_weeks) * 168;
  std::vector<smart::DriveRecord> out(failed ? fam.n_failed : fam.n_good);
  ThreadPool::global().parallel_for(0, out.size(), [&](std::size_t i) {
    const DriveLatent latent = gen.make_latent(i, failed, horizon);
    const auto [from, to] = window(latent);
    out[i] = gen.materialize(latent, from, to, config.sample_interval_hours);
    out[i].family = static_cast<int>(family);
    out[i].serial =
        fam.profile.name + (failed ? "-F" : "-G") + std::to_string(i);
  });
  return out;
}

}  // namespace

std::vector<smart::DriveRecord> generate_good_window(const FleetConfig& config,
                                                     std::size_t family,
                                                     std::int64_t from_hour,
                                                     std::int64_t to_hour) {
  return generate_drives(config, family, /*failed=*/false,
                         [&](const DriveLatent&) {
                           return std::pair{from_hour, to_hour};
                         });
}

std::vector<smart::DriveRecord> generate_failed(const FleetConfig& config,
                                                std::size_t family) {
  const std::int64_t span =
      static_cast<std::int64_t>(config.failed_record_days) * 24;
  return generate_drives(config, family, /*failed=*/true,
                         [span](const DriveLatent& d) {
                           return std::pair{
                               std::max<std::int64_t>(0, d.fail_hour - span),
                               d.fail_hour};
                         });
}

data::DriveDataset generate_fleet(const FleetConfig& config) {
  return generate_fleet_window(config, 0, config.observation_weeks);
}

data::DriveDataset generate_fleet_window(const FleetConfig& config,
                                         int good_from_week,
                                         int good_to_week) {
  HDD_REQUIRE(!config.families.empty(), "fleet has no families");
  HDD_REQUIRE(good_from_week >= 0 && good_to_week <= config.observation_weeks &&
                  good_from_week < good_to_week,
              "bad good-drive week range");
  data::DriveDataset ds;
  for (std::size_t f = 0; f < config.families.size(); ++f) {
    ds.family_names.push_back(config.families[f].profile.name);
    auto good = generate_good_window(
        config, f, static_cast<std::int64_t>(good_from_week) * 168,
        static_cast<std::int64_t>(good_to_week) * 168 - 1);
    auto failed = generate_failed(config, f);
    std::move(good.begin(), good.end(), std::back_inserter(ds.drives));
    std::move(failed.begin(), failed.end(), std::back_inserter(ds.drives));
  }
  return ds;
}

}  // namespace hdd::sim
