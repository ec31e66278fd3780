// Deterministic SMART trace generator.
//
// Every sample is a pure function of (fleet seed, family, drive index,
// hour): the generator never stores traces, so an 8-week 25k-drive fleet
// can be re-materialized window-by-window (the model-updating experiments
// of Section V-B3 walk eight weeks of telemetry this way). Determinism also
// makes every experiment in the bench suite exactly reproducible.
//
// The per-drive latent state (age, baselines, failure signature, window) is
// drawn once from the drive's key; per-sample noise comes from a
// counter-based RNG keyed by (drive, hour, stream).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "sim/profile.h"
#include "smart/drive.h"

namespace hdd::sim {

// Latent (unobservable) state of one simulated drive.
struct DriveLatent {
  std::uint64_t key = 0;  // root key for this drive's random streams
  bool failed = false;

  double age_hours = 0.0;  // power-on age at the observation epoch
  double diurnal_phase = 0.0;

  // Per-drive healthy baselines for the noisy normalized attributes.
  std::array<double, smart::kNumAttributes> base{};

  // Static event-counter state (borderline good drives have nonzero ones).
  double rsc_raw_base = 0.0;
  double cps_raw_base = 0.0;
  double rue_base = 0.0;
  double hfw_base = 0.0;

  // Benign wear: healthy drives also reallocate sectors occasionally —
  // a slow linear rate plus a few step bursts. Without this, counter
  // *growth* would be a perfect failure separator, which real SMART data
  // does not offer.
  double rsc_rate_per_hour = 0.0;
  static constexpr int kMaxBursts = 3;
  std::array<std::int64_t, kMaxBursts> burst_hour{{-1, -1, -1}};
  std::array<double, kMaxBursts> burst_amount{{0.0, 0.0, 0.0}};

  // Failure process (meaningful only when failed).
  std::int64_t fail_hour = -1;
  double window_hours = 0.0;  // deterioration window w_d
  double ramp_power = 1.0;
  double severity = 1.0;
  int signature = -1;         // index into profile.signatures; -1 = sudden
};

class TraceGenerator {
 public:
  // `family_salt` decorrelates families that share a fleet seed.
  TraceGenerator(FamilyProfile profile, std::uint64_t seed,
                 std::uint64_t family_salt = 0);

  const FamilyProfile& profile() const { return profile_; }

  // Draws the latent state of drive `index`. For failed drives the failure
  // hour is uniform over [24, horizon_hours].
  DriveLatent make_latent(std::uint64_t index, bool failed,
                          std::int64_t horizon_hours) const;

  // The SMART reading of this drive at `hour`. Pure function of its inputs.
  smart::Sample sample_at(const DriveLatent& d, std::int64_t hour) const;

  // Whether the reading at `hour` was lost by the telemetry pipeline.
  bool is_missing(const DriveLatent& d, std::int64_t hour) const;

  // Materializes a record over [from_hour, to_hour] on the global
  // `interval_hours` grid, honouring missing samples. Failed drives are cut
  // at their failure hour.
  smart::DriveRecord materialize(const DriveLatent& d, std::int64_t from_hour,
                                 std::int64_t to_hour,
                                 int interval_hours) const;

  // Deterioration severity s(t) in [0,1]; 0 for good drives / pre-onset.
  double ramp_at(const DriveLatent& d, std::int64_t hour) const;

 private:
  FamilyProfile profile_;
  CounterRng root_;
};

// One family's slice of a synthetic fleet.
struct FamilySpec {
  FamilyProfile profile;
  std::size_t n_good = 0;
  std::size_t n_failed = 0;
};

struct FleetConfig {
  std::uint64_t seed = 42;
  int sample_interval_hours = 1;
  int observation_weeks = 8;   // good-drive observation period (Table I: 56d)
  int failed_record_days = 20; // recorded window before failure (Table I)
  std::vector<FamilySpec> families;
};

// Fleet configuration mirroring the paper's Table I, scaled by `scale`
// (scale = 1.0 reproduces 22,790/434 "W" and 2,441/127 "Q" drives).
FleetConfig paper_fleet_config(double scale, std::uint64_t seed = 42,
                               int sample_interval_hours = 1);

// The good drives of family `family` (its index in config.families, which
// also salts its generator), each holding its samples with hour in
// [from_hour, to_hour] on the fleet's sampling grid; serials "<name>-G<i>".
// A drive with no sample in the window comes back empty. Parallelized over
// drives, like every generator below.
std::vector<smart::DriveRecord> generate_good_window(const FleetConfig& config,
                                                     std::size_t family,
                                                     std::int64_t from_hour,
                                                     std::int64_t to_hour);

// The failed drives of family `family`, each over the failed_record_days
// before (and cut at) its failure hour; serials "<name>-F<i>".
std::vector<smart::DriveRecord> generate_failed(const FleetConfig& config,
                                                std::size_t family);

// Materializes a whole fleet, family by family: the good drives over the
// weeks [good_from_week, good_to_week) (default: the whole observation
// period), then the failed drives.
data::DriveDataset generate_fleet(const FleetConfig& config);
data::DriveDataset generate_fleet_window(const FleetConfig& config,
                                         int good_from_week,
                                         int good_to_week);

}  // namespace hdd::sim
