#include "update/strategies.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "store/telemetry_store.h"

namespace hdd::update {

GeneratorTelemetrySource::GeneratorTelemetrySource(
    const sim::FleetConfig& fleet)
    : fleet_(&fleet),
      gen_(fleet.families.front().profile, fleet.seed, 0) {
  HDD_REQUIRE(fleet.families.size() == 1,
              "GeneratorTelemetrySource expects exactly one family");
}

std::vector<smart::DriveRecord> GeneratorTelemetrySource::good_window(
    int from_week, int to_week) const {
  const sim::FamilySpec& fam = fleet_->families.front();
  const std::int64_t horizon =
      static_cast<std::int64_t>(fleet_->observation_weeks) * 168;
  std::vector<smart::DriveRecord> out(fam.n_good);
  ThreadPool::global().parallel_for(0, fam.n_good, [&](std::size_t i) {
    const auto latent = gen_.make_latent(i, /*failed=*/false, horizon);
    out[i] = gen_.materialize(latent,
                              static_cast<std::int64_t>(from_week) * 168,
                              static_cast<std::int64_t>(to_week) * 168 - 1,
                              fleet_->sample_interval_hours);
    out[i].serial = fam.profile.name + "-G" + std::to_string(i);
  });
  return out;
}

StoreTelemetrySource::StoreTelemetrySource(const store::TelemetryStore& store)
    : store_(&store) {}

std::vector<smart::DriveRecord> StoreTelemetrySource::good_window(
    int from_week, int to_week) const {
  return store_->read_window(static_cast<std::int64_t>(from_week) * 168,
                             static_cast<std::int64_t>(to_week) * 168 - 1);
}

std::size_t ingest_good_telemetry(const sim::FleetConfig& fleet,
                                  store::TelemetryStore& store) {
  HDD_REQUIRE(fleet.families.size() == 1,
              "ingest_good_telemetry expects exactly one family");
  const sim::FamilySpec& fam = fleet.families.front();
  const sim::TraceGenerator gen(fam.profile, fleet.seed, 0);
  const std::int64_t horizon =
      static_cast<std::int64_t>(fleet.observation_weeks) * 168;
  std::vector<smart::DriveRecord> drives(fam.n_good);
  ThreadPool::global().parallel_for(0, fam.n_good, [&](std::size_t i) {
    const auto latent = gen.make_latent(i, /*failed=*/false, horizon);
    drives[i] =
        gen.materialize(latent, 0, horizon - 1, fleet.sample_interval_hours);
    drives[i].serial = fam.profile.name + "-G" + std::to_string(i);
  });
  std::size_t appended = 0;
  for (const smart::DriveRecord& d : drives) {
    const std::uint32_t id = store.register_drive(d.serial);
    for (const smart::Sample& s : d.samples) {
      if (store.drive(id).last_hour >= s.hour) continue;  // idempotent re-run
      store.append(id, s);
      ++appended;
    }
  }
  store.flush();
  return appended;
}

namespace {

// One implementation of the strategy stepping, shared with the live
// pipeline (pipeline/scheduler.h): the weeks a strategy trains on before
// predicting `test_week`, as [from, to).
std::pair<int, int> training_range(const LongTermConfig& config,
                                   int test_week) {
  return pipeline::training_range(config.strategy, config.replace_cycle_weeks,
                                  test_week);
}

}  // namespace

std::vector<WeeklyResult> simulate_long_term(const sim::FleetConfig& fleet,
                                             const ModelTrainer& trainer,
                                             const LongTermConfig& config) {
  return simulate_long_term(fleet, trainer, config,
                            GeneratorTelemetrySource(fleet));
}

std::vector<WeeklyResult> simulate_long_term(const sim::FleetConfig& fleet,
                                             const ModelTrainer& trainer,
                                             const LongTermConfig& config,
                                             const TelemetrySource& source) {
  HDD_REQUIRE(fleet.families.size() == 1,
              "simulate_long_term expects exactly one family");
  HDD_REQUIRE(fleet.observation_weeks >= 2, "need at least two weeks");
  HDD_REQUIRE(static_cast<bool>(trainer), "null trainer");
  if (config.strategy == Strategy::kReplacing) {
    HDD_REQUIRE(config.replace_cycle_weeks >= 1,
                "replace cycle must be >= 1 week");
  }

  const sim::FamilySpec& fam = fleet.families.front();
  const sim::TraceGenerator gen(fam.profile, fleet.seed, 0);
  const std::int64_t horizon =
      static_cast<std::int64_t>(fleet.observation_weeks) * 168;
  const std::int64_t failed_span =
      static_cast<std::int64_t>(fleet.failed_record_days) * 24;

  // Failed drives: materialized once, split once, shared by all weeks.
  std::vector<smart::DriveRecord> failed(fam.n_failed);
  ThreadPool::global().parallel_for(0, fam.n_failed, [&](std::size_t i) {
    const auto latent = gen.make_latent(i, /*failed=*/true, horizon);
    failed[i] = gen.materialize(
        latent, std::max<std::int64_t>(0, latent.fail_hour - failed_span),
        latent.fail_hour, fleet.sample_interval_hours);
    failed[i].serial = fam.profile.name + "-F" + std::to_string(i);
  });

  Rng rng(config.seed);
  const auto perm = rng.permutation(failed.size());
  const auto n_train_failed = static_cast<std::size_t>(std::round(
      static_cast<double>(failed.size()) * config.train_fraction));

  std::vector<WeeklyResult> results;
  eval::BatchSampleModel model;
  std::pair<int, int> trained_range{-1, -1};

  for (int week = 2; week <= fleet.observation_weeks; ++week) {
    const auto range = training_range(config, week);
    if (range != trained_range) {
      // (Re)train on the strategy's window.
      data::DriveDataset train_ds;
      train_ds.family_names = {fam.profile.name};
      data::DatasetSplit split;
      auto goods = source.good_window(range.first, range.second);
      for (auto& g : goods) {
        if (g.empty()) continue;
        split.good_drives.push_back(train_ds.drives.size());
        split.good_test_begin.push_back(g.samples.size());  // all train
        train_ds.drives.push_back(std::move(g));
      }
      for (std::size_t k = 0; k < n_train_failed; ++k) {
        split.train_failed.push_back(train_ds.drives.size());
        train_ds.drives.push_back(failed[perm[k]]);
      }

      data::TrainingConfig tc = config.training;
      // Keep the per-week good sampling density constant as windows grow.
      tc.good_samples_per_drive = config.training.good_samples_per_drive *
                                  (range.second - range.first);
      const auto matrix = data::build_training_matrix(train_ds, split, tc);
      model = trainer(matrix);
      trained_range = range;
      log_debug() << "trained " << strategy_name(config.strategy)
                  << " model on weeks [" << range.first << ","
                  << range.second << ") with " << matrix.rows() << " rows";
    }

    // Test on week `week` (1-based: hours [(week-1)*168, week*168)).
    data::DriveDataset test_ds;
    test_ds.family_names = {fam.profile.name};
    data::DatasetSplit split;
    auto goods = source.good_window(week - 1, week);
    for (auto& g : goods) {
      if (g.empty()) continue;
      split.good_drives.push_back(test_ds.drives.size());
      split.good_test_begin.push_back(0);  // the whole week is test data
      test_ds.drives.push_back(std::move(g));
    }
    for (std::size_t k = n_train_failed; k < failed.size(); ++k) {
      if (failed[perm[k]].empty()) continue;
      split.test_failed.push_back(test_ds.drives.size());
      test_ds.drives.push_back(failed[perm[k]]);
    }

    const auto result = eval::evaluate_batch(
        test_ds, split, config.training.features, model, config.vote);
    results.push_back({week, result.far(), result.fdr()});
  }
  return results;
}

}  // namespace hdd::update
