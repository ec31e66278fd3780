// Model-updating strategies over a multi-week horizon (Section V-B3).
//
// Three strategies are simulated against eight weeks of telemetry:
//   fixed        — train once on week 1, never update;
//   accumulation — each week, retrain on all good samples seen so far;
//   replacing    — every c weeks, retrain using only the last cycle's good
//                  samples and use that model for the next cycle.
//
// Failed drives are shared across all strategies (the paper uses the same
// failed sample set throughout); good telemetry for each week is
// materialized on demand from the deterministic generator, which is what
// makes the eight-week horizon affordable in memory.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "data/training.h"
#include "eval/detection.h"
#include "pipeline/scheduler.h"
#include "sim/generator.h"

namespace hdd::store {
class TelemetryStore;
}

namespace hdd::update {

// The strategy enum and its week-stepping logic live in pipeline/ (the live
// background retrain loop shares them); this simulation is the synchronous-
// clock client of the same implementation.
using Strategy = pipeline::Strategy;
using pipeline::strategy_name;

// Trains a sample-level model from a weighted matrix. Lets the simulation
// drive CT, RT, BP ANN, forests... uniformly.
using ModelTrainer =
    std::function<eval::BatchSampleModel(const data::DataMatrix&)>;

struct LongTermConfig {
  Strategy strategy = Strategy::kFixed;
  int replace_cycle_weeks = 1;  // c, for kReplacing

  data::TrainingConfig training;  // features, windows, weights
  eval::VoteConfig vote;          // detection parameters (11 voters)

  double train_fraction = 0.7;    // failed-drive split
  std::uint64_t seed = 31;
};

struct WeeklyResult {
  int week = 0;  // 1-based test week (2..8 in the paper's figures)
  double far = 0.0;
  double fdr = 0.0;
};

// Supplies good-drive telemetry windows to the long-term simulation.
// The default source materializes windows from the deterministic generator;
// the store-backed source reads accumulated history from a TelemetryStore,
// which is how a deployed monitoring node would retrain (Section V-B3 with
// real collected telemetry instead of regeneration).
class TelemetrySource {
 public:
  virtual ~TelemetrySource() = default;

  // All good drives of the (single) family, each holding its samples with
  // hour in [from_week*168, to_week*168), chronological on the fleet's
  // sampling grid. Drives with no samples in the window come back empty.
  virtual std::vector<smart::DriveRecord> good_window(int from_week,
                                                      int to_week) const = 0;
};

// Materializes windows on demand from the trace generator (the memory-cheap
// default used by the paper-reproduction runs).
class GeneratorTelemetrySource final : public TelemetrySource {
 public:
  // `fleet` must outlive the source and hold exactly one family.
  explicit GeneratorTelemetrySource(const sim::FleetConfig& fleet);

  std::vector<smart::DriveRecord> good_window(int from_week,
                                              int to_week) const override;

 private:
  const sim::FleetConfig* fleet_;
  sim::TraceGenerator gen_;
};

// Reads windows back from a TelemetryStore previously filled by
// ingest_good_telemetry (or by live journaled monitoring). Because the
// generator aligns samples to the global grid, windows read from a
// full-horizon ingest are byte-identical to regenerated ones.
class StoreTelemetrySource final : public TelemetrySource {
 public:
  // `store` must outlive the source; every drive in it is treated as good.
  explicit StoreTelemetrySource(const store::TelemetryStore& store);

  std::vector<smart::DriveRecord> good_window(int from_week,
                                              int to_week) const override;

 private:
  const store::TelemetryStore* store_;
};

// Materializes every good drive of the (single) family over the whole
// observation horizon and appends its samples to `store`. Idempotent:
// hours the store already holds for a drive are skipped. Returns the number
// of samples appended.
std::size_t ingest_good_telemetry(const sim::FleetConfig& fleet,
                                  store::TelemetryStore& store);

// Runs the long-term simulation for one drive family (config.families must
// contain exactly one entry) and returns one result per test week
// (weeks 2..observation_weeks). Good telemetry comes from `source`.
std::vector<WeeklyResult> simulate_long_term(const sim::FleetConfig& fleet,
                                             const ModelTrainer& trainer,
                                             const LongTermConfig& config,
                                             const TelemetrySource& source);

// Convenience overload: generator-backed telemetry.
std::vector<WeeklyResult> simulate_long_term(const sim::FleetConfig& fleet,
                                             const ModelTrainer& trainer,
                                             const LongTermConfig& config);

}  // namespace hdd::update
