// Model-updating strategies over a multi-week horizon (Section V-B3).
//
// Three strategies are simulated against eight weeks of telemetry:
//   fixed        — train once on week 1, never update;
//   accumulation — each week, retrain on all good samples seen so far;
//   replacing    — every c weeks, retrain using only the last cycle's good
//                  samples and use that model for the next cycle.
//
// Failed drives are shared across all strategies (the paper uses the same
// failed sample set throughout). Good telemetry for each window comes from
// a pipeline::WindowSource and is split by pipeline::window_set, the live
// retrain loop's window code: by default the source regenerates the window
// from the deterministic generator (which makes the eight-week horizon
// affordable in memory); pipeline::store_window reads it back from a
// TelemetryStore, as a deployed node retrains.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "data/training.h"
#include "eval/detection.h"
#include "pipeline/pipeline.h"
#include "sim/generator.h"

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

// Runs the long-term simulation for one drive family (config.families must
// contain exactly one entry) and returns one result per test week
// (weeks 2..observation_weeks). Good telemetry comes from `source`.
std::vector<WeeklyResult> simulate_long_term(
    const sim::FleetConfig& fleet, const ModelTrainer& trainer,
    const LongTermConfig& config, const pipeline::WindowSource& source);

// Convenience overload: the good windows regenerated by
// sim::generate_good_window.
std::vector<WeeklyResult> simulate_long_term(const sim::FleetConfig& fleet,
                                             const ModelTrainer& trainer,
                                             const LongTermConfig& config);

}  // namespace hdd::update
