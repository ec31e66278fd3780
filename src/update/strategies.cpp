#include "update/strategies.h"

#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"

namespace hdd::update {

std::vector<WeeklyResult> simulate_long_term(const sim::FleetConfig& fleet,
                                             const ModelTrainer& trainer,
                                             const LongTermConfig& config) {
  return simulate_long_term(
      fleet, trainer, config, [&fleet](std::int64_t from, std::int64_t to) {
        return sim::generate_good_window(fleet, 0, from, to);
      });
}

std::vector<WeeklyResult> simulate_long_term(
    const sim::FleetConfig& fleet, const ModelTrainer& trainer,
    const LongTermConfig& config, const pipeline::WindowSource& source) {
  HDD_REQUIRE(fleet.families.size() == 1,
              "simulate_long_term expects exactly one family");
  HDD_REQUIRE(fleet.observation_weeks >= 2, "need at least two weeks");
  HDD_REQUIRE(static_cast<bool>(trainer), "null trainer");
  if (config.strategy == Strategy::kReplacing) {
    HDD_REQUIRE(config.replace_cycle_weeks >= 1,
                "replace cycle must be >= 1 week");
  }

  // Failed drives: materialized once, split once, shared by all weeks.
  const auto failed_pool = sim::generate_failed(fleet, 0);
  Rng rng(config.seed);
  const pipeline::FailedSplit failed(failed_pool, config.train_fraction, rng);
  // One side of the split over the weeks [from_week, to_week).
  const auto window = [&](pipeline::WindowSide side, int from_week,
                          int to_week) {
    return pipeline::window_set(
        side,
        source(static_cast<std::int64_t>(from_week) * 168,
               static_cast<std::int64_t>(to_week) * 168 - 1),
        failed, fleet.families.front().profile.name);
  };

  std::vector<WeeklyResult> results;
  eval::BatchSampleModel model;
  std::pair<int, int> trained_range{-1, -1};

  for (int week = 2; week <= fleet.observation_weeks; ++week) {
    // The strategy stepping is the live scheduler's (pipeline/scheduler.h).
    const auto range = pipeline::training_range(
        config.strategy, config.replace_cycle_weeks, week);
    if (range != trained_range) {
      // (Re)train on the strategy's window.
      const auto train =
          window(pipeline::WindowSide::kTrain, range.first, range.second);
      const auto matrix = data::build_training_matrix(
          train.dataset, train.split,
          pipeline::window_training(config.training,
                                    range.second - range.first));
      model = trainer(matrix);
      trained_range = range;
      log_debug() << "trained " << strategy_name(config.strategy)
                  << " model on weeks [" << range.first << ","
                  << range.second << ") with " << matrix.rows() << " rows";
    }

    // Test on week `week` (1-based: hours [(week-1)*168, week*168)).
    const auto test = window(pipeline::WindowSide::kTest, week - 1, week);
    const auto result = eval::evaluate_batch(
        test.dataset, test.split, config.training.features, model,
        config.vote);
    results.push_back({week, result.far(), result.fdr()});
  }
  return results;
}

}  // namespace hdd::update
