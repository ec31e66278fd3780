// UpdatePipeline — the continuous model-update control loop (productionized
// Section V-B3).
//
// A monitoring node journals its fleet's telemetry into a TelemetryStore;
// this pipeline periodically materializes the scheduler's training window
// from that store, trains a candidate model, and promotes it into a live
// SwappableScorer only if it clears two gates:
//   1. lint  — the analysis:: static verifier finds no warning/error-level
//              defect in the candidate (dead splits, unreachable leaves...);
//   2. guard — FAR/FDR measured on a held-back validation slice stay inside
//              the configured rails.
// Promotion is journal-first: the generation record (store/format.h type 3)
// is fsynced before the in-memory swap, so kill -9 between the two steps
// resumes to the *new* generation — the swap is the only non-durable step
// and it is idempotent from the journal. One step does it for every
// caller (install_generation): this pipeline, the serve retrain loop
// (serve/retrain_loop.h) and ShardEngine::resume's reconciliation. A
// promotion's number comes from the journal: one above every generation
// any of its stores holds and the live one (promote_generation), so a
// retry after a partial promotion never reuses a number. The cycle itself
// (run_gated_cycle) reads one store here and every shard's store in the
// daemon, each through the same runner the appends use. Rejected
// candidates are dropped on the floor (counted, never scored). Shadow
// scoring of a candidate against the incumbent on live traffic lives in
// core::FleetScorer::set_shadow; the serve retrain loop stitches both
// together.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "common/rng.h"
#include "core/predictor.h"
#include "core/swappable.h"
#include "data/dataset.h"
#include "data/split.h"
#include "data/training.h"
#include "pipeline/scheduler.h"
#include "smart/drive.h"

namespace hdd::obs {
class Counter;
class Gauge;
class Registry;
}  // namespace hdd::obs

namespace hdd::store {
class TelemetryStore;
}

namespace hdd::pipeline {

// FAR/FDR rails a candidate must stay inside on the validation slice. A
// rail whose side of the split holds no drives is vacuous (a window with no
// failed validation drives cannot measure FDR).
struct GuardrailConfig {
  double max_far = 1.0;   // reject when validation FAR exceeds this
  double min_fdr = 0.0;   // reject when validation FDR falls below this
  bool require_lint_clean = true;  // reject on any verifier finding
};

// What a retrain cycle did. Fixed codes: these cross the serve wire as one
// byte (StatsResponse::last_outcome).
enum class Outcome : std::uint8_t {
  kNone = 0,  // no cycle has run yet
  kPromoted = 1,
  kRejectedLint = 2,
  kRejectedGuardrail = 3,
  kRejectedNoData = 4,      // window held no trainable samples
  kRejectedTrainFailed = 5, // trainer threw
  kSkipped = 6,             // scheduler not due
};

const char* outcome_name(Outcome o);

struct PipelineConfig {
  SchedulerConfig scheduler;
  // Candidate family + training parameters + voting (e.g. core::preset("ct")).
  core::PredictorConfig trainer;
  GuardrailConfig guardrail;
  analysis::VerifyOptions verify;  // lint-gate options

  // Good/failed drives split between training and held-back validation.
  double train_fraction = 0.7;
  std::uint64_t seed = 31;

  // Serve loop only: samples the candidate must shadow-score on live
  // traffic before promotion (0 = promote as soon as the gates pass).
  std::uint64_t min_shadow_samples = 0;

  // Registry for the hdd_pipeline_* instruments; nullptr = global.
  obs::Registry* metrics = nullptr;
};

// The hdd_pipeline_* control-loop instruments (DESIGN.md §10). Shadow
// divergence counters live on FleetScorer, not here. run_gated_cycle counts
// cycles and rejections, promote_generation promotions.
struct PipelineMetrics {
  obs::Counter* cycles = nullptr;      // hdd_pipeline_retrain_cycles_total
  obs::Counter* promotions = nullptr;  // hdd_pipeline_promotions_total
  // hdd_pipeline_rejections_total{reason=...} by Outcome; null for the
  // outcomes that are not rejections.
  std::array<obs::Counter*, 7> rejections{};
  obs::Gauge* generation = nullptr;    // hdd_pipeline_generation
};

PipelineMetrics make_pipeline_metrics(obs::Registry* registry);

// What a gate, a cycle or a controller's tick did.
struct CycleResult {
  Outcome outcome = Outcome::kNone;
  // The live generation after the cycle; train_and_gate leaves it 0.
  std::uint64_t generation = 0;
  // The model that passed the gates, if any.
  std::shared_ptr<const core::SampleScorer> candidate;
  double val_far = 0.0;
  double val_fdr = 0.0;
  std::size_t train_rows = 0;
  std::string reason;  // human-readable rejection cause ("" when promoted)
};

// --- Windows: the read and the train/test split of one window of good-drive
// telemetry, shared by the retrain cycle (train_and_gate) and the offline
// updating simulation (update::simulate_long_term).

// Reads a window: one DriveRecord per good drive, holding its samples with
// hour in [from_hour, to_hour]. The live cycle reads each of its stores
// (store_window); the simulation regenerates (sim::generate_good_window).
using WindowSource = std::function<std::vector<smart::DriveRecord>(
    std::int64_t from_hour, std::int64_t to_hour)>;

// TelemetryStore::read_window as a source; `store` must outlive it.
WindowSource store_window(const store::TelemetryStore& store);

// A labeled failed pool split once, by a permutation drawn from `rng`:
// its first round(pool.size() * train_fraction) drives train, the rest
// test. ConfigError unless train_fraction is in (0, 1), the rule of
// data::split_dataset (train_and_gate splits its goods by the same rule).
// `pool` must outlive the split.
struct FailedSplit {
  FailedSplit(const std::vector<smart::DriveRecord>& pool,
              double train_fraction, Rng& rng);

  const std::vector<smart::DriveRecord>* pool;
  std::vector<std::size_t> perm;
  std::size_t n_train;
};

// One side of a window, as build_training_matrix and evaluate_batch take it.
struct WindowSet {
  data::DriveDataset dataset;
  data::DatasetSplit split;
};

enum class WindowSide { kTrain, kTest };

// The one train/test set assembly: the non-empty records of `goods` in
// order, every sample of each train (kTrain) or test (kTest) data, then
// `failed`'s drives of that side in permutation order. The train side
// keeps every failed record; the test side skips empty ones.
WindowSet window_set(WindowSide side, std::vector<smart::DriveRecord> goods,
                     const FailedSplit& failed, std::string family);

// `training` for a window `weeks` wide: good_samples_per_drive scaled by
// max(1, weeks) keeps the per-week good sampling density constant as
// windows grow.
data::TrainingConfig window_training(data::TrainingConfig training,
                                     int weeks);

// Trains a candidate on a deterministic train_fraction split of `goods` +
// `failed_pool` and runs it through the lint and guardrail gates.
// `window_weeks` is the training window's width (window_training). Pure
// function of its inputs — never touches a store or a live scorer.
CycleResult train_and_gate(std::vector<smart::DriveRecord> goods,
                           const std::vector<smart::DriveRecord>& failed_pool,
                           int window_weeks, const PipelineConfig& config);

// --- Live stores: what a retrain cycle reads and a promotion installs
// into. A generation record is turned back into a model only by
// core::FleetRuntime, at start-up.

// A journaling store and the live scorer it serves.
struct LiveStore {
  store::TelemetryStore* store;
  core::SwappableScorer* scorer;
};

// Runs `task` on store k's thread; false when it cannot, and then the
// task has not run.
using StoreRunner =
    std::function<bool(std::size_t k, const std::function<void()>& task)>;

// `run`, or the caller's thread when `run` is empty.
bool run_on(const StoreRunner& run, std::size_t k,
            const std::function<void()>& task);

// The one journal-then-swap step. Installs `model`, serialized as
// `model_text`, as generation `generation` in every store whose scorer is
// below it: journals the record into each such store through `run`, so it
// serializes with that store's other writes (a store that cannot run it
// is logged and left to restart reconciliation), and only after every
// append swaps each scorer. An append that throws (I/O, or a model over
// the record cap) ends the step with no scorer swapped.
void install_generation(std::span<const LiveStore> stores,
                        const StoreRunner& run,
                        const std::shared_ptr<const core::SampleScorer>& model,
                        const std::string& model_text,
                        std::uint64_t generation);

// Promotes `candidate` in every store: numbers it one above every
// generation any store has journaled and every live one, so a retry after
// a promotion that reached only some stores never reuses a number;
// installs it; counts the promotion and sets the generation gauge.
// Returns the new number.
std::uint64_t promote_generation(
    std::span<const LiveStore> stores, const StoreRunner& run,
    const std::shared_ptr<const core::SampleScorer>& candidate,
    const PipelineMetrics& metrics);

// The one retrain cycle under UpdatePipeline and serve::RetrainLoop. It
// reads the watermarks (samples, last hour) of every store through `run`
// and skips unless the scheduler is due or `force`; otherwise it reads the
// scheduler's window from every store in order, runs train_and_gate,
// marks the scheduler, counts the cycle (and the rejection, which it also
// logs) and hands back the outcome, with `generation` left 0 and a
// candidate that passed the gates not yet promoted.
CycleResult run_gated_cycle(RetrainScheduler& scheduler,
                            const PipelineMetrics& metrics,
                            std::span<const LiveStore> stores,
                            const StoreRunner& run, bool force,
                            const std::vector<smart::DriveRecord>& failed_pool,
                            const PipelineConfig& config);

// Store-backed pipeline over one TelemetryStore and one SwappableScorer
// (the `autoretrain` CLI command and offline tests; the serve daemon runs
// the same cycle and promotion over every shard in serve/retrain_loop.h).
// Single-threaded by contract — only the swap itself is concurrency-safe.
class UpdatePipeline {
 public:
  // All referenced objects must outlive the pipeline. Every drive in
  // `store` is treated as good telemetry; `failed_pool` supplies the
  // labeled failure records (the paper shares one failed set across all
  // retrains).
  UpdatePipeline(core::SwappableScorer& scorer, store::TelemetryStore& store,
                 std::vector<smart::DriveRecord> failed_pool,
                 PipelineConfig config);

  // One scheduler tick: trains, gates and (maybe) promotes when due.
  // `force` bypasses the due-check (offline `autoretrain --cycles`).
  CycleResult run_cycle(bool force = false);

 private:
  LiveStore live_;
  std::vector<smart::DriveRecord> failed_;
  PipelineConfig config_;
  RetrainScheduler scheduler_;
  PipelineMetrics metrics_;
};

}  // namespace hdd::pipeline
