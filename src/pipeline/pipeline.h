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
// and it is idempotent from the journal. Rejected candidates are dropped on
// the floor (counted, never scored). Shadow scoring of a candidate against
// the incumbent on live traffic lives in core::FleetScorer::set_shadow; the
// serve retrain loop (serve/retrain_loop.h) stitches both together.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "core/predictor.h"
#include "core/swappable.h"
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
// cycles and rejections; the caller counts a promotion once it swaps.
struct PipelineMetrics {
  obs::Counter* cycles = nullptr;      // hdd_pipeline_retrain_cycles_total
  obs::Counter* promotions = nullptr;  // hdd_pipeline_promotions_total
  // hdd_pipeline_rejections_total{reason=...} by Outcome; null for the
  // outcomes that are not rejections.
  std::array<obs::Counter*, 7> rejections{};
  obs::Gauge* generation = nullptr;    // hdd_pipeline_generation
};

PipelineMetrics make_pipeline_metrics(obs::Registry* registry);

struct GateResult {
  Outcome outcome = Outcome::kNone;
  // Non-null exactly when outcome == kPromoted (gates passed); the caller
  // owns journaling + swapping it in.
  std::shared_ptr<const core::SampleScorer> candidate;
  double val_far = 0.0;
  double val_fdr = 0.0;
  std::size_t train_rows = 0;
  std::string reason;  // human-readable rejection cause ("" when promoted)
};

// Trains a candidate on a deterministic train_fraction split of `goods` +
// `failed_pool` and runs it through the lint and guardrail gates.
// `window_weeks` is the training window's width (scales the per-drive good
// sampling density, matching update::simulate_long_term). Pure function of
// its inputs — never touches a store or a live scorer.
GateResult train_and_gate(std::vector<smart::DriveRecord> goods,
                          const std::vector<smart::DriveRecord>& failed_pool,
                          int window_weeks, const PipelineConfig& config);

// Deserializes a journaled generation record's model text back into a
// scorer (inverse of SampleScorer::save). Throws DataError on malformed
// text.
std::shared_ptr<const core::SampleScorer> load_generation_model(
    const std::string& model_text);

struct CycleResult {
  Outcome outcome = Outcome::kNone;
  std::uint64_t generation = 0;  // live generation after the cycle
  double val_far = 0.0;
  double val_fdr = 0.0;
  std::string reason;
};

// Reads the training window: one DriveRecord per good drive, holding its
// samples with hour in [from_hour, to_hour].
using WindowSource = std::function<std::vector<smart::DriveRecord>(
    std::int64_t from_hour, std::int64_t to_hour)>;

struct CycleStep {
  // `generation` is left for the caller, which owns the live scorer.
  CycleResult result;
  // Non-null exactly when the gates passed; promoting it is the caller's.
  std::shared_ptr<const core::SampleScorer> candidate;
};

// The one retrain cycle under UpdatePipeline and serve::RetrainLoop. Given
// the store watermarks (`total` samples, `last` hour), it skips unless the
// scheduler is due or `force`; otherwise it reads the scheduler's window,
// runs train_and_gate, marks the scheduler, counts the cycle (and the
// rejection, which it also logs) and hands back the outcome.
CycleStep run_gated_cycle(RetrainScheduler& scheduler,
                          const PipelineMetrics& metrics, std::uint64_t total,
                          std::int64_t last, bool force,
                          const WindowSource& window,
                          const std::vector<smart::DriveRecord>& failed_pool,
                          const PipelineConfig& config);

// Store-backed pipeline over one TelemetryStore and one SwappableScorer
// (the `autoretrain` CLI command and offline tests; the serve daemon runs
// the multi-shard variant in serve/retrain_loop.h). Single-threaded by
// contract — only the swap itself is concurrency-safe.
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
  core::SwappableScorer* scorer_;
  store::TelemetryStore* store_;
  std::vector<smart::DriveRecord> failed_;
  PipelineConfig config_;
  RetrainScheduler scheduler_;
  PipelineMetrics metrics_;
};

}  // namespace hdd::pipeline
