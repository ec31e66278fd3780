#include "pipeline/pipeline.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/model_io.h"
#include "data/training.h"
#include "eval/detection.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/telemetry_store.h"

namespace hdd::pipeline {

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kNone: return "none";
    case Outcome::kPromoted: return "promoted";
    case Outcome::kRejectedLint: return "rejected-lint";
    case Outcome::kRejectedGuardrail: return "rejected-guardrail";
    case Outcome::kRejectedNoData: return "rejected-no-data";
    case Outcome::kRejectedTrainFailed: return "rejected-train-failed";
    case Outcome::kSkipped: return "skipped";
  }
  return "?";
}

PipelineMetrics make_pipeline_metrics(obs::Registry* registry) {
  obs::Registry& reg =
      registry != nullptr ? *registry : obs::Registry::global();
  PipelineMetrics m;
  m.cycles = &reg.counter("hdd_pipeline_retrain_cycles_total",
                          "Retrain cycles that trained a candidate.");
  m.promotions = &reg.counter("hdd_pipeline_promotions_total",
                              "Candidates promoted to the live scorer.");
  const char* rej_name = "hdd_pipeline_rejections_total";
  const char* rej_help = "Candidates rejected, by gate.";
  for (const auto& [outcome, reason] :
       {std::pair{Outcome::kRejectedLint, "lint"},
        {Outcome::kRejectedGuardrail, "guardrail"},
        {Outcome::kRejectedNoData, "no_data"},
        {Outcome::kRejectedTrainFailed, "train_failed"}}) {
    m.rejections[static_cast<std::size_t>(outcome)] =
        &reg.counter(rej_name, rej_help, {{"reason", reason}});
  }
  m.generation = &reg.gauge("hdd_pipeline_generation",
                            "Live model generation (0 = seed model).");
  return m;
}

namespace {

std::string first_finding(const analysis::Report& report) {
  for (const analysis::Diagnostic& d : report.diagnostics) {
    if (d.severity != analysis::Severity::kNote) {
      return d.code + " at " + d.location + ": " + d.message;
    }
  }
  return "verifier finding";
}

}  // namespace

GateResult train_and_gate(std::vector<smart::DriveRecord> goods,
                          const std::vector<smart::DriveRecord>& failed_pool,
                          int window_weeks, const PipelineConfig& config) {
  GateResult res;

  // Deterministic held-back split of both pools: the same seed always
  // carves the same validation slice, so a rejected candidate re-trained
  // on the same window is judged against the same data.
  Rng rng(config.seed);
  const auto fperm = rng.permutation(failed_pool.size());
  const auto gperm = rng.permutation(goods.size());
  const auto n_train_failed = static_cast<std::size_t>(std::round(
      static_cast<double>(failed_pool.size()) * config.train_fraction));
  const auto n_train_good = static_cast<std::size_t>(std::round(
      static_cast<double>(goods.size()) * config.train_fraction));

  const std::string family = "pipeline";
  data::DriveDataset train_ds;
  train_ds.family_names = {family};
  data::DatasetSplit train_split;
  for (std::size_t i = 0; i < n_train_good; ++i) {
    auto& g = goods[gperm[i]];
    if (g.empty()) continue;
    train_split.good_drives.push_back(train_ds.drives.size());
    train_split.good_test_begin.push_back(g.samples.size());  // all train
    train_ds.drives.push_back(std::move(g));
  }
  for (std::size_t k = 0; k < n_train_failed; ++k) {
    train_split.train_failed.push_back(train_ds.drives.size());
    train_ds.drives.push_back(failed_pool[fperm[k]]);
  }
  if (train_split.good_drives.empty() || train_split.train_failed.empty()) {
    res.outcome = Outcome::kRejectedNoData;
    res.reason = train_split.good_drives.empty()
                     ? "training window holds no good samples"
                     : "no failed drives in the training split";
    return res;
  }

  data::TrainingConfig tc = config.trainer.training;
  // Keep the per-week good sampling density constant as windows grow
  // (matches update::simulate_long_term).
  tc.good_samples_per_drive =
      config.trainer.training.good_samples_per_drive *
      std::max(1, window_weeks);
  std::unique_ptr<core::SampleScorer> scorer;
  std::size_t rows = 0;
  try {
    const obs::ScopedSpan train_span("pipeline.train");
    const auto matrix = data::build_training_matrix(train_ds, train_split, tc);
    rows = matrix.rows();
    scorer = core::fit_scorer(config.trainer, matrix);
  } catch (const std::exception& e) {
    res.outcome = Outcome::kRejectedTrainFailed;
    res.reason = e.what();
    return res;
  }
  res.train_rows = rows;

  const obs::ScopedSpan gate_span("pipeline.gate");

  // Gate 1: the static verifier. Tree-backed candidates are linted; other
  // backends have their own verifier run at load time and pass through
  // here (the guardrail still protects them).
  if (config.guardrail.require_lint_clean) {
    if (const tree::DecisionTree* t = scorer->tree()) {
      const auto report =
          analysis::verify_tree(*t, config.verify, "candidate");
      if (report.has_findings()) {
        res.outcome = Outcome::kRejectedLint;
        res.reason = first_finding(report);
        return res;
      }
    }
  }

  // Gate 2: FAR/FDR rails on the held-back validation slice.
  data::DriveDataset val_ds;
  val_ds.family_names = {family};
  data::DatasetSplit val_split;
  for (std::size_t i = n_train_good; i < goods.size(); ++i) {
    auto& g = goods[gperm[i]];
    if (g.empty()) continue;
    val_split.good_drives.push_back(val_ds.drives.size());
    val_split.good_test_begin.push_back(0);  // the whole window is test data
    val_ds.drives.push_back(std::move(g));
  }
  for (std::size_t k = n_train_failed; k < failed_pool.size(); ++k) {
    if (failed_pool[fperm[k]].empty()) continue;
    val_split.test_failed.push_back(val_ds.drives.size());
    val_ds.drives.push_back(failed_pool[fperm[k]]);
  }
  const core::SampleScorer* raw = scorer.get();
  const auto result = eval::evaluate_batch(
      val_ds, val_split, tc.features,
      [raw](std::span<const float> xs, std::span<double> out) {
        raw->predict_batch(xs, out);
      },
      config.trainer.vote);
  res.val_far = result.far();
  res.val_fdr = result.fdr();
  // A rail is only meaningful when its side of the validation slice holds
  // drives to measure it on.
  if (result.n_good > 0 && res.val_far > config.guardrail.max_far) {
    res.outcome = Outcome::kRejectedGuardrail;
    std::ostringstream os;
    os << "validation FAR " << res.val_far << " > max_far "
       << config.guardrail.max_far;
    res.reason = os.str();
    return res;
  }
  if (result.n_failed > 0 && res.val_fdr < config.guardrail.min_fdr) {
    res.outcome = Outcome::kRejectedGuardrail;
    std::ostringstream os;
    os << "validation FDR " << res.val_fdr << " < min_fdr "
       << config.guardrail.min_fdr;
    res.reason = os.str();
    return res;
  }

  res.outcome = Outcome::kPromoted;
  res.candidate = std::shared_ptr<const core::SampleScorer>(std::move(scorer));
  return res;
}

std::shared_ptr<const core::SampleScorer> load_generation_model(
    const std::string& model_text) {
  std::istringstream is(model_text);
  // The model was linted at promotion time; a strict re-verify here could
  // wedge resume on a rule added since, so load as-is.
  core::LoadOptions load;
  load.verify = core::VerifyMode::kOff;
  return core::make_model_scorer(core::load_model(is, load));
}

UpdatePipeline::UpdatePipeline(core::SwappableScorer& scorer,
                               store::TelemetryStore& store,
                               std::vector<smart::DriveRecord> failed_pool,
                               PipelineConfig config)
    : scorer_(&scorer),
      store_(&store),
      failed_(std::move(failed_pool)),
      config_(std::move(config)),
      scheduler_(config_.scheduler),
      metrics_(make_pipeline_metrics(config_.metrics)) {
  metrics_.generation->set(static_cast<double>(scorer_->generation()));
}

CycleStep run_gated_cycle(RetrainScheduler& scheduler,
                          const PipelineMetrics& metrics, std::uint64_t total,
                          std::int64_t last, bool force,
                          const WindowSource& window,
                          const std::vector<smart::DriveRecord>& failed_pool,
                          const PipelineConfig& config) {
  if (!force && !scheduler.due(total, last)) {
    return {{Outcome::kSkipped, 0, 0.0, 0.0, ""}, nullptr};
  }
  const auto hours = scheduler.window_hours(std::max<std::int64_t>(last, 0));
  auto goods = [&] {
    const obs::ScopedSpan span("pipeline.window");
    return window(hours.first, hours.second - 1);
  }();
  const int weeks = static_cast<int>((hours.second - hours.first) / 168);
  auto gate = train_and_gate(std::move(goods), failed_pool, weeks, config);
  scheduler.mark(total, last);
  metrics.cycles->inc();
  if (gate.outcome != Outcome::kPromoted) {
    metrics.rejections[static_cast<std::size_t>(gate.outcome)]->inc();
    log_info() << "retrain: candidate " << outcome_name(gate.outcome)
               << (gate.reason.empty() ? "" : ": " + gate.reason);
  }
  return {
      {gate.outcome, 0, gate.val_far, gate.val_fdr, std::move(gate.reason)},
      std::move(gate.candidate)};
}

CycleResult UpdatePipeline::run_cycle(bool force) {
  const obs::ScopedSpan span("pipeline.cycle");
  auto step = run_gated_cycle(
      scheduler_, metrics_, store_->sample_count(), store_->last_hour(),
      force,
      [this](std::int64_t from, std::int64_t to) {
        return store_->read_window(from, to);
      },
      failed_, config_);
  CycleResult& r = step.result;
  r.generation = scorer_->generation();
  if (step.candidate != nullptr) {
    std::ostringstream os;
    step.candidate->save(os);
    const std::uint64_t next_gen = r.generation + 1;
    // Journal-first promotion: once the record is durable the swap is a
    // formality — a crash between the two resumes to `next_gen`.
    store_->append_generation(next_gen, os.str());
    scorer_->swap(std::move(step.candidate), next_gen);
    metrics_.promotions->inc();
    metrics_.generation->set(static_cast<double>(next_gen));
    r.generation = next_gen;
    log_debug() << "pipeline: promoted generation " << next_gen
                << " (val FAR " << r.val_far << ", FDR " << r.val_fdr << ")";
  }
  return r;
}

}  // namespace hdd::pipeline
