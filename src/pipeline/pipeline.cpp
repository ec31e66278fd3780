#include "pipeline/pipeline.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
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

// How many of `n` drives train.
std::size_t train_count(std::size_t n, double train_fraction) {
  HDD_REQUIRE(train_fraction > 0.0 && train_fraction < 1.0,
              "train_fraction must be in (0,1)");
  return static_cast<std::size_t>(
      std::round(static_cast<double>(n) * train_fraction));
}

}  // namespace

WindowSource store_window(const store::TelemetryStore& store) {
  return [&store](std::int64_t from, std::int64_t to) {
    return store.read_window(from, to);
  };
}

FailedSplit::FailedSplit(const std::vector<smart::DriveRecord>& pool,
                         double train_fraction, Rng& rng)
    : pool(&pool),
      perm(rng.permutation(pool.size())),
      n_train(train_count(pool.size(), train_fraction)) {}

WindowSet window_set(WindowSide side, std::vector<smart::DriveRecord> goods,
                     const FailedSplit& failed, std::string family) {
  const bool train = side == WindowSide::kTrain;
  WindowSet w;
  w.dataset.family_names = {std::move(family)};
  for (smart::DriveRecord& g : goods) {
    if (g.empty()) continue;
    w.split.good_drives.push_back(w.dataset.drives.size());
    w.split.good_test_begin.push_back(train ? g.samples.size() : 0);
    w.dataset.drives.push_back(std::move(g));
  }
  auto& ids = train ? w.split.train_failed : w.split.test_failed;
  const std::size_t begin = train ? 0 : failed.n_train;
  const std::size_t end = train ? failed.n_train : failed.perm.size();
  for (std::size_t k = begin; k < end; ++k) {
    const smart::DriveRecord& f = (*failed.pool)[failed.perm[k]];
    if (!train && f.empty()) continue;
    ids.push_back(w.dataset.drives.size());
    w.dataset.drives.push_back(f);
  }
  return w;
}

data::TrainingConfig window_training(data::TrainingConfig training,
                                     int weeks) {
  training.good_samples_per_drive *= std::max(1, weeks);
  return training;
}

CycleResult train_and_gate(std::vector<smart::DriveRecord> goods,
                           const std::vector<smart::DriveRecord>& failed_pool,
                           int window_weeks, const PipelineConfig& config) {
  CycleResult res;

  // Deterministic held-back split of both pools: the same seed always
  // carves the same validation slice, so a rejected candidate re-trained
  // on the same window is judged against the same data.
  Rng rng(config.seed);
  const FailedSplit failed(failed_pool, config.train_fraction, rng);
  const auto gperm = rng.permutation(goods.size());
  const std::size_t n_train_good =
      train_count(goods.size(), config.train_fraction);
  std::vector<smart::DriveRecord> train_goods;
  std::vector<smart::DriveRecord> val_goods;
  for (std::size_t i = 0; i < goods.size(); ++i) {
    (i < n_train_good ? train_goods : val_goods)
        .push_back(std::move(goods[gperm[i]]));
  }

  const std::string family = "pipeline";
  const WindowSet train =
      window_set(WindowSide::kTrain, std::move(train_goods), failed, family);
  if (train.split.good_drives.empty() || train.split.train_failed.empty()) {
    res.outcome = Outcome::kRejectedNoData;
    res.reason = train.split.good_drives.empty()
                     ? "training window holds no good samples"
                     : "no failed drives in the training split";
    return res;
  }

  const data::TrainingConfig tc =
      window_training(config.trainer.training, window_weeks);
  std::unique_ptr<core::SampleScorer> scorer;
  std::size_t rows = 0;
  try {
    const obs::ScopedSpan train_span("pipeline.train");
    const auto matrix =
        data::build_training_matrix(train.dataset, train.split, tc);
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
  const WindowSet val =
      window_set(WindowSide::kTest, std::move(val_goods), failed, family);
  const core::SampleScorer* raw = scorer.get();
  const auto result = eval::evaluate_batch(
      val.dataset, val.split, tc.features,
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

bool run_on(const StoreRunner& run, std::size_t k,
            const std::function<void()>& task) {
  if (run) return run(k, task);
  task();
  return true;
}

void install_generation(std::span<const LiveStore> stores,
                        const StoreRunner& run,
                        const std::shared_ptr<const core::SampleScorer>& model,
                        const std::string& model_text,
                        std::uint64_t generation) {
  // Journal-first: a kill -9 after a prefix of the appends leaves mixed
  // generations on disk, which ShardEngine::resume reconciles to the
  // newest; once every record is durable the swaps are a formality.
  for (std::size_t k = 0; k < stores.size(); ++k) {
    if (stores[k].scorer->generation() >= generation) continue;
    if (!run_on(run, k, [&] {
          stores[k].store->append_generation(generation, model_text);
        })) {
      log_warn() << "generation " << generation << ": store " << k
                 << " unavailable; its generation record is deferred to "
                    "restart reconciliation";
    }
  }
  // swap() is safe against concurrent scoring calls.
  for (const LiveStore& s : stores) {
    if (s.scorer->generation() < generation) s.scorer->swap(model, generation);
  }
}

std::uint64_t promote_generation(
    std::span<const LiveStore> stores, const StoreRunner& run,
    const std::shared_ptr<const core::SampleScorer>& candidate,
    const PipelineMetrics& metrics) {
  std::ostringstream os;
  candidate->save(os);
  std::uint64_t newest = 0;
  for (std::size_t k = 0; k < stores.size(); ++k) {
    newest = std::max(newest, stores[k].scorer->generation());
    (void)run_on(run, k, [&] {
      const auto& rec = stores[k].store->latest_generation();
      if (rec.has_value()) newest = std::max(newest, rec->generation);
    });
  }
  install_generation(stores, run, candidate, std::move(os).str(), newest + 1);
  metrics.promotions->inc();
  metrics.generation->set(static_cast<double>(newest + 1));
  return newest + 1;
}

UpdatePipeline::UpdatePipeline(core::SwappableScorer& scorer,
                               store::TelemetryStore& store,
                               std::vector<smart::DriveRecord> failed_pool,
                               PipelineConfig config)
    : live_{&store, &scorer},
      failed_(std::move(failed_pool)),
      config_(std::move(config)),
      scheduler_(config_.scheduler),
      metrics_(make_pipeline_metrics(config_.metrics)) {
  metrics_.generation->set(static_cast<double>(scorer.generation()));
}

CycleResult run_gated_cycle(RetrainScheduler& scheduler,
                            const PipelineMetrics& metrics,
                            std::span<const LiveStore> stores,
                            const StoreRunner& run, bool force,
                            const std::vector<smart::DriveRecord>& failed_pool,
                            const PipelineConfig& config) {
  std::uint64_t total = 0;
  std::int64_t last = -1;
  {
    const obs::ScopedSpan span("pipeline.watermarks");
    for (std::size_t k = 0; k < stores.size(); ++k) {
      (void)run_on(run, k, [&] {
        total += stores[k].store->sample_count();
        last = std::max(last, stores[k].store->last_hour());
      });
    }
  }
  if (!force && !scheduler.due(total, last)) {
    return {Outcome::kSkipped, 0, nullptr, 0.0, 0.0, 0, ""};
  }
  const auto hours = scheduler.window_hours(std::max<std::int64_t>(last, 0));
  // Appended in store order: train_and_gate's split permutes the drives by
  // index.
  std::vector<smart::DriveRecord> goods;
  {
    const obs::ScopedSpan span("pipeline.window");
    for (std::size_t k = 0; k < stores.size(); ++k) {
      (void)run_on(run, k, [&] {
        auto part = store_window(*stores[k].store)(hours.first,
                                                   hours.second - 1);
        std::move(part.begin(), part.end(), std::back_inserter(goods));
      });
    }
  }
  const int weeks = static_cast<int>((hours.second - hours.first) / 168);
  auto gate = train_and_gate(std::move(goods), failed_pool, weeks, config);
  scheduler.mark(total, last);
  metrics.cycles->inc();
  if (gate.outcome != Outcome::kPromoted) {
    metrics.rejections[static_cast<std::size_t>(gate.outcome)]->inc();
    log_info() << "retrain: candidate " << outcome_name(gate.outcome)
               << (gate.reason.empty() ? "" : ": " + gate.reason);
  }
  return gate;
}

CycleResult UpdatePipeline::run_cycle(bool force) {
  const obs::ScopedSpan span("pipeline.cycle");
  const std::span<const LiveStore> live(&live_, 1);
  CycleResult r =
      run_gated_cycle(scheduler_, metrics_, live, {}, force, failed_, config_);
  r.generation = live_.scorer->generation();
  if (r.candidate != nullptr) {
    r.generation = promote_generation(live, {}, r.candidate, metrics_);
    log_debug() << "pipeline: promoted generation " << r.generation
                << " (val FAR " << r.val_far << ", FDR " << r.val_fdr << ")";
  }
  return r;
}

}  // namespace hdd::pipeline
