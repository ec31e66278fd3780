#include "serve/retrain_loop.h"

#include <chrono>
#include <functional>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "core/runtime.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "serve/shard_engine.h"

namespace hdd::serve {

RetrainLoop::RetrainLoop(ShardEngine& engine, Server& server,
                         RetrainLoopConfig config)
    : engine_(&engine),
      server_(&server),
      config_(std::move(config)),
      stores_(engine.live_stores()),
      run_(std::bind_front(&Server::run_on_shard, &server)),
      scheduler_(config_.pipeline.scheduler),
      metrics_(pipeline::make_pipeline_metrics(config_.pipeline.metrics)) {
  HDD_REQUIRE(stores_.size() == engine_->shard_count(),
              "retrain loop needs hot-swappable shard runtimes");
  metrics_.generation->set(
      static_cast<double>(engine_->model_stats().generation));
}

RetrainLoop::~RetrainLoop() { stop(); }

void RetrainLoop::start() {
  thread_ = std::thread([this] { loop(); });
}

void RetrainLoop::stop() {
  {
    MutexLock lock(&stop_mu_);
    stop_requested_ = true;
    stop_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

void RetrainLoop::loop() {
  for (;;) {
    {
      // Wait out the poll interval unless stop() interrupts it. The
      // deadline is absolute so spurious wakeups don't extend the wait.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(config_.poll_interval_ms);
      MutexLock lock(&stop_mu_);
      while (!stop_requested_ &&
             stop_cv_.wait_until(stop_mu_, deadline) !=
                 std::cv_status::timeout) {
      }
      if (stop_requested_) return;
    }
    try {
      (void)tick(/*force=*/false);
    } catch (const std::exception& e) {
      // A failed cycle must never take the daemon down; the scheduler was
      // marked (or will re-trigger), and the incumbent keeps scoring.
      log_warn() << "retrain loop: cycle failed: " << e.what();
    }
  }
}

pipeline::CycleResult RetrainLoop::tick(bool force) {
  // Each cycle is its own trace (never a child of whatever request
  // context happens to linger on the caller's thread).
  const obs::WithTraceContext fresh(obs::TraceContext{});
  const obs::ScopedSpan cycle("retrain.cycle");
  if (pending_.candidate != nullptr) return maybe_promote(force);

  pipeline::CycleResult r = pipeline::run_gated_cycle(
      scheduler_, metrics_, stores_, run_, force, config_.failed_pool,
      config_.pipeline);
  r.generation = engine_->model_stats().generation;
  if (r.candidate == nullptr) {
    if (r.outcome != pipeline::Outcome::kSkipped) {
      server_->set_last_outcome(static_cast<std::uint8_t>(r.outcome));
    }
    return r;
  }
  if (config_.pipeline.min_shadow_samples == 0) {
    promote(std::move(r.candidate), r);
    return r;
  }

  // Gates passed but the candidate must first prove itself on live
  // traffic: install it as every shard's shadow and defer promotion.
  pending_ = r;
  shadow_baseline_ = engine_->model_stats().shadow_samples;
  for (std::size_t k = 0; k < engine_->shard_count(); ++k) {
    engine_->shard(k).fleet().set_shadow(pending_.candidate);
  }
  r.outcome = pipeline::Outcome::kSkipped;
  r.reason = "shadow-scoring candidate before promotion";
  log_info() << "retrain loop: candidate passed gates; shadow-scoring "
             << config_.pipeline.min_shadow_samples
             << " samples before promotion";
  return r;
}

pipeline::CycleResult RetrainLoop::maybe_promote(bool force) {
  pipeline::CycleResult r = pending_;
  const StatsResponse now = engine_->model_stats();
  r.generation = now.generation;
  const std::uint64_t scored = now.shadow_samples - shadow_baseline_;
  if (!force && scored < config_.pipeline.min_shadow_samples) {
    r.outcome = pipeline::Outcome::kSkipped;
    std::ostringstream os;
    os << "shadowing: " << scored << "/"
       << config_.pipeline.min_shadow_samples << " samples";
    r.reason = os.str();
    return r;
  }
  promote(std::exchange(pending_.candidate, nullptr), r);
  return r;
}

void RetrainLoop::promote(
    std::shared_ptr<const core::SampleScorer> candidate,
    pipeline::CycleResult& r) {
  const obs::ScopedSpan span("retrain.promote");
  // The candidate stops shadow-scoring on every exit. A promotion that
  // throws has already taken it out of pending_, so no later cycle would
  // promote it or clear it.
  struct DropShadows {
    ShardEngine* engine;
    ~DropShadows() {
      for (std::size_t k = 0; k < engine->shard_count(); ++k) {
        engine->shard(k).fleet().set_shadow(nullptr);
      }
    }
  } const drop_shadows{engine_};

  // Each shard's append runs on that shard's worker, serialized with its
  // ingest writes; the swaps run here. An append that throws reaches
  // run()'s catch with no model swapped.
  r.generation =
      pipeline::promote_generation(stores_, run_, candidate, metrics_);
  r.outcome = pipeline::Outcome::kPromoted;
  server_->set_last_outcome(static_cast<std::uint8_t>(r.outcome));
  log_info() << "retrain loop: promoted generation " << r.generation
             << " (val FAR " << r.val_far << ", FDR " << r.val_fdr << ")";
}

}  // namespace hdd::serve
