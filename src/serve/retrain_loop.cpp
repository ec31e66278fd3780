#include "serve/retrain_loop.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "core/runtime.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "serve/shard_engine.h"
#include "store/telemetry_store.h"

namespace hdd::serve {

RetrainLoop::RetrainLoop(ShardEngine& engine, Server& server,
                         RetrainLoopConfig config)
    : engine_(&engine),
      server_(&server),
      config_(std::move(config)),
      scheduler_(config_.pipeline.scheduler),
      metrics_(pipeline::make_pipeline_metrics(config_.pipeline.metrics)) {
  for (std::size_t k = 0; k < engine_->shard_count(); ++k) {
    HDD_REQUIRE(engine_->shard(k).swappable() != nullptr,
                "retrain loop needs hot-swappable shard runtimes");
  }
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
  if (pending_ != nullptr) return maybe_promote(force);

  // Scheduler watermarks, each shard read on its own worker.
  std::uint64_t total = 0;
  std::int64_t last = -1;
  {
    const obs::ScopedSpan span("retrain.watermarks");
    for (std::size_t k = 0; k < engine_->shard_count(); ++k) {
      (void)server_->run_on_shard(k, [&] {
        const store::TelemetryStore& st = engine_->shard(k).store();
        total += st.sample_count();
        last = std::max(last, st.last_hour());
      });
    }
  }

  // The window, each shard read on its own worker and appended in shard
  // order (train_and_gate's split permutes the drives by index).
  auto step = pipeline::run_gated_cycle(
      scheduler_, metrics_, total, last, force,
      [this](std::int64_t from, std::int64_t to) {
        std::vector<smart::DriveRecord> goods;
        for (std::size_t k = 0; k < engine_->shard_count(); ++k) {
          (void)server_->run_on_shard(k, [&] {
            auto part = engine_->shard(k).store().read_window(from, to);
            std::move(part.begin(), part.end(), std::back_inserter(goods));
          });
        }
        return goods;
      },
      config_.failed_pool, config_.pipeline);
  pipeline::CycleResult& r = step.result;
  r.generation = engine_->model_stats().generation;
  if (step.candidate == nullptr) {
    if (r.outcome != pipeline::Outcome::kSkipped) {
      server_->set_last_outcome(static_cast<std::uint8_t>(r.outcome));
    }
    return r;
  }
  if (config_.pipeline.min_shadow_samples == 0) {
    promote(std::move(step.candidate), r);
    return r;
  }

  // Gates passed but the candidate must first prove itself on live
  // traffic: install it as every shard's shadow and defer promotion.
  pending_ = std::move(step.candidate);
  pending_gate_ = r;
  shadow_baseline_ = engine_->model_stats().shadow_samples;
  for (std::size_t k = 0; k < engine_->shard_count(); ++k) {
    engine_->shard(k).fleet().set_shadow(pending_);
  }
  r.outcome = pipeline::Outcome::kSkipped;
  r.reason = "shadow-scoring candidate before promotion";
  log_info() << "retrain loop: candidate passed gates; shadow-scoring "
             << config_.pipeline.min_shadow_samples
             << " samples before promotion";
  return r;
}

pipeline::CycleResult RetrainLoop::maybe_promote(bool force) {
  pipeline::CycleResult r = pending_gate_;
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
  promote(std::move(pending_), r);
  pending_ = nullptr;
  return r;
}

void RetrainLoop::promote(
    std::shared_ptr<const core::SampleScorer> candidate,
    pipeline::CycleResult& r) {
  const obs::ScopedSpan span("retrain.promote");
  std::ostringstream os;
  candidate->save(os);
  const std::string text = std::move(os).str();
  const std::uint64_t next = engine_->model_stats().generation + 1;
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

  // Journal-first, shard by shard, each append on that shard's worker so
  // it serializes with the shard's ingest writes. A kill -9 after a prefix
  // of shards leaves mixed generations on disk; ShardEngine::resume()
  // reconciles to the newest on restart. An append that throws (I/O, or a
  // model over the record cap) ends the promotion the same way: it
  // reaches run()'s catch with no model swapped.
  for (std::size_t k = 0; k < engine_->shard_count(); ++k) {
    const bool ok = server_->run_on_shard(k, [&] {
      engine_->shard(k).store().append_generation(next, text);
    });
    if (!ok) {
      log_warn() << "retrain loop: shard " << k
                 << " unavailable; its generation record is deferred to "
                    "restart reconciliation";
    }
  }
  // Only after the records are durable does the fleet start scoring with
  // the new model; swap() is safe against concurrent scoring calls.
  for (std::size_t k = 0; k < engine_->shard_count(); ++k) {
    engine_->shard(k).swappable()->swap(candidate, next);
  }
  metrics_.promotions->inc();
  metrics_.generation->set(static_cast<double>(next));
  r.outcome = pipeline::Outcome::kPromoted;
  r.generation = next;
  server_->set_last_outcome(static_cast<std::uint8_t>(r.outcome));
  log_info() << "retrain loop: promoted generation " << next << " (val FAR "
             << r.val_far << ", FDR " << r.val_fdr << ")";
}

}  // namespace hdd::serve
