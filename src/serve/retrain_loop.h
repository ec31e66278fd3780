// RetrainLoop — the serve daemon's continuous model-update controller.
//
// A background thread runs pipeline::run_gated_cycle, the same cycle as
// UpdatePipeline, over every shard's TelemetryStore: the watermarks and
// the training window are read on each shard's worker (Server::
// run_on_shard), so reads never race ingest. What is left here is what
// only the daemon has: the shadow stage and the published outcome.
//
// Promotion state machine (DESIGN.md §10):
//
//   idle --due--> train+gate --reject--> idle          (counted, no swap)
//                     |pass
//                     v
//        [min_shadow_samples == 0]  --> promote
//        [min_shadow_samples  > 0]  --> shadowing --enough samples--> promote
//
// "shadowing" installs the candidate as every shard's FleetScorer shadow:
// it scores live traffic next to the incumbent (divergence counters in
// /metrics) but cannot raise real alarms; promotion waits until the fleet
// has shadow-scored the configured sample count. Promotion is
// pipeline::promote_generation, the step UpdatePipeline takes too: the
// generation number is one above every number any shard has journaled,
// each shard's record is appended on that shard's worker (serialized with
// its ingest writes), and only after every append does this thread swap
// each shard's SwappableScorer. A kill -9 anywhere in between is healed by
// ShardEngine::resume()'s reconciliation, which installs through the same
// step.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "pipeline/pipeline.h"
#include "smart/drive.h"

namespace hdd::serve {

class Server;
class ShardEngine;

struct RetrainLoopConfig {
  pipeline::PipelineConfig pipeline;
  // Labeled failure records shared across retrains (the paper's shared
  // failed pool); the store's own drives are the good population.
  std::vector<smart::DriveRecord> failed_pool;
  // Scheduler poll cadence of the background thread.
  int poll_interval_ms = 500;
};

class RetrainLoop {
 public:
  // Every shard of `engine` must be hot-swappable
  // (FleetRuntimeConfig::hot_swappable); both references must outlive the
  // loop.
  RetrainLoop(ShardEngine& engine, Server& server, RetrainLoopConfig config);
  ~RetrainLoop();

  RetrainLoop(const RetrainLoop&) = delete;
  RetrainLoop& operator=(const RetrainLoop&) = delete;

  // Spawns / joins the background thread. stop() is idempotent and safe
  // without start().
  void start();
  void stop();

  // One scheduler tick, synchronous. Call either from the background
  // thread (start()) or directly (tests, single-shot tools) — never both.
  // `force` bypasses the due-check, and promotes a shadowing candidate
  // regardless of accumulated shadow samples.
  pipeline::CycleResult tick(bool force = false);

  bool shadowing() const { return pending_.candidate != nullptr; }

 private:
  pipeline::CycleResult maybe_promote(bool force);
  void promote(std::shared_ptr<const core::SampleScorer> candidate,
               pipeline::CycleResult& r);
  void loop();

  ShardEngine* engine_;
  Server* server_;
  RetrainLoopConfig config_;
  // Every shard's store and live scorer, each reached on its worker.
  std::vector<pipeline::LiveStore> stores_;
  pipeline::StoreRunner run_;
  pipeline::RetrainScheduler scheduler_;
  pipeline::PipelineMetrics metrics_;

  // Shadowing state; only the tick caller touches it.
  pipeline::CycleResult pending_;  // the candidate, its outcome and rails
  std::uint64_t shadow_baseline_ = 0;

  std::thread thread_;
  Mutex stop_mu_{lock_order::Rank::kRetrainStop, "retrain-stop"};
  CondVar stop_cv_;
  bool stop_requested_ HDD_GUARDED_BY(stop_mu_) = false;
};

}  // namespace hdd::serve
