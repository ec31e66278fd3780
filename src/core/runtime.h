// FleetRuntime — one-stop wiring for the journaled fleet-scoring stack.
//
// Every consumer of FleetScorer used to assemble the same four config
// structs by hand: LoadOptions for the model file, StoreOptions for the
// telemetry journal, FleetScorerConfig for the scoring engine, and a
// QuarantinePolicy choice — duplicated across the CLI commands, the serve
// daemon's shards and the examples, each with its own subtle defaults.
// FleetRuntime collapses that into one config consumed everywhere: give it
// a model (a persisted tree file or an already-built SampleScorer) and
// optionally a store directory, and it owns the loaded model, the store
// and the scorer, attached and ready to resume.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/fleet.h"
#include "core/model_io.h"
#include "core/swappable.h"
#include "store/telemetry_store.h"

namespace hdd::core {

struct FleetRuntimeConfig {
  // The model: exactly one of these. `model_path` is a persisted decision
  // tree loaded under `load` (verify-on-load); `scorer` is any external
  // SampleScorer, not owned, which must outlive the runtime.
  std::string model_path;
  const SampleScorer* scorer = nullptr;
  LoadOptions load;

  // The journal: empty = in-memory scoring only (no store, no resume).
  std::string store_dir;
  store::StoreOptions store;

  // Scoring. An empty feature set means the paper's stat13 layout; the
  // model's width must match whichever set is in force.
  smart::FeatureSet features;
  eval::VoteConfig vote;
  QuarantinePolicy quarantine = QuarantinePolicy::kNonFinite;
  std::size_t block_rows = 256;
  ThreadPool* pool = nullptr;         // nullptr = ThreadPool::global()
  obs::Registry* metrics = nullptr;   // nullptr = obs::Registry::global()

  // Wrap the model in a SwappableScorer so the update pipeline can hot-swap
  // promoted generations while scoring runs. With a store, the newest
  // journaled generation record (if any) supersedes the configured model at
  // construction, restoring what a crashed daemon had promoted.
  bool hot_swappable = false;
};

class FleetRuntime {
 public:
  // Throws ConfigError on an inconsistent config (no model, both model
  // sources, feature-width mismatch) and DataError on a model or store
  // that cannot be loaded.
  explicit FleetRuntime(FleetRuntimeConfig config);

  FleetRuntime(const FleetRuntime&) = delete;
  FleetRuntime& operator=(const FleetRuntime&) = delete;

  const SampleScorer& scorer() const { return *scorer_; }
  FleetScorer& fleet() { return *fleet_; }
  const FleetScorer& fleet() const { return *fleet_; }

  store::TelemetryStore& store();
  const store::TelemetryStore& store() const;

  // Replays the store through the scorer (FleetScorer::resume_from); only
  // valid with a store.
  FleetScorer::ResumeResult resume(bool drop_partial_tail = true);

  // Durably flushes the journal (fsync). Safe without a store (no-op);
  // the shared shutdown handler calls this on SIGTERM/SIGINT.
  void seal();

  // Non-null exactly when configured hot_swappable: the slot the update
  // pipeline promotes candidates into.
  SwappableScorer* swappable() { return swappable_.get(); }
  std::uint64_t model_generation() const {
    return swappable_ != nullptr ? swappable_->generation() : generation_;
  }

 private:
  std::unique_ptr<SampleScorer> owned_scorer_;
  std::unique_ptr<SwappableScorer> swappable_;
  const SampleScorer* scorer_ = nullptr;
  std::uint64_t generation_ = 0;
  std::unique_ptr<store::TelemetryStore> store_;
  std::unique_ptr<FleetScorer> fleet_;
};

}  // namespace hdd::core
