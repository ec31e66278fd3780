// FleetScorer — batched, multi-threaded scoring of a whole drive fleet.
//
// The paper's deployment story (Section V-E) is a monitoring node that
// scores every drive in a data center on each SMART sample interval. This
// engine serves that workload in two modes:
//
//  * Streaming: register the fleet once (add_drive), then feed one feature
//    row per drive per interval (observe_interval). The engine scores the
//    snapshot through SampleScorer::predict_batch in row blocks spread over
//    the thread pool, and advances a per-drive incremental voting window
//    (eval::VoteWindow) — detection never rescans a drive's history.
//  * Journaled streaming: attach a store::TelemetryStore and feed raw SMART
//    samples, a fleet interval at a time (observe_samples) or as drive runs
//    on their own clocks (ingest_runs; ingest_drive is its one-run call).
//    Both take each drive's samples through one intake step (stale filter,
//    quarantine, journal append) before the same scoring step, which keeps
//    each drive's last FeatureSet::window_samples() samples and builds its
//    row with smart::extract_row, the rule training and evaluation use, so
//    a live row equals the offline row of the same record. After a crash,
//    resume_from() replays the log through that scoring step, restoring
//    every voting window so the continued run raises byte-identical
//    alarms.
//
// Offline evaluation (eval::vote_drive) pushes whole DriveRecords' outputs
// through the same eval::VoteWindow::push, so paper FDR/FAR/TIA and live
// alarms come from one voting rule.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/rcu_slot.h"
#include "core/scorer.h"
#include "data/dataset.h"
#include "eval/detection.h"
#include "smart/drive.h"

namespace hdd::store {
class TelemetryStore;
}
namespace hdd::obs {
class Counter;
class Histogram;
class Registry;
}  // namespace hdd::obs

namespace hdd::core {

// What observe_samples quarantines instead of scoring. Quarantined samples
// are skipped symmetrically everywhere — not journaled, not pushed into
// history, not voted on — so a resumed run replays exactly the stream the
// live run scored.
enum class QuarantinePolicy {
  kOff,        // score everything (caller vouches for the data)
  kNonFinite,  // quarantine NaN/Inf attribute values
  kFullDomain, // also quarantine values outside smart::attribute_range()
};

struct FleetScorerConfig {
  smart::FeatureSet features;
  eval::VoteConfig vote;
  // Rows per predict_batch call (and per parallel work item in streaming
  // mode).
  std::size_t block_rows = 256;
  // Ingest hygiene for observe_samples. The default only rejects values no
  // finite arithmetic can use; kFullDomain is for raw vendor telemetry
  // (CLI ingest uses it). Synthetic/pre-normalized pipelines that score
  // values outside the vendor scale keep the domain check off.
  QuarantinePolicy quarantine = QuarantinePolicy::kNonFinite;
  // nullptr = ThreadPool::global().
  ThreadPool* pool = nullptr;
  // Registry for the hdd_fleet_* metrics (samples scored, batch latency,
  // alarms, vote transitions, journal resumes); nullptr =
  // obs::Registry::global(). A non-global registry must outlive the
  // scorer.
  obs::Registry* metrics = nullptr;
};

// One drive's hour-ascending run of raw samples, as ingest_runs takes it.
struct DriveRun {
  std::size_t drive = 0;  // fleet index
  std::span<const smart::Sample> samples;
};

// One drive's vote with its own ring (eval/detection.h). This alias exists
// only because perfbench/ names core::DriveVoteState.
using DriveVoteState = eval::DriveVoteState;

class FleetScorer {
 public:
  // The scorer must outlive the FleetScorer.
  FleetScorer(const SampleScorer& scorer, FleetScorerConfig config);

  const FleetScorerConfig& config() const { return config_; }

  // --- Streaming mode -------------------------------------------------------

  // Registers a drive; returns its fleet index.
  std::size_t add_drive(std::string serial);
  std::size_t size() const { return windows_.size(); }
  const std::string& serial(std::size_t i) const { return serials_[i]; }
  const eval::VoteWindow& state(std::size_t i) const { return windows_[i]; }

  // Scores one interval snapshot: row i of the row-major block (or matrix)
  // is drive i's current feature row. Batched + parallel; per-drive voting
  // state advances incrementally. Already-alarmed drives keep their alarm.
  void observe_interval(std::span<const float> xs, std::int64_t hour);
  void observe_interval(const data::DataMatrix& m, std::int64_t hour);

  std::size_t alarm_count() const;
  std::vector<std::size_t> alarmed_drives() const;

  // Clears every drive's voting state (the registry stays).
  void reset();

  // --- Journaled streaming mode ---------------------------------------------

  // Attaches a durable journal (nullptr detaches): every registered drive is
  // registered in the store, and observe_samples appends each sample before
  // scoring it. The store must outlive the attachment.
  void attach_journal(store::TelemetryStore* store);
  store::TelemetryStore* journal() const { return journal_; }

  // What one intake call did with its samples (summed over drives).
  struct IngestResult {
    std::size_t accepted = 0;     // journaled (if attached) and scored
    std::size_t quarantined = 0;  // failed the quarantine policy
    std::size_t stale = 0;        // at or before the drive's newest scored hour
    // Runs dropped by a failed journal write; degraded() latched.
    std::size_t journal_failed = 0;
  };

  // Both intake calls below take each drive's samples through one intake
  // step, in this order:
  //  1. stale filter: a sample at or before the newest hour this scorer has
  //     scored for the drive is dropped and counted, so re-sending a batch or
  //     re-observing an interval (after a resume, or by mistake) is a no-op;
  //  2. quarantine: samples failing the policy are dropped and counted
  //     (hdd_fleet_quarantined_samples_total), with one warn line per call;
  //  3. journal (if attached): once every run of the call is admitted,
  //     the runs are appended, skipping hours the store already holds, and
  //     the call is pushed to the OS with one flush_to_os, all before any
  //     of it is scored. Any failure drops every run of the call: none is
  //     scored, each counts in journal_failed, the failure counts once
  //     (hdd_fleet_journal_append_failures_total) with one warn line, and
  //     degraded() latches. The store then holds none of the call, so the
  //     producer's re-send journals each sample once. A drive with several
  //     runs in one call is filtered against its own earlier runs too.
  // A dropped sample is dropped everywhere (journal, history, voting), so
  // in-memory state always matches what a resume would replay. Admitted
  // samples then go through the sample-window extraction, scoring and
  // voting step resume_from() shares. Not thread-safe: callers serialize
  // per scorer (serve gives each shard its own scorer + store).

  // Scores one interval of raw SMART telemetry: samples[i] is drive i's
  // reading, all stamped `hour`. After the journal write, one durable
  // flush() per interval; an fsync failure only latches degraded()
  // (scoring proceeds).
  IngestResult observe_samples(std::span<const smart::Sample> samples,
                               std::int64_t hour);

  // Batched ingest of drive runs — the serve path, where drives report on
  // their own clocks instead of fleet-lockstep intervals; one call carries
  // a shard's part of one request. The call is journaled as above (not
  // fsynced — the daemon fsyncs on seal/shutdown), and only then are the
  // admitted runs scored, in call order, by one pinned model generation.
  // journal_failed counts the runs a failed write dropped, and the
  // producer re-sends them.
  IngestResult ingest_runs(std::span<const DriveRun> runs);

  // The one-run call of ingest_runs.
  IngestResult ingest_drive(std::size_t i,
                            std::span<const smart::Sample> samples);

  // True once any journal write or fsync has failed; alarms raised since
  // are based on partial telemetry.
  bool degraded() const { return degraded_; }
  std::uint64_t quarantined_samples() const { return quarantined_; }
  std::uint64_t journal_failures() const { return journal_failures_; }

  // --- Shadow scoring -------------------------------------------------------

  // Divergence between the incumbent and a shadow candidate, accumulated
  // over live traffic since the shadow was installed (also exported as
  // hdd_pipeline_shadow_* counters). Shadow vote windows start empty, so
  // flip/alarm comparisons warm up over the first window.
  struct ShadowStats {
    std::uint64_t samples = 0;      // rows the shadow scored
    std::uint64_t divergence = 0;   // sign(shadow) != sign(incumbent)
    std::uint64_t vote_flips = 0;   // rolling window verdicts disagree
    std::uint64_t alarm_delta = 0;  // exactly one side raised its alarm
  };

  // Installs a candidate to score the same live feature rows as the
  // incumbent, on separate voting state that never raises real alarms
  // (nullptr uninstalls). Safe to call from a controller thread while a
  // scoring thread is mid-call: the running call finishes on the shadow it
  // pinned at entry. Each install resets the shadow voting states and
  // leaves the accumulated stats monotonic. Replay/resume paths never
  // shadow-score — only live traffic does.
  void set_shadow(std::shared_ptr<const SampleScorer> candidate);
  bool has_shadow() const;
  ShadowStats shadow_stats() const;

  struct ResumeResult {
    std::size_t drives = 0;
    std::size_t samples_replayed = 0;
    // Trailing samples dropped because their interval was torn mid-write
    // (only with drop_partial_tail).
    std::size_t partial_dropped = 0;
    std::int64_t last_hour = -1;  // latest hour applied to voting state
  };

  // Restores every drive's voting state by replaying the store through the
  // same history/extraction/scoring step the intake calls use. With an
  // empty registry the store's drives are adopted in id order; otherwise
  // the registry must match the store drive for drive. drop_partial_tail
  // discards a trailing interval that only some drives reached (a crash
  // mid-append); re-observing that hour then completes it for everyone.
  ResumeResult resume_from(store::TelemetryStore& store,
                           bool drop_partial_tail = true);

 private:
  // One generation of installed shadow model; readers pin the whole slot.
  struct ShadowSlot {
    std::shared_ptr<const SampleScorer> model;
    std::uint64_t epoch = 0;
  };
  // Everything one scoring call needs pinned for its whole duration: the
  // incumbent (possibly a hot-swap pin) and the shadow generation. Built
  // once per public call so a batch never mixes model generations.
  struct ScoreCtx {
    std::shared_ptr<const SampleScorer> pinned;  // keepalive for `model`
    const SampleScorer* model = nullptr;
    const SampleScorer* shadow = nullptr;  // nullptr = no shadow scoring
    std::shared_ptr<const ShadowSlot> shadow_pin;
  };
  // Per-block shadow tallies, flushed once per block to the atomics +
  // counters (keeps the hot loop free of per-sample atomic traffic).
  struct ShadowTally {
    std::uint64_t samples = 0;
    std::uint64_t divergence = 0;
    std::uint64_t vote_flips = 0;
    std::uint64_t alarm_delta = 0;
  };

  // Per-call intake scratch: what admit() let through, and the tallies.
  struct Intake {
    // An admitted run: kept[first, first + count) of `drive`.
    struct Run {
      std::size_t drive = 0;
      std::size_t first = 0;
      std::size_t count = 0;
    };
    IngestResult result;
    std::vector<smart::Sample> kept;  // admitted samples, in call order
    std::vector<Run> runs;            // in call order
    // Per drive: 1 + index into runs of its latest run this call, 0 = none
    // (reset through `runs` at the next call's start).
    std::vector<std::size_t> run_of;
    // The call's first quarantined sample, named in its one warn line.
    std::size_t q_drive = 0;
    std::int64_t q_hour = -1;
    smart::SampleFault q_fault = smart::SampleFault::kNone;
  };

  // `live` additionally pins the shadow and (single-threaded) refreshes
  // shadow voting state for a newly installed candidate.
  ScoreCtx make_ctx(bool live);
  void flush_shadow(const ShadowTally& t);
  // Scores one shadow output against the incumbent's state for drive i.
  // `primary_raised` is the incumbent push() result for the same sample.
  void shadow_push(std::size_t i, std::int64_t hour, double shadow_output,
                   double primary_output, bool primary_raised,
                   ShadowTally& tally);

  ThreadPool& pool() const;
  // Drive i's ring in `rings` (rings_ or shadow_rings_).
  std::span<float> ring(std::vector<float>& rings, std::size_t i) const;
  void push_history(std::size_t i, const smart::Sample& sample);

  // The intake step (see observe_samples): filters and quarantines drive
  // i's hour-ascending samples, appends the admitted ones to in.kept,
  // records them as one of in.runs and tallies into in.result.
  void admit(std::size_t i, std::span<const smart::Sample> samples,
             Intake& in);
  // The journal step: appends every admitted run and pushes the call to
  // the OS. False when a write failed and every run was dropped.
  bool journal_runs(Intake& in);
  // Starts a public intake call on the reused intake_ scratch.
  Intake& begin_intake();
  // The call's single quarantine warn line (none when nothing was).
  void log_quarantine(const Intake& in) const;
  // Counts a journal write/fsync failure, latches degraded() and logs it.
  void journal_failure(const std::string& what);

  // The scoring step: pushes rows through the pinned incumbent (and
  // shadow) in blocks of block_rows and advances voting. Row k belongs to
  // drive drives[k] — or drives[0] for every row, for one drive's run, or
  // drive k when `drives` is empty — and is samples[k] (pushed into
  // history, features extracted here) or, when `xs` is non-empty, row k of
  // the precomputed row-major `xs` at `hour`.
  // Rows of distinct drives are scored in parallel blocks; one drive's run
  // in order. Concurrent calls must cover disjoint drives.
  void score(const ScoreCtx& ctx, std::span<const std::size_t> drives,
             std::span<const smart::Sample> samples,
             std::span<const float> xs, std::int64_t hour);

  const SampleScorer* scorer_;
  FleetScorerConfig config_;
  std::size_t window_samples_;  // config_.features.window_samples()

  // hdd_fleet_* instruments (resolved from config_.metrics, see DESIGN.md
  // §7). Owned by the registry; shared across scorers on that registry.
  obs::Counter* m_samples_scored_;
  obs::Counter* m_alarms_;
  obs::Counter* m_vote_transitions_;
  obs::Counter* m_journal_resumes_;
  obs::Counter* m_resume_samples_;
  obs::Counter* m_quarantined_;
  obs::Counter* m_journal_failures_;
  obs::Histogram* m_batch_latency_;
  bool degraded_ = false;
  std::uint64_t quarantined_ = 0;
  std::uint64_t journal_failures_ = 0;
  std::vector<std::string> serials_;
  // Drive i votes through windows_[i] over the N outputs at
  // rings_[i * N, (i + 1) * N).
  std::vector<eval::VoteWindow> windows_;
  std::vector<float> rings_;
  std::vector<std::size_t> rows_;  // the drives one observe_samples scores

  // Shadow scoring state. The slot is the only cross-thread member
  // (controller installs, scoring calls pin); the voting states follow the
  // scorer's single-caller contract.
  RcuSlot<const ShadowSlot> shadow_slot_;
  std::uint64_t shadow_installs_ = 0;  // controller-side epoch source
  std::uint64_t shadow_epoch_seen_ = 0;
  std::vector<eval::VoteWindow> shadow_windows_;
  std::vector<float> shadow_rings_;
  std::atomic<std::uint64_t> sh_samples_{0};
  std::atomic<std::uint64_t> sh_divergence_{0};
  std::atomic<std::uint64_t> sh_vote_flips_{0};
  std::atomic<std::uint64_t> sh_alarm_delta_{0};
  obs::Counter* m_shadow_samples_;
  obs::Counter* m_shadow_divergence_;
  obs::Counter* m_shadow_vote_flips_;
  obs::Counter* m_shadow_alarm_delta_;

  // Journaled streaming state.
  store::TelemetryStore* journal_ = nullptr;
  std::vector<std::uint32_t> journal_ids_;   // fleet index -> store drive id
  // Drive i's last window_samples_ samples, oldest first. Nothing is
  // reserved: an observe_interval-only fleet never pushes a sample.
  std::vector<std::vector<smart::Sample>> history_;
  Intake intake_;  // reused per intake call
};

}  // namespace hdd::core
