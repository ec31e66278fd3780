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
//    (DriveVoteState) — detection never rescans a drive's history.
//  * Journaled streaming: attach a store::TelemetryStore and feed raw SMART
//    samples, a fleet interval at a time (observe_samples) or one drive's
//    run at a time (ingest_drive). Both take each drive's samples through
//    one intake step (stale filter, quarantine, journal append) before the
//    same bounded-history scoring step; after a crash, resume_from()
//    replays the log through that scoring step, restoring every
//    DriveVoteState so the continued run raises byte-identical alarms.
//
// Offline scoring of whole DriveRecords is eval::score_record_batch +
// eval::vote_drive (eval/detection.h).
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
  // Hours of raw-sample history kept per drive for change-rate features in
  // journaled streaming mode; 0 = auto (4x the largest change interval of
  // the feature set, at least 24 h). Live scoring and resume_from() trim
  // with the same rule, which is what makes resumed decisions identical.
  int history_hours = 0;
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

// Incremental sliding-window voting state for one drive: the decision rule
// of eval::vote_drive (for records of at least N samples) maintained sample
// by sample over a ring buffer of the last N model outputs.
class DriveVoteState {
 public:
  explicit DriveVoteState(const eval::VoteConfig& vote);

  // Feeds one model output; returns true exactly when this sample raises
  // the drive's (first) alarm. No-op once alarmed. Decisions start once the
  // window holds N samples.
  bool push(std::int64_t hour, double output);

  bool alarmed() const { return alarmed_; }
  std::int64_t alarm_hour() const { return alarm_hour_; }
  std::int64_t samples_seen() const { return seen_; }

  // The rolling vote verdict over the window's current contents (the rule
  // push() checks at a full window; short windows vote over what they
  // have), independent of the alarm latch. Shadow scoring compares the
  // incumbent's and candidate's verdicts sample by sample with this.
  bool current_decision() const {
    return filled_ > 0 && decide(std::min(filled_, ring_.size()));
  }

  // Forgets all observations (keeps the configuration).
  void reset();

  // Optional instrumentation (FleetScorer wires these): `transitions`
  // counts sample-level vote flips — consecutive model outputs of this
  // drive crossing the failure threshold in either direction — and
  // `alarms` counts the terminal healthy->alarmed transition. Counters
  // are sharded atomics, so concurrent pushes from scoring blocks are
  // safe.
  void set_metrics(obs::Counter* transitions, obs::Counter* alarms) {
    transitions_counter_ = transitions;
    alarms_counter_ = alarms;
  }

 private:
  bool decide(std::size_t window) const;
  void raise_alarm(std::int64_t hour);

  eval::VoteConfig vote_;
  std::vector<float> ring_;  // last N outputs, circular
  std::size_t head_ = 0;
  std::size_t filled_ = 0;
  std::size_t failed_votes_ = 0;
  double output_sum_ = 0.0;
  std::int64_t seen_ = 0;
  bool alarmed_ = false;
  std::int64_t alarm_hour_ = -1;
  bool last_vote_failed_ = false;
  obs::Counter* transitions_counter_ = nullptr;
  obs::Counter* alarms_counter_ = nullptr;
};

class FleetScorer {
 public:
  // The scorer must outlive the FleetScorer.
  FleetScorer(const SampleScorer& scorer, FleetScorerConfig config);

  const FleetScorerConfig& config() const { return config_; }

  // --- Streaming mode -------------------------------------------------------

  // Registers a drive; returns its fleet index.
  std::size_t add_drive(std::string serial);
  std::size_t size() const { return states_.size(); }
  const std::string& serial(std::size_t i) const { return serials_[i]; }
  const DriveVoteState& state(std::size_t i) const { return states_[i]; }

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
    bool journal_failed = false;  // a drive's run skipped; degraded() latched
  };

  // Both intake calls below take each drive's samples through one intake
  // step, in this order:
  //  1. stale filter: a sample at or before the newest hour this scorer has
  //     scored for the drive is dropped and counted, so re-sending a batch or
  //     re-observing an interval (after a resume, or by mistake) is a no-op;
  //  2. quarantine: samples failing the policy are dropped and counted
  //     (hdd_fleet_quarantined_samples_total), with one warn line per call;
  //  3. journal (if attached): the run is appended before it is scored,
  //     skipping hours the store already holds. An append failure drops the
  //     drive's run, counts it (hdd_fleet_journal_append_failures_total) and
  //     latches degraded() — the rest of the fleet still scores.
  // A dropped sample is dropped everywhere (journal, history, voting), so
  // in-memory state always matches what a resume would replay. Admitted
  // samples then go through the bounded-history extraction, scoring and
  // voting step resume_from() shares. Not thread-safe: callers serialize
  // per scorer (serve gives each shard its own scorer + store).

  // Scores one interval of raw SMART telemetry: samples[i] is drive i's
  // reading, all stamped `hour`. One durable flush() per interval; a flush
  // failure only latches degraded() (scoring proceeds).
  IngestResult observe_samples(std::span<const smart::Sample> samples,
                               std::int64_t hour);

  // Per-drive batched ingest — the serve path, where drives report on
  // their own clocks instead of fleet-lockstep intervals. Samples must be
  // hour-ascending. The run is journaled as one batched write pushed to
  // the OS (flush_to_os, not fsync — the daemon fsyncs on seal/shutdown);
  // an append or flush failure drops the whole run and reports
  // journal_failed, and the producer re-sends it.
  IngestResult ingest_drive(std::size_t i,
                            std::span<const smart::Sample> samples);

  // True once any journal append/flush has failed; alarms raised since are
  // based on partial telemetry.
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
    IngestResult result;
    std::vector<smart::Sample> kept;  // admitted samples, in call order
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
  void push_history(std::size_t i, const smart::Sample& sample);

  // The intake step (see observe_samples): filters, quarantines and
  // journals drive i's hour-ascending samples, appends the admitted ones to
  // in.kept and tallies into in.result.
  void admit(std::size_t i, std::span<const smart::Sample> samples,
             Intake& in);
  // Starts a public intake call on the reused intake_ scratch.
  Intake& begin_intake();
  // The call's single quarantine warn line (none when nothing was).
  void log_quarantine(const Intake& in) const;
  // Counts a journal append/flush failure, latches degraded() and logs it.
  void journal_failure(const std::string& what);

  // The scoring step: pushes rows through the pinned incumbent (and
  // shadow) in blocks of block_rows and advances voting. Row k belongs to
  // drive drives[k] — or drives[0] for every row, for one drive's run — and
  // is samples[k] (pushed into history, features extracted here) or, when
  // `xs` is non-empty, row k of the precomputed row-major `xs` at `hour`.
  // Rows of distinct drives are scored in parallel blocks; one drive's run
  // in order. Concurrent calls must cover disjoint drives.
  void score(const ScoreCtx& ctx, std::span<const std::size_t> drives,
             std::span<const smart::Sample> samples,
             std::span<const float> xs, std::int64_t hour);

  const SampleScorer* scorer_;
  FleetScorerConfig config_;
  int history_hours_ = 0;  // resolved from config (auto when 0)

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
  std::vector<DriveVoteState> states_;
  std::vector<std::size_t> rows_;  // the drives one call scores

  // Shadow scoring state. The slot is the only cross-thread member
  // (controller installs, scoring calls pin); the voting states follow the
  // scorer's single-caller contract.
  RcuSlot<const ShadowSlot> shadow_slot_;
  std::uint64_t shadow_installs_ = 0;  // controller-side epoch source
  std::uint64_t shadow_epoch_seen_ = 0;
  std::vector<DriveVoteState> shadow_states_;
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
  std::vector<smart::DriveRecord> history_;  // bounded raw-sample windows
  Intake intake_;                             // reused per intake call
};

}  // namespace hdd::core
