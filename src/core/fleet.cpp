#include "core/fleet.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "smart/features.h"
#include "store/telemetry_store.h"

namespace hdd::core {

DriveVoteState::DriveVoteState(const eval::VoteConfig& vote) : vote_(vote) {
  HDD_REQUIRE(vote_.voters >= 1, "voters must be >= 1");
  ring_.assign(static_cast<std::size_t>(vote_.voters), 0.0f);
}

bool DriveVoteState::decide(std::size_t window) const {
  if (vote_.average_mode) {
    return output_sum_ / static_cast<double>(window) < vote_.threshold;
  }
  return static_cast<double>(failed_votes_) >
         static_cast<double>(window) / 2.0;
}

void DriveVoteState::raise_alarm(std::int64_t hour) {
  alarmed_ = true;
  alarm_hour_ = hour;
  if (alarms_counter_ != nullptr) alarms_counter_->inc();
}

bool DriveVoteState::push(std::int64_t hour, double output) {
  if (alarmed_) return false;
  ++seen_;
  // Outputs round through float exactly as eval::score_record stores them,
  // so streaming decisions match the offline path bit for bit.
  const float v = static_cast<float>(output);
  const bool failed_vote = v < 0.0f;
  if (seen_ > 1 && failed_vote != last_vote_failed_ &&
      transitions_counter_ != nullptr) {
    transitions_counter_->inc();
  }
  last_vote_failed_ = failed_vote;
  const std::size_t want = ring_.size();
  if (filled_ == want) {
    const double old = ring_[head_];
    if (old < 0.0) --failed_votes_;
    output_sum_ -= old;
  } else {
    ++filled_;
  }
  ring_[head_] = v;
  head_ = (head_ + 1) % want;
  if (v < 0.0f) ++failed_votes_;
  output_sum_ += v;
  if (filled_ < want) return false;  // decisions start at a full window
  if (decide(want)) {
    raise_alarm(hour);
    return true;
  }
  return false;
}

void DriveVoteState::reset() {
  head_ = filled_ = failed_votes_ = 0;
  output_sum_ = 0.0;
  seen_ = 0;
  alarm_hour_ = -1;
  alarmed_ = false;
  last_vote_failed_ = false;
}

FleetScorer::FleetScorer(const SampleScorer& scorer, FleetScorerConfig config)
    : scorer_(&scorer), config_(std::move(config)) {
  HDD_REQUIRE(config_.features.size() == scorer_->num_features(),
              "fleet feature set width must match the model");
  HDD_REQUIRE(config_.block_rows >= 1, "block_rows must be >= 1");
  HDD_REQUIRE(config_.vote.voters >= 1, "voters must be >= 1");
  HDD_REQUIRE(config_.history_hours >= 0, "history_hours must be >= 0");
  if (config_.history_hours > 0) {
    history_hours_ = config_.history_hours;
  } else {
    int max_interval = 0;
    for (const auto& spec : config_.features.specs) {
      max_interval = std::max(max_interval, spec.change_interval_hours);
    }
    history_hours_ = std::max(24, 4 * max_interval);
  }
  obs::Registry& reg =
      config_.metrics != nullptr ? *config_.metrics : obs::Registry::global();
  m_samples_scored_ = &reg.counter("hdd_fleet_samples_scored_total",
                                   "Feature rows scored through the model.");
  m_alarms_ = &reg.counter("hdd_fleet_alarms_total",
                           "Drives transitioned to the alarmed state.");
  m_vote_transitions_ =
      &reg.counter("hdd_fleet_vote_transitions_total",
                   "Sample-level vote flips (healthy<->failing) across "
                   "consecutive outputs of a drive.");
  m_journal_resumes_ = &reg.counter(
      "hdd_fleet_journal_resume_total",
      "resume_from() recoveries replayed out of a telemetry store.");
  m_resume_samples_ = &reg.counter(
      "hdd_fleet_resume_samples_total",
      "Samples replayed from the journal while resuming voting state.");
  m_quarantined_ = &reg.counter(
      "hdd_fleet_quarantined_samples_total",
      "Samples quarantined at ingest (non-finite or out-of-domain values).");
  m_journal_failures_ = &reg.counter(
      "hdd_fleet_journal_append_failures_total",
      "Journal append/flush failures tolerated in degraded mode.");
  m_batch_latency_ = &reg.histogram(
      "hdd_fleet_batch_latency_ns",
      "Wall time of one observe_interval/observe_samples/ingest_drive "
      "call (ns).");
  m_shadow_samples_ = &reg.counter(
      "hdd_pipeline_shadow_samples_total",
      "Live feature rows scored by a shadow candidate model.");
  m_shadow_divergence_ = &reg.counter(
      "hdd_pipeline_shadow_divergence_total",
      "Shadow rows whose failure vote disagreed with the incumbent's.");
  m_shadow_vote_flips_ = &reg.counter(
      "hdd_pipeline_shadow_vote_flips_total",
      "Shadow pushes after which the rolling window verdict disagreed "
      "with the incumbent's.");
  m_shadow_alarm_delta_ = &reg.counter(
      "hdd_pipeline_shadow_alarm_delta_total",
      "Pushes where exactly one of incumbent/shadow raised its alarm.");
}

FleetScorer::ScoreCtx FleetScorer::make_ctx(bool live) {
  ScoreCtx ctx;
  // Pin the incumbent once per public call: a concurrent hot swap
  // (SwappableScorer) retires the old generation only after every pin
  // drops, and no batch ever mixes generations.
  ctx.pinned = scorer_->pin();
  ctx.model = ctx.pinned != nullptr ? ctx.pinned.get() : scorer_;
  if (!live) return ctx;
  ctx.shadow_pin = shadow_slot_.load();
  if (ctx.shadow_pin == nullptr || ctx.shadow_pin->model == nullptr) {
    return ctx;
  }
  // Single-threaded preamble (callers serialize per scorer): a freshly
  // installed candidate starts from cold voting windows.
  if (ctx.shadow_pin->epoch != shadow_epoch_seen_) {
    shadow_epoch_seen_ = ctx.shadow_pin->epoch;
    shadow_states_.assign(states_.size(), DriveVoteState(config_.vote));
  } else if (shadow_states_.size() < states_.size()) {
    shadow_states_.resize(states_.size(), DriveVoteState(config_.vote));
  }
  ctx.shadow = ctx.shadow_pin->model.get();
  return ctx;
}

void FleetScorer::flush_shadow(const ShadowTally& t) {
  if (t.samples == 0) return;
  sh_samples_.fetch_add(t.samples, std::memory_order_relaxed);
  m_shadow_samples_->inc(t.samples);
  if (t.divergence > 0) {
    sh_divergence_.fetch_add(t.divergence, std::memory_order_relaxed);
    m_shadow_divergence_->inc(t.divergence);
  }
  if (t.vote_flips > 0) {
    sh_vote_flips_.fetch_add(t.vote_flips, std::memory_order_relaxed);
    m_shadow_vote_flips_->inc(t.vote_flips);
  }
  if (t.alarm_delta > 0) {
    sh_alarm_delta_.fetch_add(t.alarm_delta, std::memory_order_relaxed);
    m_shadow_alarm_delta_->inc(t.alarm_delta);
  }
}

void FleetScorer::shadow_push(std::size_t i, std::int64_t hour,
                              double shadow_output, double primary_output,
                              bool primary_raised, ShadowTally& tally) {
  ++tally.samples;
  // Sample-level vote comparison through the same float rounding push()
  // applies, so "divergence" means exactly "this row would vote
  // differently".
  const bool p_fail = static_cast<float>(primary_output) < 0.0f;
  const bool s_fail = static_cast<float>(shadow_output) < 0.0f;
  if (p_fail != s_fail) ++tally.divergence;
  const bool shadow_raised = shadow_states_[i].push(hour, shadow_output);
  if (shadow_states_[i].current_decision() !=
      states_[i].current_decision()) {
    ++tally.vote_flips;
  }
  if (shadow_raised != primary_raised) ++tally.alarm_delta;
}

void FleetScorer::set_shadow(std::shared_ptr<const SampleScorer> candidate) {
  if (candidate == nullptr) {
    shadow_slot_.store(nullptr);
    return;
  }
  HDD_REQUIRE(candidate->num_features() == config_.features.size(),
              "shadow model width must match the fleet feature set");
  // One controller installs shadows (the retrain loop); the epoch bump is
  // what tells the next scoring call to reset shadow voting state.
  auto slot = std::make_shared<const ShadowSlot>(
      ShadowSlot{std::move(candidate), ++shadow_installs_});
  shadow_slot_.store(std::move(slot));
}

bool FleetScorer::has_shadow() const {
  return shadow_slot_.load() != nullptr;
}

FleetScorer::ShadowStats FleetScorer::shadow_stats() const {
  ShadowStats s;
  s.samples = sh_samples_.load(std::memory_order_relaxed);
  s.divergence = sh_divergence_.load(std::memory_order_relaxed);
  s.vote_flips = sh_vote_flips_.load(std::memory_order_relaxed);
  s.alarm_delta = sh_alarm_delta_.load(std::memory_order_relaxed);
  return s;
}

ThreadPool& FleetScorer::pool() const {
  return config_.pool ? *config_.pool : ThreadPool::global();
}

std::size_t FleetScorer::add_drive(std::string serial) {
  smart::DriveRecord rec;
  rec.serial = serial;
  history_.push_back(std::move(rec));
  if (journal_ != nullptr) {
    journal_ids_.push_back(journal_->register_drive(serial));
  }
  serials_.push_back(std::move(serial));
  states_.emplace_back(config_.vote);
  states_.back().set_metrics(m_vote_transitions_, m_alarms_);
  return states_.size() - 1;
}

void FleetScorer::observe_interval(std::span<const float> xs,
                                   std::int64_t hour) {
  const auto nf = static_cast<std::size_t>(scorer_->num_features());
  HDD_REQUIRE(xs.size() == states_.size() * nf,
              "snapshot must hold one feature row per registered drive");
  const std::size_t n = states_.size();
  if (n == 0) return;
  const obs::ScopedTimer timer(m_batch_latency_);
  rows_.resize(n);
  std::iota(rows_.begin(), rows_.end(), std::size_t{0});
  score(make_ctx(/*live=*/true), rows_, {}, xs, hour);
}

void FleetScorer::observe_interval(const data::DataMatrix& m,
                                   std::int64_t hour) {
  HDD_REQUIRE(m.rows() == states_.size(),
              "snapshot must hold one row per registered drive");
  HDD_REQUIRE(m.cols() == scorer_->num_features(),
              "snapshot width must match the model");
  observe_interval(m.features(), hour);
}

void FleetScorer::attach_journal(store::TelemetryStore* store) {
  journal_ = store;
  journal_ids_.clear();
  if (journal_ == nullptr) return;
  journal_ids_.reserve(serials_.size());
  for (const std::string& s : serials_) {
    journal_ids_.push_back(journal_->register_drive(s));
  }
}

void FleetScorer::push_history(std::size_t i, const smart::Sample& sample) {
  auto& hist = history_[i].samples;
  hist.push_back(sample);
  // One deterministic trim rule shared by live scoring and resume_from():
  // keep samples within history_hours_ of the newest. Identical windows ->
  // identical feature rows -> identical alarms.
  const std::int64_t min_hour = sample.hour - history_hours_;
  std::size_t drop = 0;
  while (drop + 1 < hist.size() && hist[drop].hour < min_hour) ++drop;
  if (drop > 0) hist.erase(hist.begin(), hist.begin() + drop);
}

FleetScorer::Intake& FleetScorer::begin_intake() {
  intake_.result = {};
  intake_.kept.clear();
  return intake_;
}

void FleetScorer::admit(std::size_t i, std::span<const smart::Sample> samples,
                        Intake& in) {
  const std::size_t first = in.kept.size();
  const auto& hist = history_[i].samples;
  std::int64_t last = hist.empty() ? -1 : hist.back().hour;
  const bool domain = config_.quarantine == QuarantinePolicy::kFullDomain;
  std::size_t nq = 0;
  for (const smart::Sample& s : samples) {
    if (s.hour <= last) {
      ++in.result.stale;  // already scored (re-sent, repeated, out of order)
      continue;
    }
    const auto fault = config_.quarantine == QuarantinePolicy::kOff
                           ? smart::SampleFault::kNone
                           : smart::classify_sample(s, domain);
    if (fault != smart::SampleFault::kNone) {
      if (in.result.quarantined++ == 0) {
        in.q_drive = i;
        in.q_hour = s.hour;
        in.q_fault = fault;
      }
      ++nq;
      continue;
    }
    in.kept.push_back(s);
    last = s.hour;
  }
  if (nq > 0) {
    m_quarantined_->inc(nq);
    quarantined_ += nq;
  }
  const std::span<const smart::Sample> run(in.kept.data() + first,
                                           in.kept.size() - first);
  if (journal_ != nullptr && !run.empty()) {
    // Durability before scoring: a sample is in the journal before it can
    // raise an alarm. Hours the store already holds (a torn interval that
    // resume_from() dropped from memory but not from disk) are scored
    // without a second copy. An append failure (sealed/full segment, I/O
    // error) drops the drive's run and the rest of the fleet keeps
    // scoring; a simulated crash (io::CrashPoint, deliberately not a
    // std::exception) still propagates.
    const std::int64_t held = journal_->drive(journal_ids_[i]).last_hour;
    std::size_t k = 0;
    while (k < run.size() && run[k].hour <= held) ++k;
    try {
      if (k < run.size()) {
        journal_->append_batch(journal_ids_[i], run.data() + k,
                               run.size() - k);
      }
    } catch (const std::exception& e) {
      journal_failure("journal append failed for drive " + serials_[i] +
                      " at hour " + std::to_string(run[k].hour) +
                      ", dropping " + std::to_string(run.size()) +
                      " sample(s): " + e.what());
      in.kept.resize(first);
      in.result.journal_failed = true;
      return;
    }
  }
  in.result.accepted += run.size();
}

void FleetScorer::log_quarantine(const Intake& in) const {
  if (in.result.quarantined == 0) return;
  log_message(LogLevel::kWarn,
              "fleet: quarantined " + std::to_string(in.result.quarantined) +
                  " sample(s); first: drive " + serials_[in.q_drive] +
                  " at hour " + std::to_string(in.q_hour) + " (" +
                  smart::sample_fault_name(in.q_fault) + ")");
}

void FleetScorer::journal_failure(const std::string& what) {
  degraded_ = true;
  ++journal_failures_;
  m_journal_failures_->inc();
  log_message(LogLevel::kWarn, "fleet: " + what + " (degraded)");
}

FleetScorer::IngestResult FleetScorer::observe_samples(
    std::span<const smart::Sample> samples, std::int64_t hour) {
  HDD_REQUIRE(samples.size() == states_.size(),
              "interval must hold one sample per registered drive");
  const std::size_t n = states_.size();
  if (n == 0) return {};
  for (std::size_t i = 0; i < n; ++i) {
    HDD_REQUIRE(samples[i].hour == hour,
                "every sample must carry the interval hour");
  }
  Intake& in = begin_intake();
  rows_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t before = in.kept.size();
    admit(i, samples.subspan(i, 1), in);
    if (in.kept.size() > before) rows_.push_back(i);
  }
  log_quarantine(in);
  if (journal_ != nullptr) {
    try {
      journal_->flush();
    } catch (const std::exception& e) {
      // Appended but not durable: scoring proceeds; a crash before the next
      // successful flush loses at most this tail, which resume_from()'s
      // partial-interval rule already handles.
      journal_failure(std::string("journal flush failed: ") + e.what());
    }
  }
  const obs::ScopedTimer timer(m_batch_latency_);
  score(make_ctx(/*live=*/true), rows_, in.kept, {}, hour);
  return in.result;
}

FleetScorer::IngestResult FleetScorer::ingest_drive(
    std::size_t i, std::span<const smart::Sample> samples) {
  HDD_REQUIRE(i < states_.size(), "ingest for an unregistered drive");
  if (samples.empty()) return {};
  const obs::ScopedSpan span("fleet.ingest", "samples",
                             static_cast<std::uint64_t>(samples.size()));
  const obs::ScopedTimer timer(m_batch_latency_);
  Intake& in = begin_intake();
  admit(i, samples, in);
  log_quarantine(in);
  if (in.kept.empty()) return in.result;
  if (journal_ != nullptr) {
    // Durability to the OS, not the platter. A failure drops the run in
    // memory too; chunks that reached the store are not re-appended when
    // the producer re-sends, and degraded() records that alarms since may
    // rest on partial telemetry.
    try {
      journal_->flush_to_os();
    } catch (const std::exception& e) {
      journal_failure("journal flush failed for drive " + serials_[i] +
                      ", dropping batch: " + e.what());
      in.result.accepted = 0;
      in.result.journal_failed = true;
      return in.result;
    }
  }
  const obs::ScopedSpan score_span("fleet.score", "samples",
                                   static_cast<std::uint64_t>(in.kept.size()));
  score(make_ctx(/*live=*/true), {&i, 1}, in.kept, {}, -1);
  return in.result;
}

void FleetScorer::score(const ScoreCtx& ctx,
                        std::span<const std::size_t> drives,
                        std::span<const smart::Sample> samples,
                        std::span<const float> xs, std::int64_t hour) {
  const std::size_t nf = config_.features.size();
  const bool precomputed = !xs.empty();
  const std::size_t n = precomputed ? xs.size() / nf : samples.size();
  const std::size_t block = config_.block_rows;
  const bool one_drive = drives.size() == 1;
  m_samples_scored_->inc(n);
  const auto score_block = [&](std::size_t b) {
    // Per-thread buffers: pool workers and serve shard threads reuse them
    // across calls, so steady-state scoring does not allocate.
    struct Buffers {
      std::vector<float> x;
      std::vector<double> out, shadow_out;
    };
    thread_local Buffers buf;
    const std::size_t lo = b * block;
    const std::size_t hi = std::min(lo + block, n);
    std::span<const float> x;
    if (precomputed) {
      x = xs.subspan(lo * nf, (hi - lo) * nf);
    } else {
      buf.x.clear();
      for (std::size_t k = lo; k < hi; ++k) {
        const std::size_t i = drives[one_drive ? 0 : k];
        push_history(i, samples[k]);
        const std::size_t last = history_[i].samples.size() - 1;
        smart::extract_features_block(history_[i], last, last + 1,
                                      config_.features, buf.x);
      }
      x = buf.x;
    }
    buf.out.resize(hi - lo);
    ctx.model->predict_batch(x, buf.out);
    if (ctx.shadow != nullptr) {
      buf.shadow_out.resize(hi - lo);
      ctx.shadow->predict_batch(x, buf.shadow_out);
    }
    // No early exit at an alarm: history must stay current through the
    // whole run so later feature rows match an uninterrupted run (push()
    // is a no-op once alarmed).
    ShadowTally tally;
    for (std::size_t k = lo; k < hi; ++k) {
      const std::size_t i = drives[one_drive ? 0 : k];
      const std::int64_t h = precomputed ? hour : samples[k].hour;
      const double o = buf.out[k - lo];
      const bool raised = states_[i].push(h, o);
      if (ctx.shadow != nullptr) {
        shadow_push(i, h, buf.shadow_out[k - lo], o, raised, tally);
      }
    }
    flush_shadow(tally);
  };
  const std::size_t n_blocks = (n + block - 1) / block;
  if (one_drive) {
    // One drive's run: each row extends the same history, so in order.
    for (std::size_t b = 0; b < n_blocks; ++b) score_block(b);
  } else {
    // Blocks own disjoint drives (their history and voting states), so no
    // cross-thread writes.
    pool().parallel_for(0, n_blocks, score_block);
  }
}

FleetScorer::ResumeResult FleetScorer::resume_from(store::TelemetryStore& store,
                                                   bool drop_partial_tail) {
  const std::size_t n_store = store.drive_count();
  if (states_.empty()) {
    for (std::uint32_t id = 0; id < n_store; ++id) {
      add_drive(store.drive(id).serial);
    }
  } else {
    HDD_REQUIRE(states_.size() == n_store,
                "registry size must match the store");
    for (std::uint32_t id = 0; id < n_store; ++id) {
      HDD_REQUIRE(serials_[id] == store.drive(id).serial,
                  "registry must match the store drive for drive");
    }
  }
  reset();

  std::vector<std::vector<smart::Sample>> per(states_.size());
  for (std::uint32_t id = 0; id < n_store; ++id) {
    per[id].reserve(store.drive(id).n_samples);
  }
  store.scan([&](std::uint32_t drive, const smart::Sample& s) {
    per[drive].push_back(s);
  });

  std::int64_t hmax = -1;
  for (const auto& v : per) {
    if (!v.empty()) hmax = std::max(hmax, v.back().hour);
  }
  std::size_t partial_dropped = 0;
  if (drop_partial_tail && hmax >= 0) {
    bool all_reached = true;
    for (const auto& v : per) {
      if (v.empty() || v.back().hour != hmax) {
        all_reached = false;
        break;
      }
    }
    if (!all_reached) {
      // A crash mid-append left hour hmax on disk for only some drives.
      // Drop the torn interval everywhere; re-observing hmax completes it.
      for (auto& v : per) {
        while (!v.empty() && v.back().hour == hmax) {
          v.pop_back();
          ++partial_dropped;
        }
      }
    }
  }

  // Replayed telemetry was already scored live once; shadows never see it
  // (live=false), so the parallel replay touches no shadow state.
  const ScoreCtx ctx = make_ctx(/*live=*/false);
  pool().parallel_for(0, per.size(), [&](std::size_t i) {
    score(ctx, {&i, 1}, per[i], {}, -1);
  });

  ResumeResult r;
  r.drives = per.size();
  r.partial_dropped = partial_dropped;
  for (const auto& v : per) {
    r.samples_replayed += v.size();
    if (!v.empty()) r.last_hour = std::max(r.last_hour, v.back().hour);
  }
  m_journal_resumes_->inc();
  m_resume_samples_->inc(r.samples_replayed);
  return r;
}

std::size_t FleetScorer::alarm_count() const {
  std::size_t n = 0;
  for (const DriveVoteState& s : states_) n += s.alarmed() ? 1 : 0;
  return n;
}

std::vector<std::size_t> FleetScorer::alarmed_drives() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i].alarmed()) out.push_back(i);
  }
  return out;
}

void FleetScorer::reset() {
  for (DriveVoteState& s : states_) s.reset();
  for (smart::DriveRecord& h : history_) h.samples.clear();
}

}  // namespace hdd::core
