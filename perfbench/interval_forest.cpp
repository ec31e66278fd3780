// interval_forest: in-memory streaming scoring (paper §V-E).
//
// Program under test: core::FleetScorer::observe_interval with the 40-tree
// `forest` preset loaded from its file, scoring on a 2-thread ThreadPool
// the benchmark owns. Each interval is a row-major snapshot holding every
// drive's real hourly feature row, precomputed with
// smart::extract_features_block; the fleet is the simulated drives times
// `replicas`, each replica reading its drive's rows at another phase.
//
// Epochs: a cold set-up (model load with verify-on-load, fleet
// registration, the N-1 intervals that fill every vote window), then the
// measured intervals, then the gate against a single-threaded reference.
#include <algorithm>
#include <map>

#include "bench.h"
#include "common/thread_pool.h"
#include "core/fleet.h"
#include "core/model_io.h"
#include "core/predictor.h"
#include "obs/trace.h"

namespace perfbench {

using namespace hdd;

namespace {

constexpr std::size_t kReplicaPhase = 37;  // hours between replica phases

// Feature rows of every base drive, and the snapshot of any interval:
// fleet drive r * B + b reads base drive b's row (t + r * kReplicaPhase) mod
// its row count.
class Snapshots {
 public:
  Snapshots(const std::vector<smart::DriveRecord>& drives, std::size_t replicas)
      : replicas_(replicas), nf_(static_cast<std::size_t>(features().size())) {
    for (const smart::DriveRecord& d : drives) {
      rows_.emplace_back();
      smart::extract_features_block(d, 0, d.samples.size(), features(),
                                    rows_.back());
    }
  }
  std::size_t drives() const { return rows_.size() * replicas_; }
  std::size_t bases() const { return rows_.size(); }
  std::size_t rows_of(std::size_t b) const { return rows_[b].size() / nf_; }
  std::span<const float> row(std::size_t b, std::size_t k) const {
    return {rows_[b].data() + k * nf_, nf_};
  }
  // Base drive and row index of fleet drive i at interval t.
  std::pair<std::size_t, std::size_t> at(std::size_t i, std::size_t t) const {
    const std::size_t b = i % rows_.size();
    const std::size_t r = i / rows_.size();
    return {b, (t + r * kReplicaPhase) % rows_of(b)};
  }

  void fill(std::size_t t, std::vector<float>& out) const {
    out.resize(drives() * nf_);
    float* dst = out.data();
    for (std::size_t i = 0; i < drives(); ++i) {
      const auto [b, k] = at(i, t);
      std::copy_n(rows_[b].data() + k * nf_, nf_, dst);
      dst += nf_;
    }
  }

 private:
  std::size_t replicas_;
  std::size_t nf_;
  std::vector<std::vector<float>> rows_;
};

using Alarms = std::map<std::size_t, std::int64_t>;  // drive -> alarm hour

// The reference: SampleScorer::predict per row, then DriveVoteState::push,
// one thread. Replicas share their base drive's rows, so each distinct row
// is predicted once and its output reused.
Alarms reference(const core::SampleScorer& model, const Snapshots& snaps,
                 const eval::VoteConfig& vote, std::size_t intervals) {
  std::vector<std::vector<double>> outputs(snaps.bases());
  for (std::size_t b = 0; b < snaps.bases(); ++b) {
    for (std::size_t k = 0; k < snaps.rows_of(b); ++k) {
      outputs[b].push_back(model.predict(snaps.row(b, k)));
    }
  }
  Alarms a;
  for (std::size_t i = 0; i < snaps.drives(); ++i) {
    core::DriveVoteState state(vote);
    for (std::size_t t = 0; t < intervals; ++t) {
      const auto [b, k] = snaps.at(i, t);
      (void)state.push(static_cast<std::int64_t>(t), outputs[b][k]);
    }
    if (state.alarmed()) a[i] = state.alarm_hour();
  }
  return a;
}

}  // namespace

void run_interval_forest(const RunOptions& opt, Report& report) {
  const ForestSizes z = forest_sizes(opt.tiny);
  auto drives = read_drives(opt.dir + "/telemetry.bin");
  const std::string model_path = opt.dir + "/model.txt";
  const Snapshots snaps(drives, z.replicas);
  const eval::VoteConfig vote = core::preset("forest").vote;
  const std::size_t warm = static_cast<std::size_t>(vote.voters) - 1;
  const std::size_t per_epoch = warm + static_cast<std::size_t>(z.intervals_per_epoch);
  ThreadPool pool(pool_threads());

  Alarms expected;
  {
    const auto r0 = Clock::now();
    const auto model = core::make_model_scorer(core::load_model_file(model_path));
    expected = reference(*model, snaps, vote, per_epoch);
    report.note("reference_s", seconds_between(r0, Clock::now()));
  }
  if (opt.perturb) {
    if (expected.empty()) {
      expected[0] = 0;
    } else {
      expected.erase(expected.begin());
    }
  }
  report.note("fleet_drives", static_cast<double>(snaps.drives()));
  report.note("intervals_per_epoch", static_cast<double>(z.intervals_per_epoch));
  report.note("pool_threads", static_cast<double>(pool_threads()));
  // An untraced run keeps only the snapshots' feature rows.
  if (!opt.trace) std::vector<smart::DriveRecord>().swap(drives);
  reset_peak_rss(report);

  std::vector<double> setup_s, latency_ms, traced_ms;
  std::vector<Epoch> epochs;
  std::size_t alarms = 0;
  std::vector<float> x;
  const int min_epochs = 2;
  const auto run_phase = [&](double budget_s, bool traced) {
    obs::Tracer::global().set_enabled(traced);
    const auto start = Clock::now();
    int n = 0;
    while (n < min_epochs || seconds_between(start, Clock::now()) < budget_s) {
      ++n;
      const auto t0 = Clock::now();
      const auto model =
          core::make_model_scorer(core::load_model_file(model_path));
      core::FleetScorerConfig cfg;
      cfg.features = features();
      cfg.vote = vote;
      cfg.pool = &pool;
      core::FleetScorer fleet(*model, cfg);
      for (std::size_t i = 0; i < snaps.drives(); ++i) {
        fleet.add_drive("drive-" + std::to_string(i));
      }
      double fill_s = 0.0;
      for (std::size_t t = 0; t < warm; ++t) {
        const auto f0 = Clock::now();
        snaps.fill(t, x);
        fill_s += seconds_between(f0, Clock::now());
        fleet.observe_interval(x, static_cast<std::int64_t>(t));
      }
      const double setup = seconds_between(t0, Clock::now()) - fill_s;
      Epoch epoch;
      for (std::size_t t = warm; t < per_epoch; ++t) {
        snaps.fill(t, x);
        const auto i0 = Clock::now();
        fleet.observe_interval(x, static_cast<std::int64_t>(t));
        const double s = seconds_between(i0, Clock::now());
        ++report.attempted;
        if (traced) {
          traced_ms.push_back(1e3 * s);
        } else {
          latency_ms.push_back(1e3 * s);
          epoch.latency_ms.push_back(1e3 * s);
          epoch.busy_s += s;
          epoch.work += static_cast<double>(snaps.drives());
        }
      }
      if (!traced) {
        setup_s.push_back(setup);
        epochs.push_back(std::move(epoch));
      }
      Alarms got;
      for (const std::size_t i : fleet.alarmed_drives()) {
        got[i] = fleet.state(i).alarm_hour();
      }
      alarms = got.size();
      if (got != expected) {
        report.fail_check("interval_forest: " + std::to_string(got.size()) +
                          " alarms differ from the reference's " +
                          std::to_string(expected.size()));
        report.failed += static_cast<std::uint64_t>(z.intervals_per_epoch);
        break;
      }
    }
    obs::Tracer::global().set_enabled(false);
  };
  run_phase(opt.trace ? opt.seconds / 2 : opt.seconds, false);
  if (opt.trace && report.correct()) run_phase(opt.seconds / 2, true);
  report.note("alarms", static_cast<double>(alarms));
  if (!report.correct()) return;
  if (!opt.trace) {
    report_raw(report, epochs, setup_s, "drive-rows");
    return;
  }

  report.metric("trace.untraced_ms_per_op", hdd::percentile(latency_ms, 50),
                "ms");
  report.metric("trace.traced_ms_per_op", hdd::percentile(traced_ms, 50), "ms");
  // The pool-speedup pass scores real snapshots of the full fleet.
  std::vector<std::vector<float>> sample_intervals(opt.tiny ? 4 : 16);
  for (std::size_t t = 0; t < sample_intervals.size(); ++t) {
    snaps.fill(t, sample_intervals[t]);
  }
  const auto model = core::make_model_scorer(core::load_model_file(model_path));
  const auto failed_pool = read_drives(opt.dir + "/failed.bin");
  LayerInputs in;
  in.drives = &drives;
  in.failed_pool = &failed_pool;
  in.model_path = model_path;
  in.model = model.get();
  in.vote = vote;
  in.predict_block_rows = core::FleetScorerConfig{}.block_rows;
  in.work_dir = opt.dir + "/layers";
  in.intervals = &sample_intervals;
  in.in_op = {"core.predict", "core.vote", "core.pool"};
  const LayerTimes t = measure_layers(in, report);
  // Predict and vote CPU time spread over the pool, against the interval.
  const double attributed_ms = (t.predict_ns + t.vote_ns) *
                               static_cast<double>(snaps.drives()) /
                               static_cast<double>(pool_threads()) / 1e6;
  report.metric("trace.unattributed_share",
                1.0 - attributed_ms / hdd::percentile(latency_ms, 50),
                "ratio");
}

}  // namespace perfbench
