// retrain_cycle: the live §V-B3 update loop.
//
// Program under test: pipeline::UpdatePipeline::run_cycle(force=true) over
// a store::TelemetryStore journaled hour-major (each day, each drive's 24
// samples as one batch, as the daemon journals). Cycles alternate between
// two pipelines over the same store and incumbent, one accumulating all
// history and one replacing with the last week, so the window size varies.
// A cycle reads the window drive by drive, trains the CT candidate, lints
// and gates it, then journals and swaps in the promoted generation.
//
// Set-up (timed, several cold repetitions per round of cycles): opening the
// journal (store recovery), building the SwappableScorer incumbent from the
// model file and both pipelines.
#include <filesystem>
#include <memory>
#include <sstream>

#include "bench.h"
#include "core/model_io.h"
#include "core/predictor.h"
#include "core/swappable.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"
#include "store/telemetry_store.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace hdd;

namespace {

pipeline::PipelineConfig config_for(pipeline::Strategy s) {
  pipeline::PipelineConfig pc;
  pc.trainer = core::preset("ct");
  pc.scheduler.strategy = s;
  pc.scheduler.replace_cycle_weeks = 1;
  return pc;
}

const pipeline::Strategy kStrategies[2] = {pipeline::Strategy::kAccumulation,
                                           pipeline::Strategy::kReplacing};

struct Expected {
  std::string model_text;
  std::size_t window_samples = 0;
};

// The reference: one TelemetryStore::scan pass assembles each strategy's
// window, and pipeline::train_and_gate trains it with the same seed.
std::vector<Expected> reference(const std::string& journal,
                                const std::vector<smart::DriveRecord>& failed,
                                Report& report) {
  const store::TelemetryStore st(journal);
  std::vector<smart::DriveRecord> all(st.drive_count());
  for (std::uint32_t id = 0; id < all.size(); ++id) {
    all[id].serial = st.drive(id).serial;
  }
  st.scan([&](std::uint32_t id, const smart::Sample& s) {
    all[id].samples.push_back(s);
  });
  report.note("fleet_drives", static_cast<double>(all.size()));
  std::vector<Expected> out;
  for (const pipeline::Strategy s : kStrategies) {
    const auto cfg = config_for(s);
    const auto w = pipeline::RetrainScheduler(cfg.scheduler)
                       .window_hours(std::max<std::int64_t>(st.last_hour(), 0));
    Expected e;
    std::vector<smart::DriveRecord> goods(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      goods[i].serial = all[i].serial;
      for (const smart::Sample& x : all[i].samples) {
        if (x.hour >= w.first && x.hour <= w.second - 1) {
          goods[i].samples.push_back(x);
        }
      }
      e.window_samples += goods[i].samples.size();
    }
    const int weeks = static_cast<int>((w.second - w.first) / 168);
    const auto gate = pipeline::train_and_gate(std::move(goods), failed, weeks, cfg);
    if (gate.outcome != pipeline::Outcome::kPromoted) {
      report.fail_check(std::string("retrain_cycle: reference candidate ") +
                        pipeline::outcome_name(gate.outcome) + ": " + gate.reason);
      return out;
    }
    std::ostringstream os;
    gate.candidate->save(os);
    e.model_text = os.str();
    out.push_back(std::move(e));
  }
  return out;
}

// What one cold set-up builds; members destroyed pipelines first.
struct Program {
  std::unique_ptr<store::TelemetryStore> store;
  std::unique_ptr<core::SwappableScorer> incumbent;
  std::vector<std::unique_ptr<pipeline::UpdatePipeline>> pipes;
};

void set_up(Program& p, const std::string& dir, const std::string& model_path,
            const std::vector<smart::DriveRecord>& failed) {
  p.pipes.clear();
  p.incumbent.reset();
  p.store.reset();
  p.store = std::make_unique<store::TelemetryStore>(dir);
  p.incumbent = std::make_unique<core::SwappableScorer>(
      std::shared_ptr<const core::SampleScorer>(
          core::make_model_scorer(core::load_model_file(model_path))),
      0);
  for (const pipeline::Strategy s : kStrategies) {
    p.pipes.push_back(std::make_unique<pipeline::UpdatePipeline>(
        *p.incumbent, *p.store, failed, config_for(s)));
  }
}

}  // namespace

void run_retrain_cycle(const RunOptions& opt, Report& report) {
  const auto failed = read_drives(opt.dir + "/failed.bin");
  const std::string model_path = opt.dir + "/model.txt";
  const std::string template_dir = opt.dir + "/journal";
  const std::string live_dir = opt.dir + "/live";

  auto expected = reference(template_dir, failed, report);
  if (!report.correct()) return;
  if (opt.perturb) expected[0].model_text[expected[0].model_text.size() / 2] ^= 1;
  report.note("window_samples_accumulation",
              static_cast<double>(expected[0].window_samples));
  report.note("window_samples_replacing",
              static_cast<double>(expected[1].window_samples));

  fs::remove_all(live_dir);
  copy_synced(template_dir, live_dir);
  reset_peak_rss(report);

  // Whole rounds, at least kMinRounds (so the four processes of a run pool
  // at least the eleven ops a tail needs, even at self-test sizes). A round
  // sets the program up kSetupsPerRound times (timed, cold each time) and
  // runs one cycle of each pipeline on the last set-up, so set-up samples
  // spread over the whole run. The latency op
  // is the round's two cycles: cycles of the two window sizes take about
  // 1:2 times, and a median over single cycles would fall in the gap
  // between the two modes, moving with every small change of either.
  constexpr int kMinRounds = 3;
  constexpr int kSetupsPerRound = 5;
  Program prog;
  std::vector<double> setup_s, latency_ms, acc_ms, traced_ms;
  Epoch epoch;  // one: every round's set-up rebuilds the same program
  std::uint64_t promotions = 0;
  const auto run_phase = [&](double budget_s, bool traced) {
    obs::Tracer::global().set_enabled(traced);
    const auto start = Clock::now();
    int rounds = 0;
    while (rounds < kMinRounds ||
           seconds_between(start, Clock::now()) < budget_s) {
      ++rounds;
      for (int rep = 0; rep < kSetupsPerRound; ++rep) {
        const auto t0 = Clock::now();
        set_up(prog, live_dir, model_path, failed);
        if (!traced) setup_s.push_back(seconds_between(t0, Clock::now()));
      }
      double round_s = 0.0;
      double round_work = 0.0;
      for (std::size_t k = 0; k < 2; ++k) {
        ++report.attempted;
        const auto c0 = Clock::now();
        const auto r = prog.pipes[k]->run_cycle(/*force=*/true);
        const double s = seconds_between(c0, Clock::now());
        const auto& gen = prog.store->latest_generation();
        if (r.outcome != pipeline::Outcome::kPromoted) {
          ++report.failed;
          report.fail_check(std::string("retrain_cycle: cycle ") +
                            pipeline::outcome_name(r.outcome) + ": " + r.reason);
        } else if (!gen || gen->model_text != expected[k].model_text) {
          ++report.failed;
          report.fail_check("retrain_cycle: promoted model differs from the "
                            "train_and_gate reference (" +
                            std::string(k == 0 ? "accumulation" : "replacing") +
                            ")");
        } else {
          ++promotions;
        }
        round_s += s;
        round_work += static_cast<double>(expected[k].window_samples);
        if (!traced && k == 0) acc_ms.push_back(1e3 * s);
      }
      if (traced) {
        traced_ms.push_back(1e3 * round_s);
      } else {
        latency_ms.push_back(1e3 * round_s);
        epoch.latency_ms.push_back(1e3 * round_s);
        epoch.busy_s += round_s;
        epoch.work += round_work;
      }
      if (!report.correct()) break;
    }
    obs::Tracer::global().set_enabled(false);
  };
  run_phase(opt.trace ? opt.seconds / 2 : opt.seconds, false);
  if (opt.trace && report.correct()) run_phase(opt.seconds / 2, true);
  report.note("journal_segments", static_cast<double>(prog.store->segment_count()));
  report.note("promotions", static_cast<double>(promotions));
  report.note("promotion_outcome", report.correct() ? "promoted" : "not promoted");
  report.note("generation", static_cast<double>(prog.incumbent->generation()));
  if (!report.correct()) return;
  if (!opt.trace) {
    report_raw(report, {epoch}, setup_s, "window-samples");
    fs::remove_all(live_dir);
    return;
  }

  const auto drives = read_drives(opt.dir + "/telemetry.bin");
  report.metric("trace.untraced_ms_per_op", hdd::percentile(latency_ms, 50),
                "ms");
  report.metric("trace.traced_ms_per_op", hdd::percentile(traced_ms, 50), "ms");
  LayerInputs in;
  in.drives = &drives;
  in.failed_pool = &failed;
  in.model_path = model_path;
  in.vote = core::preset("ct").vote;
  in.journals = {template_dir};
  in.work_dir = opt.dir + "/layers";
  in.in_op = {"store.window_read", "data.training_matrix", "tree.fit",
              "analysis.lint", "core.gate_eval", "store.recover"};
  const auto incumbent = prog.incumbent->current();
  in.model = incumbent.get();
  const LayerTimes t = measure_layers(in, report);
  // The suite's window is the accumulation strategy's: compare with the
  // accumulation cycles.
  const double steps_s =
      t.window_read_s + t.matrix_s + t.fit_s + t.lint_s + t.gate_eval_s;
  report.metric("trace.unattributed_share",
                1.0 - 1e3 * steps_s / hdd::percentile(acc_ms, 50),
                "ratio");
  fs::remove_all(live_dir);
}

}  // namespace perfbench
