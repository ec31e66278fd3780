// serve_ingest: the daemon end to end over TCP loopback.
//
// Program under test: serve::Server on a two-shard serve::ShardEngine that
// journals under the run directory and scores with the paper's CT model.
// Load: a closed loop of two serve::Client collectors; each request is one
// collector's drives for the next 24 hours, drive-major, hours ascending.
//
// The run is a sequence of epochs so the journal stays bounded and every
// epoch yields one cold set-up: restore the pre-filled journal (untimed),
// restart the daemon (timed: ShardEngine construction = model load + store
// recovery, resume(), Server::start()), drive `laps_per_epoch` laps of the
// live hours (each lap shifted past the previous one so every sample is
// fresh), then check every drive against the reference and stop.
#include <filesystem>
#include <map>
#include <unordered_map>

#include "bench.h"
#include "core/fleet.h"
#include "core/model_io.h"
#include "core/predictor.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/server.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace hdd;

namespace {

struct Expected {
  bool alarmed = false;
  std::int64_t alarm_hour = -1;
};

// The reference path: an in-process FleetScorer with no journal, fed the
// same samples through ingest_drive in the same per-drive runs.
std::map<std::string, Expected> reference(
    const std::string& model_path, const std::vector<smart::DriveRecord>& drives,
    const std::vector<const serve::IngestBatch*>& stream) {
  const auto model = core::make_model_scorer(core::load_model_file(model_path));
  core::FleetScorerConfig cfg;
  cfg.features = features();
  cfg.vote = core::preset("ct").vote;
  core::FleetScorer ref(*model, cfg);
  std::unordered_map<std::string, std::size_t> index;
  for (const smart::DriveRecord& d : drives) {
    index[d.serial] = ref.add_drive(d.serial);
  }
  for (const serve::IngestBatch* b : stream) {
    std::size_t i = 0;
    while (i < b->samples.size()) {
      std::size_t j = i;
      while (j < b->samples.size() && b->serials[j] == b->serials[i]) ++j;
      (void)ref.ingest_drive(index.at(b->serials[i]),
                             {b->samples.data() + i, j - i});
      i = j;
    }
  }
  std::map<std::string, Expected> out;
  for (const auto& [serial, i] : index) {
    out[serial] = {ref.state(i).alarmed(), ref.state(i).alarm_hour()};
  }
  return out;
}

struct EpochResult {
  double setup_s = 0.0;
  LoopResult loop;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t accepted = 0, stale = 0, quarantined = 0, alarms = 0;
  std::size_t segments = 0;
  double stop_s = 0.0;  // untimed: stop seals (fsyncs) the epoch's journal
};

// One restart + `requests` closed loop + the correctness gate.
EpochResult run_epoch(const std::string& template_dir,
                      const std::string& live_dir, const std::string& model,
                      const std::vector<std::vector<serve::IngestBatch>>& requests,
                      const std::map<std::string, Expected>& expected,
                      bool time_encode, Report& report) {
  fs::remove_all(live_dir);
  copy_synced(template_dir, live_dir);
  EpochResult e;
  const auto t0 = Clock::now();
  serve::ShardEngine engine(engine_config(live_dir, model));
  (void)engine.resume();
  serve::Server server(engine, serve::ServeOptions{});
  server.start();
  e.setup_s = seconds_between(t0, Clock::now());

  e.loop = closed_loop(server.port(), requests, 0, time_encode);
  for (const auto& r : requests) e.attempted += r.size();
  std::uint64_t ok = 0;
  for (std::size_t i = 0; i < e.loop.acks.size(); ++i) {
    const serve::IngestResponse& a = e.loop.acks[i];
    e.accepted += a.accepted;
    e.stale += a.stale;
    e.quarantined += a.quarantined;
    if (a.accepted == e.loop.sent[i] && a.stale == 0 && a.quarantined == 0 &&
        a.journal_failed == 0 && !a.degraded) {
      ++ok;
    }
  }
  e.failed = e.attempted - ok;
  if (e.failed > 0) {
    report.fail_check("serve_ingest: " + std::to_string(e.failed) +
                      " requests not fully accepted");
  }

  serve::Client client;
  client.connect("127.0.0.1", server.port());
  for (const auto& [serial, want] : expected) {
    const serve::QueryResponse q = client.query(serial);
    e.alarms += q.alarmed ? 1 : 0;
    if (!q.known || q.alarmed != want.alarmed ||
        q.alarm_hour != want.alarm_hour) {
      report.fail_check("serve_ingest: drive " + serial + " alarmed=" +
                        std::to_string(q.alarmed) + "@" +
                        std::to_string(q.alarm_hour) + ", reference " +
                        std::to_string(want.alarmed) + "@" +
                        std::to_string(want.alarm_hour));
      break;
    }
  }
  client.close();
  for (std::size_t k = 0; k < engine.shard_count(); ++k) {
    e.segments += engine.shard(k).store().segment_count();
  }
  const auto s0 = Clock::now();
  server.stop();
  e.stop_s = seconds_between(s0, Clock::now());
  return e;
}

}  // namespace

void run_serve_ingest(const RunOptions& opt, Report& report) {
  const ServeSizes z = serve_sizes(opt.tiny);
  auto drives = read_drives(opt.dir + "/telemetry.bin");
  const std::string model = opt.dir + "/model.txt";
  const std::string template_dir = opt.dir + "/journal";
  const std::string live_dir = opt.dir + "/live";

  // One lap of live hours per collector, then the epoch's laps, each
  // shifted a further live_hours so every sample is newer than the last.
  std::vector<std::vector<serve::IngestBatch>> epoch(kCollectors);
  std::map<std::string, Expected> expected;
  {
    const auto prefill =
        make_requests(drives, kCollectors, 0, z.prefill_hours);
    const auto lap = make_requests(drives, kCollectors, z.prefill_hours,
                                   z.prefill_hours + z.live_hours);
    const std::size_t per_collector = lap.size() / kCollectors;
    for (int r = 0; r < z.laps_per_epoch; ++r) {
      for (std::size_t c = 0; c < kCollectors; ++c) {
        for (std::size_t i = 0; i < per_collector; ++i) {
          serve::IngestBatch b = lap[c * per_collector + i];
          shift_hours(b, r * z.live_hours);
          epoch[c].push_back(std::move(b));
        }
      }
    }
    std::vector<const serve::IngestBatch*> stream;
    for (const auto& b : prefill) stream.push_back(&b);
    for (const auto& c : epoch) {
      for (const auto& b : c) stream.push_back(&b);
    }
    const auto r0 = Clock::now();
    expected = reference(model, drives, stream);
    report.note("reference_s", seconds_between(r0, Clock::now()));
  }
  if (opt.perturb) {
    Expected& first = expected.begin()->second;
    first.alarmed = !first.alarmed;
  }
  std::uint64_t epoch_samples = 0;
  for (const auto& c : epoch) {
    for (const auto& b : c) epoch_samples += b.samples.size();
  }
  report.note("fleet_drives", static_cast<double>(drives.size()));
  report.note("samples_per_request",
              static_cast<double>(epoch[0][0].samples.size()));
  report.note("samples_per_epoch", static_cast<double>(epoch_samples));
  // An untraced run keeps only what the daemon is fed.
  if (!opt.trace) std::vector<smart::DriveRecord>().swap(drives);
  reset_peak_rss(report);

  // Epochs until the measured time is spent (at least three, so set-up is
  // always a median). A traced run spends half untraced, half traced.
  const int min_epochs = 3;
  std::vector<double> setup_s, latency_ms, traced_ms, stop_s;
  std::vector<Epoch> epochs;
  std::uint64_t requests = 0, accepted = 0, stale = 0, quarantined = 0,
                alarms = 0, segments = 0;
  const auto run_phase = [&](double budget_s, bool traced) {
    obs::Tracer::global().set_enabled(traced);
    const auto start = Clock::now();
    int n = 0;
    while (n < min_epochs || seconds_between(start, Clock::now()) < budget_s) {
      EpochResult e = run_epoch(template_dir, live_dir, model, epoch, expected,
                                traced, report);
      ++n;
      report.attempted += e.attempted;
      report.failed += e.failed;
      requests += e.loop.acks.size();
      accepted += e.accepted;
      stale += e.stale;
      quarantined += e.quarantined;
      alarms = e.alarms;
      segments = e.segments;
      stop_s.push_back(e.stop_s);
      if (!traced) {
        setup_s.push_back(e.setup_s);
        latency_ms.insert(latency_ms.end(), e.loop.rtt_ms.begin(),
                          e.loop.rtt_ms.end());
        epochs.push_back({e.loop.rtt_ms, static_cast<double>(e.accepted),
                          e.loop.wall_s});
      } else {
        for (std::size_t i = 0; i < e.loop.rtt_ms.size(); ++i) {
          traced_ms.push_back(e.loop.rtt_ms[i] + e.loop.encode_ms[i]);
        }
      }
      if (!report.correct()) break;
    }
    obs::Tracer::global().set_enabled(false);
  };
  run_phase(opt.trace ? opt.seconds / 2 : opt.seconds, false);
  if (opt.trace && report.correct()) run_phase(opt.seconds / 2, true);
  fs::remove_all(live_dir);

  report.note("requests", static_cast<double>(requests));
  report.note("stop_s_median", hdd::percentile(stop_s, 50));
  report.note("samples_accepted", static_cast<double>(accepted));
  report.note("samples_stale", static_cast<double>(stale));
  report.note("samples_quarantined", static_cast<double>(quarantined));
  report.note("alarms", static_cast<double>(alarms));
  report.note("journal_segments", static_cast<double>(segments));
  if (!report.correct()) return;
  if (!opt.trace) {
    report_raw(report, epochs, setup_s, "samples");
    return;
  }

  report.metric("trace.untraced_ms_per_op", hdd::percentile(latency_ms, 50),
                "ms");
  report.metric("trace.traced_ms_per_op", hdd::percentile(traced_ms, 50), "ms");
  const auto failed_pool = read_drives(opt.dir + "/failed.bin");
  const auto model_scorer =
      core::make_model_scorer(core::load_model_file(model));
  LayerInputs in;
  in.drives = &drives;
  in.failed_pool = &failed_pool;
  in.model_path = model;
  in.model = model_scorer.get();
  in.vote = core::preset("ct").vote;
  in.predict_block_rows = kBatchHours;  // one drive's run per ingest_drive
  in.journals = {template_dir + "/shard-0", template_dir + "/shard-1"};
  in.work_dir = opt.dir + "/layers";
  in.in_op = {"serve.wire", "serve.engine", "store.append", "smart.extract",
              "core.predict", "core.vote", "store.recover", "core.resume"};
  const LayerTimes t = measure_layers(in, report);
  report.metric("trace.unattributed_share", t.loop_unattributed, "ratio");
}

}  // namespace perfbench
