// The per-layer suite of a traced run. Each metric is timed around calls
// into one layer's public functions, on the calling workload's own inputs,
// so every workload reports every per-layer metric: for layers its end-to-
// end op runs through, the number is that op's cost split; for layers it
// bypasses, it shows what the same data costs there (the prediction for an
// optimisation of that layer is "no change" on this workload's end-to-end
// metrics).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <numeric>

#include "analysis/verifier.h"
#include "bench.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/fleet.h"
#include "core/model_io.h"
#include "core/predictor.h"
#include "data/training.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"
#include "serve/server.h"
#include "store/telemetry_store.h"
#include "tree/tree.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace hdd;

namespace {

// Upper bound on telemetry the suite replays, so a traced run stays short.
constexpr std::size_t kMaxSuiteSamples = 120000;

double ns_per(double seconds, std::size_t n) {
  return n == 0 ? 0.0 : 1e9 * seconds / static_cast<double>(n);
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

// FleetScorer's history rule: 4x the largest change interval, >= 24 h.
int history_hours() {
  int max_interval = 0;
  for (const auto& s : features().specs) {
    max_interval = std::max(max_interval, s.change_interval_hours);
  }
  return std::max(24, 4 * max_interval);
}

// Σ node_count() × sizeof(tree::Node) over the model's member trees.
double model_node_bytes(const std::string& model_path) {
  const core::AnyModel m = core::load_model_file(model_path);
  std::size_t nodes = 0;
  if (const auto* t = std::get_if<tree::DecisionTree>(&m)) {
    nodes = t->node_count();
  } else if (const auto* f = std::get_if<forest::RandomForest>(&m)) {
    for (std::size_t i = 0; i < f->tree_count(); ++i) {
      nodes += f->member_tree(i).node_count();
    }
  }
  return static_cast<double>(nodes * sizeof(tree::Node));
}

}  // namespace

LayerTimes measure_layers(const LayerInputs& in, Report& report) {
  LayerTimes t;
  fs::remove_all(in.work_dir);
  fs::create_directories(in.work_dir);
  std::string in_op;
  for (const auto& l : in.in_op) in_op += (in_op.empty() ? "" : ",") + l;
  report.note("layers_in_op", in_op);

  // Drives capped so the suite replays at most kMaxSuiteSamples.
  std::vector<smart::DriveRecord> drives;
  std::size_t n_samples = 0;
  std::int64_t end_hour = 0;
  for (const smart::DriveRecord& d : *in.drives) {
    if (n_samples + d.samples.size() > kMaxSuiteSamples && !drives.empty()) {
      break;
    }
    n_samples += d.samples.size();
    end_hour = std::max(end_hour, d.last_hour() + 1);
    drives.push_back(d);
  }
  report.note("suite_drives", static_cast<double>(drives.size()));
  report.note("suite_samples", static_cast<double>(n_samples));

  // --- serve: wire encode / decode ------------------------------------------
  const auto flat = make_requests(drives, kCollectors, 0, end_hour);
  std::vector<std::string> frames;
  std::vector<double> decode_s(flat.size());
  {
    const auto t0 = Clock::now();
    for (const auto& b : flat) {
      frames.push_back(serve::frame_payload(serve::encode_ingest_request(b)));
    }
    const double encode_ns = ns_per(seconds_between(t0, Clock::now()), n_samples);
    std::size_t decoded = 0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const auto d0 = Clock::now();
      serve::FrameParser parser;
      parser.feed(frames[i]);
      std::string payload;
      if (parser.next(payload) == serve::FrameParser::Result::kFrame) {
        const auto req = serve::decode_request(payload);
        if (req) decoded += req->ingest.samples.size();
      }
      decode_s[i] = seconds_between(d0, Clock::now());
    }
    if (decoded != n_samples) report.fail_check("layers: wire round trip lost samples");
    report.metric("serve.wire_encode_ns_per_sample", encode_ns, "ns");
    report.metric(
        "serve.wire_decode_ns_per_sample",
        ns_per(std::accumulate(decode_s.begin(), decode_s.end(), 0.0), n_samples),
        "ns");
  }

  // --- serve: engine ingest per shard, no sockets ---------------------------
  const std::string engine_dir = in.work_dir + "/engine";
  std::vector<double> engine_crit_s(flat.size());
  {
    serve::ShardEngine engine(engine_config(engine_dir, in.model_path, in.model));
    double total = 0.0;
    for (std::size_t i = 0; i < flat.size(); ++i) {
      for (const auto& [k, sub] : split_by_shard(engine, flat[i])) {
        const auto e0 = Clock::now();
        const auto r = engine.ingest(k, sub);
        const double s = seconds_between(e0, Clock::now());
        total += s;
        engine_crit_s[i] = std::max(engine_crit_s[i], s);
        if (r.accepted != sub.samples.size()) {
          report.fail_check("layers: engine did not accept every sample");
        }
      }
    }
    const double engine_ns = ns_per(total, n_samples);
    engine.seal();
    report.metric("serve.engine_ingest_ns_per_sample", engine_ns, "ns");
  }

  // --- core: ShardEngine::resume over what the engine just journaled -------
  {
    std::vector<double> resume_s;
    for (int rep = 0; rep < 3; ++rep) {
      serve::ShardEngine engine(engine_config(engine_dir, in.model_path, in.model));
      const auto r0 = Clock::now();
      (void)engine.resume();
      resume_s.push_back(seconds_between(r0, Clock::now()));
    }
    report.metric("core.resume_s", hdd::percentile(resume_s, 50), "s");
  }

  // --- serve: loopback transport share, daemon spans -------------------------
  {
    serve::ShardEngine engine(engine_config(engine_dir, in.model_path, in.model));
    (void)engine.resume();
    serve::Server server(engine, serve::ServeOptions{});
    server.start();
    std::vector<std::vector<serve::IngestBatch>> per(kCollectors);
    const std::size_t n_per = flat.size() / kCollectors;
    for (std::size_t i = 0; i < flat.size(); ++i) {
      per[std::min<std::size_t>(i / n_per, kCollectors - 1)].push_back(flat[i]);
    }
    obs::Tracer::global().set_enabled(true);
    const LoopResult loop = closed_loop(server.port(), per, end_hour, true);
    obs::Tracer::global().set_enabled(false);
    const auto spans = obs::Tracer::global().snapshot(0);
    server.stop();
    std::size_t ok = 0;
    for (std::size_t i = 0; i < loop.acks.size(); ++i) {
      ok += loop.acks[i].accepted == loop.sent[i] ? 1 : 0;
    }
    if (ok != flat.size()) {
      report.fail_check("layers: loopback pass did not accept every request");
      return t;
    }
    double rtt = 0, enc = 0, inside = 0;
    for (std::size_t i = 0; i < flat.size(); ++i) {
      rtt += loop.rtt_ms[i] / 1e3;
      enc += loop.encode_ms[i] / 1e3;
      inside += decode_s[i] + engine_crit_s[i];
    }
    const double transport_share = 1.0 - inside / rtt;
    t.loop_unattributed = 1.0 - (enc + inside) / (enc + rtt);
    report.metric("serve.transport_share", transport_share, "ratio");
    std::map<std::string, std::vector<double>> by_name;
    for (const auto& s : spans) {
      by_name[s.name].push_back(static_cast<double>(s.dur_ns) / 1e3);
    }
    for (const char* name : {"shard.queue_wait", "wire.respond", "store.flush_os"}) {
      const auto it = by_name.find(name);
      std::string metric = std::string("span.") + name + "_us";
      std::replace(metric.begin() + 5, metric.end(), '.', '_');
      report.metric(metric,
                    it == by_name.end() ? 0.0 : hdd::percentile(it->second, 50),
                    "us");
    }
  }

  // --- store: append_batch + flush_to_os on the same per-drive runs --------
  const std::string store_dir = in.work_dir + "/store";
  {
    store::TelemetryStore st(store_dir);
    std::map<std::string, std::uint32_t> ids;
    for (const auto& d : drives) ids[d.serial] = st.register_drive(d.serial);
    double total = 0.0;
    for (const auto& b : flat) {
      std::size_t i = 0;
      while (i < b.samples.size()) {
        std::size_t j = i;
        while (j < b.samples.size() && b.serials[j] == b.serials[i]) ++j;
        const auto a0 = Clock::now();
        st.append_batch(ids[b.serials[i]], b.samples.data() + i, j - i);
        st.flush_to_os();
        total += seconds_between(a0, Clock::now());
        i = j;
      }
    }
    const double append_ns = ns_per(total, n_samples);
    st.flush();
    report.metric("store.append_ns_per_sample", append_ns, "ns");
    report.metric("store.bytes_per_sample",
                  static_cast<double>(dir_bytes(store_dir)) /
                      static_cast<double>(n_samples),
                  "B");
  }

  // --- store: recovery and the retrain window read ---------------------------
  const std::vector<std::string> journals =
      in.journals.empty() ? std::vector<std::string>{store_dir} : in.journals;
  {
    std::vector<double> recover_s;
    for (int rep = 0; rep < 3; ++rep) {
      double s = 0.0;
      for (const auto& j : journals) {
        const auto r0 = Clock::now();
        store::TelemetryStore st(j);
        s += seconds_between(r0, Clock::now());
      }
      recover_s.push_back(s);
    }
    report.metric("store.recover_s", hdd::percentile(recover_s, 50), "s");
  }
  std::vector<smart::DriveRecord> goods;
  int weeks = 1;
  {
    // Three passes, median: this one-shot read is compared with the
    // median cycle for trace.unattributed_share.
    std::vector<double> read_s;
    std::size_t window_samples = 0;
    const pipeline::RetrainScheduler sched(pipeline::SchedulerConfig{});
    for (int rep = 0; rep < 3; ++rep) {
      goods.clear();
      window_samples = 0;
      double s = 0.0;
      for (const auto& j : journals) {
        store::TelemetryStore st(j);
        const auto w =
            sched.window_hours(std::max<std::int64_t>(st.last_hour(), 0));
        weeks = static_cast<int>((w.second - w.first) / 168);
        const auto r0 = Clock::now();
        for (std::uint32_t id = 0; id < st.drive_count(); ++id) {
          smart::DriveRecord d;
          d.serial = st.drive(id).serial;
          d.samples = st.read_drive(id, w.first, w.second - 1);
          window_samples += d.samples.size();
          goods.push_back(std::move(d));
        }
        s += seconds_between(r0, Clock::now());
      }
      read_s.push_back(s);
    }
    t.window_read_s = hdd::percentile(read_s, 50);
    report.metric("store.window_read_s", t.window_read_s, "s");
    report.metric("store.window_samples", static_cast<double>(window_samples),
                  "count");
  }

  // --- data / tree / analysis / core: one train_and_gate pass, step by step.
  // The split below is train_and_gate's (same seed, same fractions), so the
  // steps train the candidate a retrain cycle would on this window.
  {
    pipeline::PipelineConfig pc;
    pc.trainer = core::preset("ct");
    const auto& failed = *in.failed_pool;
    Rng rng(pc.seed);
    const auto fperm = rng.permutation(failed.size());
    const auto gperm = rng.permutation(goods.size());
    const auto n_tf = static_cast<std::size_t>(
        std::round(static_cast<double>(failed.size()) * pc.train_fraction));
    const auto n_tg = static_cast<std::size_t>(
        std::round(static_cast<double>(goods.size()) * pc.train_fraction));
    data::DriveDataset train_ds, val_ds;
    train_ds.family_names = val_ds.family_names = {"pipeline"};
    data::DatasetSplit train_split, val_split;
    for (std::size_t i = 0; i < goods.size(); ++i) {
      const auto& g = goods[gperm[i]];
      if (g.empty()) continue;
      auto& ds = i < n_tg ? train_ds : val_ds;
      auto& sp = i < n_tg ? train_split : val_split;
      sp.good_drives.push_back(ds.drives.size());
      sp.good_test_begin.push_back(i < n_tg ? g.samples.size() : 0);
      ds.drives.push_back(g);
    }
    for (std::size_t k = 0; k < failed.size(); ++k) {
      const auto& f = failed[fperm[k]];
      if (k < n_tf) {
        train_split.train_failed.push_back(train_ds.drives.size());
        train_ds.drives.push_back(f);
      } else if (!f.empty()) {
        val_split.test_failed.push_back(val_ds.drives.size());
        val_ds.drives.push_back(f);
      }
    }
    data::TrainingConfig tc = pc.trainer.training;
    tc.good_samples_per_drive *= std::max(1, weeks);
    const auto m0 = Clock::now();
    const auto matrix = data::build_training_matrix(train_ds, train_split, tc);
    const auto m1 = Clock::now();
    const auto candidate = core::fit_scorer(pc.trainer, matrix);
    const auto m2 = Clock::now();
    const auto lint = analysis::verify_tree(*candidate->tree(), pc.verify, "candidate");
    const auto m3 = Clock::now();
    // The cycle's gate: eval::evaluate_batch over single-thread
    // predict_batch, as train_and_gate calls it.
    const core::SampleScorer* raw = candidate.get();
    const auto res = eval::evaluate_batch(
        val_ds, val_split, tc.features,
        [raw](std::span<const float> xs, std::span<double> out) {
          raw->predict_batch(xs, out);
        },
        pc.trainer.vote);
    const auto m4 = Clock::now();
    t.matrix_s = seconds_between(m0, m1);
    t.fit_s = seconds_between(m1, m2);
    t.lint_s = seconds_between(m2, m3);
    t.gate_eval_s = seconds_between(m3, m4);
    report.metric("data.training_matrix_s", t.matrix_s, "s");
    report.metric("tree.fit_s", t.fit_s, "s");
    report.metric("tree.nodes",
                  static_cast<double>(candidate->tree()->node_count()), "count");
    report.metric("analysis.lint_s", t.lint_s, "s");
    report.metric("core.gate_eval_s", t.gate_eval_s, "s");
    const double cycle = t.window_read_s + t.matrix_s + t.fit_s + t.lint_s +
                         t.gate_eval_s;
    report.metric("store.window_read_share", t.window_read_s / cycle, "ratio");
    report.note("suite_train_rows", static_cast<double>(matrix.rows()));
    report.note("suite_lint_findings", lint.has_findings() ? "yes" : "no");
    report.note("suite_val_far", res.far());
  }

  // --- smart: feature rows over each drive's bounded history ----------------
  const int hist = history_hours();
  std::vector<std::vector<float>> rows(drives.size());
  {
    double total = 0.0;
    smart::DriveRecord h;
    for (std::size_t i = 0; i < drives.size(); ++i) {
      h.samples.clear();
      for (const smart::Sample& s : drives[i].samples) {
        h.samples.push_back(s);
        std::size_t drop = 0;
        while (drop + 1 < h.samples.size() &&
               h.samples[drop].hour < s.hour - hist) {
          ++drop;
        }
        h.samples.erase(h.samples.begin(), h.samples.begin() + drop);
        const auto x0 = Clock::now();
        auto row = smart::extract_features(h, h.samples.size() - 1, features());
        total += seconds_between(x0, Clock::now());
        rows[i].insert(rows[i].end(), row->begin(), row->end());
      }
    }
    const double extract_ns = ns_per(total, n_samples);
    report.metric("smart.extract_ns_per_row", extract_ns, "ns");
  }

  // --- core: predict_batch on the workload's block shape, single thread ----
  const std::size_t nf = static_cast<std::size_t>(features().size());
  std::vector<std::vector<double>> outputs(drives.size());
  {
    double total = 0.0;
    for (std::size_t i = 0; i < drives.size(); ++i) {
      const std::size_t n = rows[i].size() / nf;
      outputs[i].resize(n);
      for (std::size_t lo = 0; lo < n; lo += in.predict_block_rows) {
        const std::size_t hi = std::min(n, lo + in.predict_block_rows);
        const auto p0 = Clock::now();
        in.model->predict_batch(
            std::span<const float>(rows[i].data() + lo * nf, (hi - lo) * nf),
            std::span<double>(outputs[i].data() + lo, hi - lo));
        total += seconds_between(p0, Clock::now());
      }
    }
    t.predict_ns = ns_per(total, n_samples);
    report.metric("core.predict_ns_per_row", t.predict_ns, "ns");
  }

  // --- core: DriveVoteState::push -------------------------------------------
  {
    std::vector<core::DriveVoteState> states(drives.size(),
                                             core::DriveVoteState(in.vote));
    const auto v0 = Clock::now();
    for (std::size_t i = 0; i < drives.size(); ++i) {
      for (std::size_t k = 0; k < outputs[i].size(); ++k) {
        (void)states[i].push(drives[i].samples[k].hour, outputs[i][k]);
      }
    }
    t.vote_ns = ns_per(seconds_between(v0, Clock::now()), n_samples);
    report.metric("core.vote_ns_per_push", t.vote_ns, "ns");
  }

  // --- core: pooled observe_interval vs single-thread predict + vote -------
  {
    std::vector<std::vector<float>> built;
    const std::vector<std::vector<float>>* intervals = in.intervals;
    if (intervals == nullptr) {
      const std::size_t n_int = 48;
      for (std::size_t k = 0; k < n_int; ++k) {
        std::vector<float> snap;
        for (const auto& r : rows) {
          const std::size_t n = r.size() / nf;
          const std::size_t at = std::min(k, n - 1) * nf;
          snap.insert(snap.end(), r.begin() + at, r.begin() + at + nf);
        }
        built.push_back(std::move(snap));
      }
      intervals = &built;
    }
    const std::size_t n_drives = intervals->front().size() / nf;
    ThreadPool pool(pool_threads());
    core::FleetScorerConfig fc;
    fc.features = features();
    fc.vote = in.vote;
    fc.pool = &pool;
    core::FleetScorer fleet(*in.model, fc);
    for (std::size_t i = 0; i < n_drives; ++i) fleet.add_drive("d" + std::to_string(i));
    std::vector<core::DriveVoteState> states(n_drives, core::DriveVoteState(in.vote));
    std::vector<double> out(n_drives);
    std::vector<double> pooled, single;
    for (std::size_t k = 0; k < intervals->size(); ++k) {
      const auto& x = (*intervals)[k];
      const auto h = static_cast<std::int64_t>(k);
      const auto p0 = Clock::now();
      fleet.observe_interval(x, h);
      const auto p1 = Clock::now();
      for (std::size_t lo = 0; lo < n_drives; lo += fc.block_rows) {
        const std::size_t hi = std::min(n_drives, lo + fc.block_rows);
        in.model->predict_batch(
            std::span<const float>(x.data() + lo * nf, (hi - lo) * nf),
            std::span<double>(out.data() + lo, hi - lo));
      }
      for (std::size_t i = 0; i < n_drives; ++i) (void)states[i].push(h, out[i]);
      const auto p2 = Clock::now();
      pooled.push_back(seconds_between(p0, p1));
      single.push_back(seconds_between(p1, p2));
    }
    report.metric("core.pool_speedup",
                  hdd::percentile(single, 50) / hdd::percentile(pooled, 50),
                  "x");
    report.note("suite_interval_drives", static_cast<double>(n_drives));
  }

  report.metric("forest.node_bytes", model_node_bytes(in.model_path), "B");
  fs::remove_all(in.work_dir);
  return t;
}

}  // namespace perfbench
