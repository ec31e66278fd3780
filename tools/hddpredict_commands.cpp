// hddpredict command handlers + the registry table (hddpredict_commands.h).
//
// Commands are declared once in a cli::Registry table (src/cli): name,
// summary, typed ArgSpecs. The registry owns flag validation, usage text
// and the global flags; each cmd_* handler only reads validated values and
// does the work. Run `hddpredict` with no arguments for the full usage.
// The thin main() lives in hddpredict.cpp; this translation unit is a
// library so the cli fuzzer and tests can exercise the real table.
//
// Global flags (valid with every command, parsed before the per-command
// flags): --metrics-out FILE dumps a snapshot of the process metrics
// registry (src/obs) at exit, "-" for stdout; --metrics-format text|json
// picks Prometheus text exposition (default) or JSON; --log-level
// debug|info|warn|error overrides the stderr log threshold (also settable
// via HDD_LOG_LEVEL). Without --metrics-out the registry is disabled, so
// instrumentation costs one relaxed atomic load per event (`serve`
// re-enables it: the daemon exposes the registry over GET /metrics).
//
// The CSV schema is documented in src/data/csv_io.h; `generate` fabricates
// a synthetic fleet in that schema so every subcommand can be exercised
// without real telemetry. `ingest`/`compact`/`replay` drive the durable
// telemetry store (src/store): CSV telemetry in, retention out, and a
// crash-resumed fleet scoring pass over the accumulated log. `serve` keeps
// that stack resident behind a TCP endpoint (src/serve); `client` talks to
// it.
//
// `lint` runs the static model verifier (src/analysis) over any persisted
// model (tree, forest or MLP — discriminated by the file header) so CI
// can gate model artifacts before deployment.
//
// Exit codes: 0 success, 1 runtime failure (I/O, bad data), 2 bad
// invocation (unknown command, unknown or malformed flag), 3 lint
// findings (warnings or errors). All usage and error text goes to stderr;
// stdout carries results only.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hddpredict_commands.h"

#include "analysis/verifier.h"
#include "cli/command.h"
#include "common/error.h"
#include "common/log.h"
#include "common/table.h"
#include "core/fleet.h"
#include "core/health.h"
#include "core/model_io.h"
#include "core/predictor.h"
#include "core/runtime.h"
#include "data/csv_io.h"
#include "data/split.h"
#include "eval/adversarial.h"
#include "eval/tuning.h"
#include "io/shutdown.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"
#include "reliability/raid.h"
#include "serve/client.h"
#include "serve/retrain_loop.h"
#include "serve/server.h"
#include "serve/shard_engine.h"
#include "sim/generator.h"
#include "stats/feature_select.h"
#include "store/telemetry_store.h"

namespace {

using namespace hdd;
using cli::ArgSpec;
using cli::Args;

ArgSpec required(ArgSpec spec) {
  spec.required = true;
  return spec;
}

int cmd_generate(const Args& args) {
  const std::string out = args.get("out");
  const double scale = args.get_double("scale");
  const auto seed = args.get_uint64("seed");
  const int interval = args.get_int("interval");
  const std::string family = args.get("family");
  const std::string weeks = args.get("weeks");

  const auto colon = weeks.find(':');
  if (colon == std::string::npos) {
    throw cli::UsageError("--weeks needs the form A:B");
  }
  const int from = std::stoi(weeks.substr(0, colon));
  const int to = std::stoi(weeks.substr(colon + 1));

  auto config = sim::paper_fleet_config(scale, seed, interval);
  if (family == "W") config.families.resize(1);
  else if (family == "Q") config.families.erase(config.families.begin());

  const auto fleet = sim::generate_fleet_window(config, from, to);
  data::save_csv_file(fleet, out);
  std::cout << "wrote " << fleet.count_good() << " good + "
            << fleet.count_failed() << " failed drives ("
            << fleet.count_samples(false) + fleet.count_samples(true)
            << " samples) to " << out << '\n';
  return 0;
}

int cmd_features(const Args& args) {
  const auto fleet = data::load_csv_file(args.get("data"));
  stats::FeatureSelectionConfig cfg;
  cfg.n_levels = args.get_int("levels");
  cfg.n_rates = args.get_int("rates");

  const auto scores = stats::score_candidates(fleet, cfg);
  Table t({"rank", "feature", "rank-sum |z|", "trend |z|", "z-score",
           "combined"});
  for (std::size_t i = 0; i < std::min<std::size_t>(scores.size(), 20); ++i) {
    t.row()
        .cell(static_cast<long long>(i + 1))
        .cell(scores[i].spec.name())
        .cell(scores[i].rank_sum_z, 1)
        .cell(scores[i].trend_z, 2)
        .cell(scores[i].zscore, 2)
        .cell(scores[i].combined(), 1);
  }
  t.print(std::cout);

  const auto selected = stats::select_features(fleet, cfg);
  std::cout << "\nselected " << selected.size() << " features:";
  for (const auto& spec : selected.specs) std::cout << ' ' << spec.name();
  std::cout << '\n';
  return 0;
}

int cmd_train(const Args& args) {
  const auto fleet = data::load_csv_file(args.get("data"));
  const std::string model_path = args.get("model");

  // Resolved through the preset registry; unknown names throw with the
  // registered names listed.
  core::PredictorConfig cfg = core::preset(args.get("preset"));
  if (args.has("window")) {
    cfg.training.failed_window_hours = args.get_int("window");
  }
  if (args.has("cp")) cfg.tree_params.cp = args.get_double("cp");

  const auto split = data::split_dataset(fleet, {});
  core::FailurePredictor predictor(cfg);
  predictor.fit(fleet, split);
  core::save_scorer_file(predictor.scorer(), model_path);

  const auto r = predictor.evaluate(fleet, split);
  std::cout << "trained " << predictor.describe() << "\nholdout: FDR "
            << format_double(100 * r.fdr(), 2) << "%, FAR "
            << format_double(100 * r.far(), 3) << "%, TIA "
            << format_double(r.mean_tia(), 0) << " h\nmodel written to "
            << model_path << '\n';
  return 0;
}

int cmd_evaluate(const Args& args) {
  const auto fleet = data::load_csv_file(args.get("data"));
  const auto tree = core::load_tree_file(args.get("model"));
  const int voters = args.get_int("voters");

  const auto split = data::split_dataset(fleet, {});
  const auto features = smart::stat13_features();
  HDD_REQUIRE(tree.num_features() == features.size(),
              "model feature count does not match the stat13 layout");
  eval::VoteConfig vote;
  vote.voters = voters;
  const auto r = eval::evaluate_batch(
      fleet, split, features,
      [&tree](std::span<const float> xs, std::span<double> out) {
        tree.predict_batch(xs, out);
      },
      vote);

  Table t({"metric", "value"});
  t.row().cell("good test drives").cell(static_cast<long long>(r.n_good));
  t.row().cell("failed test drives").cell(static_cast<long long>(r.n_failed));
  t.row().cell("FDR (%)").cell(100 * r.fdr(), 2);
  t.row().cell("FAR (%)").cell(100 * r.far(), 3);
  t.row().cell("mean TIA (h)").cell(r.mean_tia(), 1);
  t.print(std::cout);
  return 0;
}

int cmd_tune(const Args& args) {
  const auto fleet = data::load_csv_file(args.get("data"));
  const auto tree = core::load_tree_file(args.get("model"));
  const double budget = args.get_double("budget");
  const auto features = smart::stat13_features();
  HDD_REQUIRE(tree.num_features() == features.size(),
              "model feature count does not match the stat13 layout");

  const auto split = data::split_dataset(fleet, {});
  const auto scores = eval::score_dataset_batch(
      fleet, split, features,
      [&tree](std::span<const float> xs, std::span<double> out) {
        tree.predict_batch(xs, out);
      });
  const int candidates[] = {1, 3, 5, 7, 9, 11, 15, 17, 21, 27};
  const auto best = eval::tune_voters(scores, candidates, budget);
  if (!best) {
    std::cerr << "error: no voter count meets FAR <= "
              << format_double(100 * budget, 3) << "%\n";
    return 1;
  }
  Table t({"metric", "value"});
  t.row().cell("chosen voters N").cell(
      static_cast<long long>(best->vote.voters));
  t.row().cell("FDR (%)").cell(100 * best->result.fdr(), 2);
  t.row().cell("FAR (%)").cell(100 * best->result.far(), 3);
  t.row().cell("mean TIA (h)").cell(best->result.mean_tia(), 1);
  t.print(std::cout);
  return 0;
}

int cmd_predict(const Args& args) {
  const auto fleet = data::load_csv_file(args.get("data"));
  const auto tree = core::load_tree_file(args.get("model"));
  const auto top = static_cast<std::size_t>(args.get_int("top"));
  const auto features = smart::stat13_features();
  HDD_REQUIRE(tree.num_features() == features.size(),
              "model feature count does not match the stat13 layout");

  // Score every drive's latest sample; surface the worst.
  core::WarningQueue queue;
  for (const auto& d : fleet.drives) {
    if (d.empty()) continue;
    const auto row =
        smart::extract_features(d, d.samples.size() - 1, features);
    queue.push({d.serial, tree.predict(*row), d.last_hour()});
  }
  Table t({"drive", "margin", "as of hour"});
  for (std::size_t i = 0; i < top && !queue.empty(); ++i) {
    const auto w = queue.pop();
    t.row()
        .cell(w.serial)
        .cell(w.health, 3)
        .cell(static_cast<long long>(w.hour));
  }
  std::cout << "drives most at risk (negative margin = predicted failing):\n";
  t.print(std::cout);
  return 0;
}

std::optional<smart::FeatureSet> named_feature_set(const std::string& name) {
  if (name == "stat13") return smart::stat13_features();
  if (name == "basic12") return smart::basic12_features();
  if (name == "expert19") return smart::expert19_features();
  return std::nullopt;
}

int cmd_lint(const Args& args) {
  const obs::ScopedSpan span(
      "cli.lint", &obs::Registry::global().histogram(
                      "hdd_lint_wall_ns", "lint subcommand wall time (ns)."));
  const std::string model_path = args.get("model");
  const std::string format = args.get("format");
  const std::string features = args.get("features");

  // Lint wants every diagnostic, so load with verification off and run
  // the verifier explicitly against the resolved feature domains.
  core::LoadOptions load;
  load.verify = core::VerifyMode::kOff;
  const auto model = core::load_model_file(model_path, load);
  const int width = core::model_num_features(model);

  analysis::VerifyOptions vo;
  std::string domain_set = "none";
  if (features == "auto") {
    // Pick the layout whose width matches the model; fall back to
    // unbounded domains when no known layout fits.
    for (const char* name : {"stat13", "basic12", "expert19"}) {
      const auto fs = named_feature_set(name);
      if (static_cast<int>(fs->size()) == width) {
        vo.domains = analysis::FeatureDomains::for_feature_set(*fs);
        domain_set = name;
        break;
      }
    }
  } else if (features != "none") {
    const auto fs = named_feature_set(features);
    HDD_REQUIRE(static_cast<int>(fs->size()) == width,
                "--features " + features + " has " +
                    std::to_string(fs->size()) +
                    " features but the model expects " +
                    std::to_string(width));
    vo.domains = analysis::FeatureDomains::for_feature_set(*fs);
    domain_set = features;
  }

  const auto report = core::verify_model(model, vo, model_path);
  if (format == "json") {
    analysis::print_json(report, std::cout);
  } else {
    analysis::print_text(report, std::cout);
    std::cout << "lint: " << model_path << ": "
              << core::model_kind_name(model) << " model, " << width
              << " features (domains: " << domain_set << "): "
              << report.count(analysis::Severity::kError) << " error(s), "
              << report.count(analysis::Severity::kWarning)
              << " warning(s), " << report.count(analysis::Severity::kNote)
              << " note(s)\n";
  }
  return report.has_findings() ? 3 : 0;
}

int cmd_adversary(const Args& args) {
  const obs::ScopedSpan span(
      "cli.adversary",
      &obs::Registry::global().histogram(
          "hdd_adversary_wall_ns", "adversary subcommand wall time (ns)."));
  const std::string model_path = args.get("model");
  const auto fleet = data::load_csv_file(args.get("data"));
  auto model = core::load_model_file(model_path);
  const std::string kind = core::model_kind_name(model);
  const int width = core::model_num_features(model);

  // Budgets are fractions of each feature's declared domain, so the
  // attack needs the feature layout, not just the model width.
  std::optional<smart::FeatureSet> fs;
  const std::string features = args.get("features");
  if (features == "auto") {
    for (const char* name : {"stat13", "basic12", "expert19"}) {
      auto candidate = named_feature_set(name);
      if (static_cast<int>(candidate->size()) == width) {
        fs = std::move(candidate);
        break;
      }
    }
    HDD_REQUIRE(fs.has_value(),
                "no known feature layout has " + std::to_string(width) +
                    " features; pass --features explicitly");
  } else {
    fs = named_feature_set(features);
    HDD_REQUIRE(static_cast<int>(fs->size()) == width,
                "--features " + features + " has " +
                    std::to_string(fs->size()) +
                    " features but the model expects " +
                    std::to_string(width));
  }

  eval::AdversarialConfig cfg;
  cfg.vote.voters = args.get_int("voters");
  cfg.vote.average_mode = args.get("vote") == "average";
  cfg.passes = args.get_int("passes");
  cfg.fdr_drop_warn = args.get_double("fdr-drop-warn");
  cfg.far_rise_warn = args.get_double("far-rise-warn");
  cfg.epsilons.clear();
  const std::string spec = args.get("epsilons");
  for (std::size_t pos = 0; pos < spec.size();) {
    std::size_t next = spec.find(',', pos);
    if (next == std::string::npos) next = spec.size();
    const std::string tok = spec.substr(pos, next - pos);
    if (!tok.empty()) {
      try {
        cfg.epsilons.push_back(std::stod(tok));
      } catch (const std::exception&) {
        throw cli::UsageError("--epsilons: not a number: " + tok);
      }
    }
    pos = next + 1;
  }
  if (cfg.epsilons.empty()) {
    throw cli::UsageError("--epsilons needs a comma-separated list");
  }

  const auto split = data::split_dataset(fleet, {});
  const auto scorer = core::make_model_scorer(std::move(model));
  const auto result = eval::adversarial_evaluate(
      fleet, split, *fs,
      [&scorer](std::span<const float> xs, std::span<double> out) {
        scorer->predict_batch(xs, out);
      },
      cfg);
  const auto report = eval::robustness_findings(result, cfg, model_path);

  if (args.get("format") == "json") {
    std::cout << "{\"robustness\":";
    eval::print_json(result, std::cout);
    std::cout << ",\"findings\":";
    analysis::print_json(report, std::cout);
    std::cout << "}\n";
  } else {
    eval::print_text(result, std::cout);
    analysis::print_text(report, std::cout);
    std::cout << "adversary: " << model_path << ": " << kind << " model, "
              << width << " features (layout: " << fs->name << "): "
              << report.count(analysis::Severity::kWarning)
              << " robustness warning(s)\n";
  }
  return report.has_findings() ? 3 : 0;
}

int cmd_reliability(const Args& args) {
  reliability::RaidPredictionParams p;
  p.n_drives = args.get_int("drives");
  p.fdr = args.get_double("fdr");
  p.tia_hours = args.get_double("tia");
  p.tolerated_failures = args.get_int("raid") == 5 ? 1 : 2;

  const double with = reliability::mttdl_raid_with_prediction(p);
  auto without = p;
  without.fdr = 0.0;
  const double base = reliability::mttdl_raid_with_prediction(without);

  Table t({"configuration", "MTTDL (years)"});
  t.row().cell("without prediction").cell(base / reliability::kHoursPerYear, 2);
  t.row().cell("with prediction").cell(with / reliability::kHoursPerYear, 2);
  t.row().cell("improvement (x)").cell(with / base, 1);
  t.print(std::cout);
  return 0;
}

int cmd_ingest(const Args& args) {
  const std::string dir = args.get("store");
  const auto fleet = data::load_csv_file(args.get("data"));
  store::StoreOptions opt;
  if (args.has("segment-bytes")) {
    opt.segment_bytes = args.get_uint64("segment-bytes");
  }
  store::TelemetryStore store(dir, opt);
  io::install_shutdown_handlers();

  // Raw vendor telemetry gets the full domain check: a NaN or a value off
  // the 1-253 scale is quarantined (counted, not stored) instead of
  // poisoning every downstream feature that touches it.
  obs::Counter& quarantine_counter = obs::Registry::global().counter(
      "hdd_fleet_quarantined_samples_total",
      "Samples quarantined at ingest (non-finite or out-of-domain values).");
  std::size_t appended = 0;
  std::size_t skipped = 0;
  std::size_t quarantined = 0;
  for (const auto& d : fleet.drives) {
    // SIGINT/SIGTERM: stop between drives, seal what landed, exit 0 —
    // re-running the same ingest skips the hours already on disk.
    if (io::shutdown_requested()) break;
    const std::uint32_t id = store.register_drive(d.serial);
    for (const auto& s : d.samples) {
      const auto fault = smart::classify_sample(s, /*domain_check=*/true);
      if (fault != smart::SampleFault::kNone) {
        ++quarantined;
        quarantine_counter.inc();
        continue;
      }
      // Re-running an ingest is a no-op for hours already on disk.
      if (store.drive(id).last_hour >= s.hour) {
        ++skipped;
        continue;
      }
      store.append(id, s);
      ++appended;
    }
  }
  store.flush();
  std::cout << "ingested " << appended << " samples (" << skipped
            << " already present, " << quarantined << " quarantined) for "
            << fleet.drives.size() << " drives into " << dir << " ("
            << store.segment_count() << " segments)\n";
  return 0;
}

int cmd_compact(const Args& args) {
  const std::string dir = args.get("store");
  const auto min_hour = static_cast<std::int64_t>(args.get_int("min-hour"));
  store::TelemetryStore store(dir);
  const std::size_t before = store.sample_count();
  const auto r = store.compact(min_hour);
  std::cout << "compacted " << dir << ": kept " << r.kept << ", dropped "
            << r.dropped << " of " << before << " samples; "
            << store.segment_count() << " segment(s) remain\n";
  return 0;
}

int cmd_replay(const Args& args) {
  io::install_shutdown_handlers();
  core::FleetRuntimeConfig rc;
  rc.model_path = args.get("model");
  rc.store_dir = args.get("store");
  rc.vote.voters = args.get_int("voters");
  core::FleetRuntime runtime(rc);

  const auto& rec = runtime.store().recovery();
  if (rec.tail_truncated || rec.records_dropped > 0 ||
      rec.segments_skipped > 0) {
    std::cout << "recovery: " << rec.records_recovered
              << " records recovered, " << rec.records_dropped
              << " dropped, " << rec.torn_bytes_truncated
              << " torn bytes truncated\n";
  }

  const auto r = runtime.resume();
  std::cout << "replayed " << r.samples_replayed << " samples for "
            << r.drives << " drives through hour " << r.last_hour;
  if (r.partial_dropped > 0) {
    std::cout << " (dropped a torn interval of " << r.partial_dropped
              << " samples)";
  }
  std::cout << '\n';

  const core::FleetScorer& fleet = runtime.fleet();
  const auto alarmed = fleet.alarmed_drives();
  if (alarmed.empty()) {
    std::cout << "no alarms\n";
    return 0;
  }
  Table t({"drive", "alarm hour"});
  for (const std::size_t i : alarmed) {
    t.row()
        .cell(fleet.serial(i))
        .cell(static_cast<long long>(fleet.state(i).alarm_hour()));
  }
  std::cout << alarmed.size() << " drive(s) in alarm:\n";
  t.print(std::cout);
  return 0;
}

core::QuarantinePolicy parse_quarantine(const std::string& name) {
  if (name == "off") return core::QuarantinePolicy::kOff;
  if (name == "domain") return core::QuarantinePolicy::kFullDomain;
  return core::QuarantinePolicy::kNonFinite;
}

pipeline::Strategy parse_strategy(const std::string& name) {
  if (name == "fixed") return pipeline::Strategy::kFixed;
  if (name == "replacing") return pipeline::Strategy::kReplacing;
  return pipeline::Strategy::kAccumulation;
}

// Shared by `autoretrain` and `serve --retrain-every`: scheduler, trainer
// preset and guardrail rails from the common flag set.
pipeline::PipelineConfig pipeline_config_from(const Args& args) {
  pipeline::PipelineConfig pc;
  pc.trainer = core::preset(args.get("preset"));
  pc.trainer.vote.voters = args.get_int("voters");
  pc.scheduler.strategy = parse_strategy(args.get("strategy"));
  pc.scheduler.replace_cycle_weeks = args.get_int("replace-weeks");
  pc.guardrail.max_far = args.get_double("max-far");
  pc.guardrail.min_fdr = args.get_double("min-fdr");
  return pc;
}

// The labeled failure records every retrain shares (the store's own drives
// are the good population).
std::vector<smart::DriveRecord> load_failed_pool(const std::string& path) {
  auto fleet = data::load_csv_file(path);
  std::vector<smart::DriveRecord> failed;
  for (auto& d : fleet.drives) {
    if (d.failed && !d.empty()) failed.push_back(std::move(d));
  }
  HDD_REQUIRE(!failed.empty(),
              "--failed-data " + path + " holds no failed drives");
  return failed;
}

int cmd_autoretrain(const Args& args) {
  // Offline single-store pipeline: the journal is the good population;
  // every cycle is forced (an operator said "retrain now"), but the lint
  // and FAR/FDR gates still decide whether anything is promoted.
  core::FleetRuntimeConfig rc;
  rc.model_path = args.get("model");
  rc.store_dir = args.get("store");
  rc.vote.voters = args.get_int("voters");
  rc.hot_swappable = true;
  core::FleetRuntime runtime(rc);
  const std::uint64_t start_gen = runtime.model_generation();

  pipeline::PipelineConfig pc = pipeline_config_from(args);
  pc.scheduler.retrain_every_hours = args.get_int("every-hours");
  pc.scheduler.retrain_every_samples = args.get_uint64("every-samples");
  pipeline::UpdatePipeline pipe(*runtime.swappable(), runtime.store(),
                                load_failed_pool(args.get("failed-data")),
                                pc);

  const int cycles = args.get_int("cycles");
  Table t({"cycle", "outcome", "generation", "val FAR (%)", "val FDR (%)",
           "detail"});
  for (int c = 0; c < cycles; ++c) {
    const auto r = pipe.run_cycle(/*force=*/true);
    t.row()
        .cell(static_cast<long long>(c + 1))
        .cell(pipeline::outcome_name(r.outcome))
        .cell(static_cast<long long>(r.generation))
        .cell(100 * r.val_far, 3)
        .cell(100 * r.val_fdr, 2)
        .cell(r.reason);
  }
  t.print(std::cout);
  std::cout << "generation " << start_gen << " -> "
            << runtime.model_generation() << " (journaled in "
            << args.get("store") << ")\n";
  if (args.has("out")) {
    core::save_scorer_file(*runtime.swappable()->current(), args.get("out"));
    std::cout << "live model written to " << args.get("out") << '\n';
  }
  runtime.seal();
  return 0;
}

int cmd_serve(const Args& args) {
  // The daemon is the metrics consumer (GET /metrics), so the registry
  // runs hot even without --metrics-out.
  obs::Registry::global().set_enabled(true);

  // Flight recorder: on by default. The rings double as the /debug/trace
  // source and the crash dump, so the daemon keeps them hot unless the
  // operator opts out.
  if (args.get("trace") == "on") {
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.set_flight_dir(args.get("store"));
    const std::uint64_t slow_ms = args.get_uint64("trace-slow-ms");
    tracer.set_slow_threshold_ns(slow_ms * 1'000'000ull);
    tracer.set_enabled(true);
    obs::install_flight_signal_handlers();
  }

  serve::ShardEngineConfig ec;
  ec.dir = args.get("store");
  ec.shards = static_cast<std::size_t>(args.get_int("shards"));
  ec.runtime.model_path = args.get("model");
  ec.runtime.vote.voters = args.get_int("voters");
  ec.runtime.quarantine = parse_quarantine(args.get("quarantine"));
  if (args.has("segment-bytes")) {
    ec.runtime.store.segment_bytes = args.get_uint64("segment-bytes");
  }
  ec.runtime.store.fsync_appends = args.get("fsync") == "always";

  // Continuous update: any retrain trigger makes the shards hot-swappable
  // and starts the background RetrainLoop after the server is up.
  const std::int64_t retrain_every = args.get_int("retrain-every");
  const std::uint64_t retrain_samples = args.get_uint64("retrain-samples");
  const bool retraining = retrain_every > 0 || retrain_samples > 0;
  if (retraining && !args.has("failed-data")) {
    throw cli::UsageError("--retrain-every/--retrain-samples need "
                          "--failed-data (the labeled failure pool)");
  }
  // Always swappable: a restart without retrain flags must still restore
  // and reconcile whatever generation a previous daemon promoted.
  ec.runtime.hot_swappable = true;

  serve::ShardEngine engine(ec);
  const std::size_t replayed = engine.resume();

  serve::ServeOptions so;
  so.host = args.get("host");
  so.port = args.get_int("port");
  if (args.has("port-file")) so.port_file = args.get("port-file");
  so.max_conns = static_cast<std::size_t>(args.get_int("max-conns"));
  so.idle_timeout_ms = args.get_int("idle-timeout-ms");

  serve::Server server(engine, so);
  std::unique_ptr<serve::RetrainLoop> loop;
  if (retraining) {
    serve::RetrainLoopConfig lc;
    lc.pipeline = pipeline_config_from(args);
    lc.pipeline.scheduler.retrain_every_hours = retrain_every;
    lc.pipeline.scheduler.retrain_every_samples = retrain_samples;
    lc.pipeline.min_shadow_samples = args.get_uint64("min-shadow-samples");
    lc.failed_pool = load_failed_pool(args.get("failed-data"));
    loop = std::make_unique<serve::RetrainLoop>(engine, server, std::move(lc));
  }
  server.start();
  if (loop != nullptr) loop->start();
  std::cout << "serving " << ec.dir << " on " << so.host << ":"
            << server.port() << " (" << engine.shard_count()
            << " shard(s), " << replayed << " samples resumed"
            << (retraining ? ", retrain loop on" : "") << ")\n"
            << std::flush;
  server.wait();
  if (loop != nullptr) loop->stop();

  const auto stats = engine.stats();
  std::cout << "served " << stats.drives << " drive(s), " << stats.samples
            << " samples on disk, " << stats.alarms << " alarm(s)"
            << ", model generation " << stats.generation
            << (stats.degraded ? " [degraded]" : "") << '\n';
  return 0;
}

int cmd_client(const Args& args) {
  const std::string addr = args.get("addr");
  const auto colon = addr.rfind(':');
  if (colon == std::string::npos) {
    throw cli::UsageError("--addr needs the form HOST:PORT");
  }
  const std::string host = addr.substr(0, colon);
  const int port = std::stoi(addr.substr(colon + 1));
  const std::string op = args.get("op");
  // Validate the flag combination before any socket is touched: a bad
  // invocation must exit 2 even when no daemon is listening.
  if (op == "ingest" && !args.has("data")) {
    throw cli::UsageError("--op ingest needs --data");
  }

  if (op == "metrics") {
    std::cout << serve::Client::http_get(host, port, "/metrics");
    return 0;
  }

  serve::Client client;
  client.connect(host, port);
  if (op == "ingest") {
    const auto fleet = data::load_csv_file(args.get("data"));
    serve::IngestResponse total;
    serve::IngestBatch batch;
    constexpr std::size_t kChunk = 8192;  // stays well under the frame cap
    const auto send_chunk = [&] {
      const auto r = client.ingest(batch);
      total.accepted += r.accepted;
      total.stale += r.stale;
      total.quarantined += r.quarantined;
      total.journal_failed += r.journal_failed;
      total.degraded = total.degraded || r.degraded;
      batch.serials.clear();
      batch.samples.clear();
    };
    for (const auto& d : fleet.drives) {
      for (const auto& s : d.samples) {
        batch.serials.push_back(d.serial);
        batch.samples.push_back(s);
        if (batch.samples.size() >= kChunk) send_chunk();
      }
    }
    if (!batch.samples.empty()) send_chunk();
    std::cout << "ingested " << total.accepted << " samples (" << total.stale
              << " stale, " << total.quarantined << " quarantined)"
              << (total.degraded ? " [degraded]" : "") << '\n';
    return total.journal_failed > 0 ? 1 : 0;
  }
  if (op == "query") {
    if (!args.has("serial")) {
      throw cli::UsageError("--op query needs --serial");
    }
    const std::string serial = args.get("serial");
    const auto r = client.query(serial);
    if (!r.known) {
      std::cout << serial << ": unknown\n";
    } else if (r.alarmed) {
      std::cout << serial << ": ALARM at hour " << r.alarm_hour << " ("
                << r.samples_seen << " samples, last hour " << r.last_hour
                << ")\n";
    } else {
      std::cout << serial << ": ok (" << r.samples_seen
                << " samples, last hour " << r.last_hour << ")\n";
    }
    return 0;
  }
  if (op == "stats") {
    const auto r = client.stats();
    std::cout << "drives " << r.drives << ", samples " << r.samples
              << ", alarms " << r.alarms << ", generation " << r.generation
              << ", last retrain "
              << pipeline::outcome_name(
                     static_cast<pipeline::Outcome>(r.last_outcome));
    if (r.shadow_samples > 0) {
      std::cout << ", shadow " << r.shadow_divergence << "/"
                << r.shadow_samples << " divergent";
    }
    std::cout << (r.degraded ? " [degraded]" : "") << '\n';
    return 0;
  }
  // op == "shutdown" (choice-validated)
  client.shutdown_server();
  std::cout << "shutdown requested\n";
  return 0;
}

int cmd_trace(const Args& args) {
  const std::string addr = args.get("addr");
  const auto colon = addr.rfind(':');
  if (colon == std::string::npos) {
    throw cli::UsageError("--addr needs the form HOST:PORT");
  }
  const std::string host = addr.substr(0, colon);
  const int port = std::stoi(addr.substr(colon + 1));
  const std::string json = serve::Client::http_get(
      host, port, "/debug/trace?ms=" + std::to_string(args.get_uint64("ms")));
  const std::string out = args.get("out");
  if (out == "-") {
    std::cout << json;
    if (json.empty() || json.back() != '\n') std::cout << '\n';
    return 0;
  }
  std::ofstream os(out, std::ios::binary | std::ios::trunc);
  os << json;
  os.flush();
  if (!os) throw DataError("cannot write trace to " + out);
  std::cout << "trace written to " << out
            << " (load in chrome://tracing or ui.perfetto.dev)\n";
  return 0;
}

}  // namespace

namespace hdd::tools {

cli::Registry build_registry() {
  cli::Registry reg("hddpredict");
  reg.add({"generate", "fabricate a synthetic fleet CSV",
           {ArgSpec::str("out", "F", /*required=*/true),
            ArgSpec::real("scale", "S", "0.05"),
            ArgSpec::uint64("seed", "N", "42"),
            ArgSpec::choice("family", {"W", "Q", "both"}, "both"),
            ArgSpec::str("weeks", "A:B", false, "0:1"),
            ArgSpec::integer("interval", "H", "1")},
           cmd_generate});
  reg.add({"features", "rank and select SMART features",
           {ArgSpec::str("data", "F", /*required=*/true),
            ArgSpec::integer("levels", "N", "10"),
            ArgSpec::integer("rates", "N", "3")},
           cmd_features});
  reg.add({"train", "fit a failure predictor",
           {ArgSpec::str("data", "F", /*required=*/true),
            ArgSpec::str("model", "F", /*required=*/true),
            ArgSpec::choice("preset", {"ct", "rt", "ann", "forest"}, "ct"),
            ArgSpec::integer("window", "H", ""),
            ArgSpec::real("cp", "X", "")},
           cmd_train});
  reg.add({"evaluate", "holdout FDR/FAR/TIA for a model",
           {ArgSpec::str("data", "F", /*required=*/true),
            ArgSpec::str("model", "F", /*required=*/true),
            ArgSpec::integer("voters", "N", "11")},
           cmd_evaluate});
  reg.add({"tune", "pick the voter count for a FAR budget",
           {ArgSpec::str("data", "F", /*required=*/true),
            ArgSpec::str("model", "F", /*required=*/true),
            ArgSpec::real("budget", "FAR", "0.001")},
           cmd_tune});
  reg.add({"predict", "rank drives most at risk",
           {ArgSpec::str("data", "F", /*required=*/true),
            ArgSpec::str("model", "F", /*required=*/true),
            ArgSpec::integer("top", "K", "15")},
           cmd_predict});
  reg.add({"lint", "static-verify a persisted model",
           {ArgSpec::str("model", "F", /*required=*/true),
            ArgSpec::choice("format", {"text", "json"}, "text"),
            ArgSpec::choice("features",
                            {"auto", "stat13", "basic12", "expert19", "none"},
                            "auto")},
           cmd_lint});
  reg.add({"adversary", "measure robustness to bounded SMART perturbations",
           {ArgSpec::str("data", "F", /*required=*/true),
            ArgSpec::str("model", "F", /*required=*/true),
            ArgSpec::integer("voters", "N", "11"),
            ArgSpec::choice("vote", {"binary", "average"}, "binary"),
            ArgSpec::integer("passes", "N", "2"),
            ArgSpec::str("epsilons", "E,E,..", false, "0.01,0.02,0.05"),
            ArgSpec::real("fdr-drop-warn", "X", "0.10"),
            ArgSpec::real("far-rise-warn", "X", "0.05"),
            ArgSpec::choice("format", {"text", "json"}, "text"),
            ArgSpec::choice("features",
                            {"auto", "stat13", "basic12", "expert19"},
                            "auto")},
           cmd_adversary});
  reg.add({"reliability", "RAID MTTDL with/without prediction",
           {ArgSpec::integer("drives", "N", "500"),
            ArgSpec::real("fdr", "K", "0.9549"),
            ArgSpec::real("tia", "H", "355"),
            ArgSpec::integer("raid", "5|6", "6")},
           cmd_reliability});
  reg.add({"ingest", "append CSV telemetry to a store",
           {ArgSpec::str("store", "DIR", /*required=*/true),
            ArgSpec::str("data", "F", /*required=*/true),
            ArgSpec::uint64("segment-bytes", "N", "")},
           cmd_ingest});
  reg.add({"compact", "drop store samples before a cutoff",
           {ArgSpec::str("store", "DIR", /*required=*/true),
            required(ArgSpec::integer("min-hour", "H", ""))},
           cmd_compact});
  reg.add({"replay", "resume fleet scoring from a store",
           {ArgSpec::str("store", "DIR", /*required=*/true),
            ArgSpec::str("model", "F", /*required=*/true),
            ArgSpec::integer("voters", "N", "11")},
           cmd_replay});
  reg.add({"autoretrain", "run forced retrain cycles against a store",
           {ArgSpec::str("store", "DIR", /*required=*/true),
            ArgSpec::str("model", "F", /*required=*/true),
            ArgSpec::str("failed-data", "F", /*required=*/true),
            ArgSpec::choice("preset", {"ct", "rt", "ann", "forest"}, "ct"),
            ArgSpec::choice("strategy",
                            {"fixed", "accumulation", "replacing"},
                            "accumulation"),
            ArgSpec::integer("replace-weeks", "C", "1"),
            ArgSpec::integer("every-hours", "H", "168"),
            ArgSpec::uint64("every-samples", "N", "0"),
            ArgSpec::real("max-far", "X", "1.0"),
            ArgSpec::real("min-fdr", "X", "0.0"),
            ArgSpec::integer("voters", "N", "11"),
            ArgSpec::integer("cycles", "N", "1"),
            ArgSpec::str("out", "F")},
           cmd_autoretrain});
  reg.add({"serve", "run the fleet-scoring daemon",
           {ArgSpec::str("store", "DIR", /*required=*/true),
            ArgSpec::str("model", "F", /*required=*/true),
            ArgSpec::integer("voters", "N", "11"),
            ArgSpec::integer("shards", "K", "1"),
            ArgSpec::str("host", "H", false, "127.0.0.1"),
            ArgSpec::integer("port", "P", "0"),
            ArgSpec::str("port-file", "F"),
            ArgSpec::uint64("segment-bytes", "N", ""),
            ArgSpec::choice("quarantine", {"off", "nonfinite", "domain"},
                            "nonfinite"),
            ArgSpec::choice("fsync", {"batch", "always"}, "batch"),
            ArgSpec::integer("max-conns", "N", "0"),
            ArgSpec::integer("idle-timeout-ms", "MS", "0"),
            ArgSpec::integer("retrain-every", "H", "0"),
            ArgSpec::uint64("retrain-samples", "N", "0"),
            ArgSpec::str("failed-data", "F"),
            ArgSpec::choice("preset", {"ct", "rt", "ann", "forest"}, "ct"),
            ArgSpec::choice("strategy",
                            {"fixed", "accumulation", "replacing"},
                            "accumulation"),
            ArgSpec::integer("replace-weeks", "C", "1"),
            ArgSpec::real("max-far", "X", "1.0"),
            ArgSpec::real("min-fdr", "X", "0.0"),
            ArgSpec::uint64("min-shadow-samples", "N", "0"),
            ArgSpec::choice("trace", {"on", "off"}, "on"),
            ArgSpec::uint64("trace-slow-ms", "MS", "50")},
           cmd_serve});
  reg.add({"client", "talk to a running serve daemon",
           {ArgSpec::str("addr", "HOST:PORT", /*required=*/true),
            required(ArgSpec::choice("op",
                                     {"ingest", "query", "stats", "metrics",
                                      "shutdown"},
                                     "")),
            ArgSpec::str("data", "F"), ArgSpec::str("serial", "S")},
           cmd_client});
  reg.add({"trace", "fetch a Chrome trace from a serve daemon",
           {ArgSpec::str("addr", "HOST:PORT", /*required=*/true),
            ArgSpec::uint64("ms", "N", "10000"),
            ArgSpec::str("out", "F|-", false, "-")},
           cmd_trace});
  return reg;
}

}  // namespace hdd::tools
