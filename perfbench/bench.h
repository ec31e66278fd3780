// Shared declarations of the end-to-end benchmark (see perfbench/README.md
// for the workloads, metrics and how to run it).
//
// One executable serves two phases, each in its own process:
//   perfbench prep --workload W --seed S --dir D [--tiny]
//       generates the workload's inputs from the seed with sim:: and writes
//       them to D: raw telemetry, the labeled failure pool, the trained
//       model file and any pre-filled journal.
//   perfbench run --workload W --dir D --seconds T --trace 0|1
//                 [--tiny] [--perturb]
//       loads those files, sets the program up several times, measures
//       the workload for T seconds, checks its outputs against a reference
//       path and prints one JSON object as its last line.
// The program under test therefore only ever sees generated telemetry and
// model files, and peak RSS of the run process excludes input generation.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "core/scorer.h"
#include "eval/detection.h"
#include "serve/shard_engine.h"
#include "serve/wire.h"
#include "smart/drive.h"
#include "smart/features.h"

namespace perfbench {

namespace serve = hdd::serve;
namespace smart = hdd::smart;
namespace core = hdd::core;
namespace eval = hdd::eval;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// What one workload run prints: metrics with units, free-form notes (run
// facts kept with the results) and the correctness/failure accounting.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, double value);
  // Records a failed correctness check; the first message is kept.
  void fail_check(const std::string& why);
  // Raw samples (a JSON object) for run.py to pool across processes.
  void set_raw(std::string json) { raw_ = std::move(json); }

  bool correct() const { return correct_; }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  std::string json() const;

 private:
  bool correct_ = true;
  std::string why_;
  std::string raw_ = "{}";
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

// Returns freed memory to the system and resets this process's resident-
// memory high-water mark, so that peak_rss_mb() covers only what runs after
// the call; the benchmark calls it once its inputs are loaded and its
// reference computed. Notes the resident memory left at that point, and
// whether the kernel allowed the reset (without it, the peak is the whole
// process lifetime's).
void reset_peak_rss(Report& report);

// Peak resident memory of this process since the last reset_peak_rss(),
// MiB.
double peak_rss_mb();

struct RunOptions {
  std::string workload;
  std::string dir;        // inputs written by `prep`; working files below it
  double seconds = 10.0;  // measured time
  bool trace = false;
  bool tiny = false;      // self-test sizes
  bool perturb = false;   // perturb the reference: the gate must fail
};

// Copies the directory tree `from` to `to` and fsyncs every file copied, so
// the kernel's write-back of the copy does not land in a timed op.
void copy_synced(const std::string& from, const std::string& to);

// --- Inputs ----------------------------------------------------------------

// Reads a telemetry file written by `prep`: drives with their samples.
std::vector<smart::DriveRecord> read_drives(const std::string& path);

// Generates the workload's inputs into `dir`; records prep time and
// sim.generate_s in `report`.
void prep_workload(const std::string& workload, std::uint64_t seed,
                   const std::string& dir, bool tiny, Report& report);

// Sizes of each workload, full and self-test.
struct ServeSizes {
  std::size_t goods, failed;
  std::int64_t prefill_hours, live_hours;
  int laps_per_epoch;
};
struct ForestSizes {
  std::size_t goods, failed, replicas;
  int intervals_per_epoch;
};
struct RetrainSizes {
  std::size_t goods, failed;
  std::int64_t hours;
};
ServeSizes serve_sizes(bool tiny);
ForestSizes forest_sizes(bool tiny);
RetrainSizes retrain_sizes(bool tiny);

// Collector connections of the serve load, and hours per request.
constexpr int kCollectors = 2;
constexpr std::int64_t kBatchHours = 24;

// Threads of the pool the benchmark passes where an API takes one: two,
// but never more than half the machine.
std::size_t pool_threads();

// --- Request shaping (serve path) -------------------------------------------

// One collector's drives for the hours [from, from + kBatchHours), drive-
// major with hours ascending. Collector c owns drives c, c + C, c + 2C, ...
std::vector<serve::IngestBatch> make_requests(
    const std::vector<smart::DriveRecord>& drives, int collectors,
    std::int64_t from_hour, std::int64_t to_hour);

// The daemon's engine as every workload configures it: two shards under
// `dir`, the model loaded from `model_path` with verify-on-load (or, for
// model kinds the runtime cannot load from a path, the given `scorer`),
// stat13 features and the CT preset's 11-voter rule.
serve::ShardEngineConfig engine_config(
    const std::string& dir, const std::string& model_path,
    const core::SampleScorer* scorer = nullptr);

// Splits a batch the way the server routes it: one sub-batch per shard,
// order kept within each.
std::vector<std::pair<std::size_t, serve::IngestBatch>> split_by_shard(
    const serve::ShardEngine& engine, const serve::IngestBatch& batch);

// Adds `offset` hours to every sample.
void shift_hours(serve::IngestBatch& b, std::int64_t offset);

// Closed loop: one thread per collector sends its requests in order over
// its own serve::Client, the next only after the previous ack.
// `requests[c]` are collector c's batches, each sent after `shift` is added
// to its hours. `rtt_ms` receives each request's round trip; `acks` each
// response (empty on an error response; a collector whose connection fails
// stops, leaving fewer acks than requests). With `time_encode` the client encodes and frames the request
// itself, timed apart from the round trip (traced runs); otherwise it calls
// Client::ingest and the round trip includes encoding.
struct LoopResult {
  std::vector<double> rtt_ms;
  std::vector<double> encode_ms;
  std::vector<serve::IngestResponse> acks;
  std::vector<std::size_t> sent;  // samples per request, parallel to acks
  double wall_s = 0.0;
};
LoopResult closed_loop(int port,
                       const std::vector<std::vector<serve::IngestBatch>>& requests,
                       std::int64_t shift, bool time_encode);

// --- Layers --------------------------------------------------------------------

// Everything the per-layer suite needs from a workload. Every layer is
// measured on the workload's own inputs, so each workload reports every
// per-layer metric; the notes say which layers its end-to-end op runs.
struct LayerInputs {
  const std::vector<smart::DriveRecord>* drives = nullptr;  // raw telemetry
  const std::vector<smart::DriveRecord>* failed_pool = nullptr;
  std::string model_path;
  const core::SampleScorer* model = nullptr;
  eval::VoteConfig vote;
  // Rows per predict_batch call on this workload's real path.
  std::size_t predict_block_rows = 256;
  // Pre-filled journals (store directories) to recover and read windows
  // from; empty = use the store the append measurement writes.
  std::vector<std::string> journals;
  std::string work_dir;
  // Interval snapshots for the pool-speedup measurement (row-major, one
  // row per drive); empty = built from the telemetry's feature rows.
  const std::vector<std::vector<float>>* intervals = nullptr;
  // Names of the layers this workload's end-to-end op runs through.
  std::vector<std::string> in_op;
};

// Measures and reports every per-layer metric except the trace.* ones,
// which depend on the workload's op; returns the timings the caller needs
// for trace.unattributed_share.
struct LayerTimes {
  double predict_ns = 0, vote_ns = 0;
  double window_read_s = 0, matrix_s = 0, fit_s = 0, lint_s = 0,
         gate_eval_s = 0;
  double loop_unattributed = 0;  // 1 - (encode+decode+engine)/round trip
};
LayerTimes measure_layers(const LayerInputs& in, Report& report);

// The stat13 feature set every workload scores with.
const smart::FeatureSet& features();

// The workloads.
void run_serve_ingest(const RunOptions& opt, Report& report);
void run_interval_forest(const RunOptions& opt, Report& report);
void run_retrain_cycle(const RunOptions& opt, Report& report);

// The measured ops of one epoch (a stretch of the run with its own cold
// set-up) and the work they completed.
struct Epoch {
  std::vector<double> latency_ms;
  double work = 0.0;
  double busy_s = 0.0;
};

// Records the raw end-to-end samples of a measurement process: its cold
// set-ups, its epochs and its peak RSS. run.py pools them over the run's
// processes into the five end-to-end metrics. `work_unit` names what
// throughput counts.
void report_raw(Report& report, const std::vector<Epoch>& epochs,
                const std::vector<double>& setup_s,
                const std::string& work_unit);

}  // namespace perfbench
