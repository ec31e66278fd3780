// Input generation (`perfbench prep`): every workload's telemetry, failure
// pool, model file and pre-filled journal, made from the seed with sim::.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bench.h"
#include "core/model_io.h"
#include "core/predictor.h"
#include "data/split.h"
#include "serve/shard_engine.h"
#include "sim/generator.h"
#include "sim/profile.h"
#include "store/telemetry_store.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace hdd;

ServeSizes serve_sizes(bool tiny) {
  if (tiny) return {30, 4, 48, 96, 2};
  return {496, 16, 168, 336, 4};
}

ForestSizes forest_sizes(bool tiny) {
  if (tiny) return {60, 6, 2, 20};
  return {1900, 100, 24, 60};
}

RetrainSizes retrain_sizes(bool tiny) {
  if (tiny) return {40, 16, 360};
  return {64, 200, 360};
}

namespace {

template <typename T>
void put(std::ofstream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
T get(std::ifstream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!is) throw std::runtime_error("telemetry file truncated");
  return v;
}

// The workload fleet: one family-W population observed for `weeks` weeks.
data::DriveDataset generate(std::uint64_t seed, std::size_t goods,
                            std::size_t failed, int weeks) {
  sim::FleetConfig cfg;
  cfg.seed = seed;
  cfg.observation_weeks = weeks;
  cfg.families.push_back({sim::family_w_profile(), goods, failed});
  return sim::generate_fleet_window(cfg, 0, weeks);
}

// Shifts every drive to start at hour 0 and keeps hours below `end`, so the
// whole fleet streams in lockstep from the first interval.
std::vector<smart::DriveRecord> rebase(std::vector<smart::DriveRecord> drives,
                                       std::int64_t end) {
  std::vector<smart::DriveRecord> out;
  for (smart::DriveRecord& d : drives) {
    if (d.empty()) continue;
    const std::int64_t first = d.first_hour();
    for (smart::Sample& s : d.samples) s.hour -= first;
    if (d.fail_hour >= 0) d.fail_hour -= first;
    std::erase_if(d.samples,
                  [end](const smart::Sample& s) { return s.hour >= end; });
    if (!d.empty()) out.push_back(std::move(d));
  }
  return out;
}

// Trains the preset on its own simulated fleet and writes the model file.
// The training fleet's seed is fixed: the model is the program's
// configuration, not workload input, and a model that changed with the
// workload seed would change the cost of every prediction from run to run.
void train_model(const std::string& preset, bool tiny, const std::string& path) {
  constexpr std::uint64_t kModelSeed = 20140623;
  const auto ds = generate(kModelSeed, tiny ? 80 : 400, tiny ? 16 : 60, 3);
  core::FailurePredictor predictor(core::preset(preset));
  predictor.fit(ds, data::split_dataset(ds, {}));
  core::save_scorer_file(predictor.scorer(), path);
}

std::vector<smart::DriveRecord> failed_of(const data::DriveDataset& ds) {
  std::vector<smart::DriveRecord> out;
  for (const smart::DriveRecord& d : ds.drives) {
    if (d.failed && !d.empty()) out.push_back(d);
  }
  return out;
}

// Binary telemetry file: drives with their samples (hours as stored).
void write_drives(const std::string& path,
                  const std::vector<smart::DriveRecord>& drives) {
  std::ofstream os(path, std::ios::binary);
  put<std::uint64_t>(os, drives.size());
  for (const smart::DriveRecord& d : drives) {
    put<std::uint32_t>(os, static_cast<std::uint32_t>(d.serial.size()));
    os.write(d.serial.data(), static_cast<std::streamsize>(d.serial.size()));
    put<std::int32_t>(os, d.family);
    put<std::uint8_t>(os, d.failed ? 1 : 0);
    put<std::int64_t>(os, d.fail_hour);
    put<std::uint64_t>(os, d.samples.size());
    for (const smart::Sample& s : d.samples) {
      put(os, s.hour);
      os.write(reinterpret_cast<const char*>(s.attrs.data()),
               sizeof(float) * s.attrs.size());
    }
  }
  if (!os) throw std::runtime_error("cannot write " + path);
}

}  // namespace

std::vector<smart::DriveRecord> read_drives(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::vector<smart::DriveRecord> drives(get<std::uint64_t>(is));
  for (smart::DriveRecord& d : drives) {
    d.serial.resize(get<std::uint32_t>(is));
    is.read(d.serial.data(), static_cast<std::streamsize>(d.serial.size()));
    d.family = get<std::int32_t>(is);
    d.failed = get<std::uint8_t>(is) != 0;
    d.fail_hour = get<std::int64_t>(is);
    d.samples.resize(get<std::uint64_t>(is));
    for (smart::Sample& s : d.samples) {
      s.hour = get<std::int64_t>(is);
      is.read(reinterpret_cast<char*>(s.attrs.data()),
              sizeof(float) * s.attrs.size());
    }
  }
  if (!is) throw std::runtime_error("telemetry file truncated: " + path);
  return drives;
}

void prep_workload(const std::string& workload, std::uint64_t seed,
                   const std::string& dir, bool tiny, Report& report) {
  fs::create_directories(dir);
  const std::string telemetry = dir + "/telemetry.bin";
  const std::string failed = dir + "/failed.bin";
  const std::string model = dir + "/model.txt";
  const std::string journal = dir + "/journal";
  double generate_s = 0.0;
  const auto timed_generate = [&](std::size_t goods, std::size_t n_failed,
                                  int weeks) {
    const auto t0 = Clock::now();
    auto ds = generate(seed, goods, n_failed, weeks);
    generate_s += seconds_between(t0, Clock::now());
    return ds;
  };
  const auto t0 = Clock::now();
  if (workload == "serve_ingest") {
    const ServeSizes z = serve_sizes(tiny);
    const std::int64_t end = z.prefill_hours + z.live_hours;
    const auto ds = timed_generate(z.goods, z.failed,
                                   static_cast<int>((end + 167) / 168));
    const auto drives = rebase(ds.drives, end);
    write_drives(telemetry, drives);
    write_drives(failed, failed_of(ds));
    train_model("ct", tiny, model);
    // The journal a restarted daemon resumes from: the fleet's first
    // prefill_hours, journaled by the daemon's own engine in the same
    // request shape the live load uses.
    serve::ShardEngine engine(engine_config(journal, model));
    for (const serve::IngestBatch& b :
         make_requests(drives, kCollectors, 0, z.prefill_hours)) {
      for (const auto& [k, sub] : split_by_shard(engine, b)) {
        (void)engine.ingest(k, sub);
      }
    }
    engine.seal();
  } else if (workload == "interval_forest") {
    const ForestSizes z = forest_sizes(tiny);
    const auto ds = timed_generate(z.goods, z.failed, 2);
    write_drives(telemetry, rebase(ds.drives, 2 * 168));
    write_drives(failed, failed_of(ds));
    train_model("forest", tiny, model);
  } else if (workload == "retrain_cycle") {
    const RetrainSizes z = retrain_sizes(tiny);
    const int weeks = static_cast<int>((z.hours + 167) / 168);
    // Every drive holds the same number of samples (19 of 20 hours; the
    // generator drops some), so the journal's size and the windows' shapes
    // do not vary with the seed: drives of the generated fleet are rebased
    // to hour 0 and the first z.goods with that many are kept, cut to it.
    const auto need = static_cast<std::size_t>(z.hours * 19 / 20);
    auto goods = timed_generate(2 * z.goods, 0, weeks + 1);
    const auto pool = timed_generate(0, z.failed, weeks);
    std::vector<smart::DriveRecord> drives;
    for (smart::DriveRecord& d : rebase(std::move(goods.drives), z.hours)) {
      if (d.samples.size() >= need && drives.size() < z.goods) {
        d.samples.resize(need);
        drives.push_back(std::move(d));
      }
    }
    if (drives.size() < z.goods) {
      throw std::runtime_error("too few drives with a full history");
    }
    write_drives(telemetry, drives);
    write_drives(failed, failed_of(pool));
    train_model("ct", tiny, model);
    // Hour-major, the way the daemon journals: each day, each drive's 24
    // samples as one batch.
    store::TelemetryStore store(journal);
    std::vector<std::uint32_t> ids;
    for (const smart::DriveRecord& d : drives) {
      ids.push_back(store.register_drive(d.serial));
    }
    std::vector<std::size_t> pos(drives.size(), 0);
    for (std::int64_t h0 = 0; h0 < z.hours; h0 += kBatchHours) {
      for (std::size_t i = 0; i < drives.size(); ++i) {
        const auto& s = drives[i].samples;
        std::size_t end = pos[i];
        while (end < s.size() && s[end].hour < h0 + kBatchHours) ++end;
        if (end > pos[i]) {
          store.append_batch(ids[i], s.data() + pos[i], end - pos[i]);
        }
        pos[i] = end;
      }
    }
    store.flush();
  } else {
    throw std::runtime_error("unknown workload " + workload);
  }
  report.note("prep_s", seconds_between(t0, Clock::now()));
  report.metric("sim.generate_s", generate_s, "s");
}

}  // namespace perfbench
