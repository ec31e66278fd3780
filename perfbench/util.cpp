#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/predictor.h"
#include "serve/client.h"

namespace perfbench {

std::size_t pool_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency() / 2, 1, 2);
}

void reset_peak_rss(Report& report) {
  ::malloc_trim(0);  // freed harness memory must not stay resident
  std::ofstream f("/proc/self/clear_refs");
  f << "5";  // 5 resets the peak RSS (proc(5), clear_refs)
  f.flush();
  report.note("rss_peak_reset", f ? "yes" : "no");
  report.note("rss_at_reset_mb", peak_rss_mb());
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
    }
  }
  rusage ru{};  // no procfs: the process-lifetime peak
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

void Report::note(const std::string& key, double value) {
  notes_.emplace_back(key, number(value));
}

void Report::fail_check(const std::string& why) {
  if (correct_) why_ = why;
  correct_ = false;
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"check\": \"" << json_escape(correct_ ? "ok" : why_) << "\""
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << metrics_[i].first << "\": {\"value\": "
       << number(metrics_[i].second.first) << ", \"unit\": \""
       << metrics_[i].second.second << "\"}";
  }
  os << "}, \"notes\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << json_escape(notes_[i].first) << "\": \""
       << json_escape(notes_[i].second) << '"';
  }
  os << "}, \"raw\": " << raw_ << "}";
  return os.str();
}

void copy_synced(const std::string& from, const std::string& to) {
  namespace fs = std::filesystem;
  fs::copy(from, to, fs::copy_options::recursive);
  for (const auto& e : fs::recursive_directory_iterator(to)) {
    if (!e.is_regular_file()) continue;
    const int fd = ::open(e.path().c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0 || ::fsync(fd) != 0) {
      if (fd >= 0) ::close(fd);
      throw std::runtime_error("cannot fsync " + e.path().string());
    }
    ::close(fd);
  }
}

const smart::FeatureSet& features() {
  static const smart::FeatureSet fs = smart::stat13_features();
  return fs;
}

std::vector<serve::IngestBatch> make_requests(
    const std::vector<smart::DriveRecord>& drives, int collectors,
    std::int64_t from_hour, std::int64_t to_hour) {
  std::vector<serve::IngestBatch> out;
  for (int c = 0; c < collectors; ++c) {
    for (std::int64_t h0 = from_hour; h0 < to_hour; h0 += kBatchHours) {
      const std::int64_t h1 = std::min(h0 + kBatchHours, to_hour);
      serve::IngestBatch b;
      for (std::size_t d = static_cast<std::size_t>(c); d < drives.size();
           d += static_cast<std::size_t>(collectors)) {
        for (const smart::Sample& s : drives[d].samples) {
          if (s.hour < h0 || s.hour >= h1) continue;
          b.serials.push_back(drives[d].serial);
          b.samples.push_back(s);
        }
      }
      out.push_back(std::move(b));
    }
  }
  return out;
}

serve::ShardEngineConfig engine_config(const std::string& dir,
                                       const std::string& model_path,
                                       const core::SampleScorer* scorer) {
  serve::ShardEngineConfig ec;
  ec.dir = dir;
  ec.shards = 2;
  if (scorer != nullptr) {
    ec.runtime.scorer = scorer;
  } else {
    ec.runtime.model_path = model_path;
  }
  ec.runtime.features = features();
  ec.runtime.vote = hdd::core::preset("ct").vote;
  return ec;
}

std::vector<std::pair<std::size_t, serve::IngestBatch>> split_by_shard(
    const serve::ShardEngine& engine, const serve::IngestBatch& batch) {
  std::vector<std::pair<std::size_t, serve::IngestBatch>> out;
  std::vector<int> slot(engine.shard_count(), -1);
  for (std::size_t i = 0; i < batch.samples.size(); ++i) {
    const std::size_t k = engine.shard_of(batch.serials[i]);
    if (slot[k] < 0) {
      slot[k] = static_cast<int>(out.size());
      out.emplace_back(k, serve::IngestBatch{});
    }
    auto& sub = out[static_cast<std::size_t>(slot[k])].second;
    sub.serials.push_back(batch.serials[i]);
    sub.samples.push_back(batch.samples[i]);
  }
  return out;
}

void shift_hours(serve::IngestBatch& b, std::int64_t offset) {
  for (smart::Sample& s : b.samples) s.hour += offset;
}

LoopResult closed_loop(
    int port, const std::vector<std::vector<serve::IngestBatch>>& requests,
    std::int64_t shift, bool time_encode) {
  const std::size_t n_clients = requests.size();
  std::vector<LoopResult> per(n_clients);
  std::vector<std::thread> threads;
  std::atomic<bool> go{false};
  const auto body = [&](std::size_t c) {
    LoopResult& r = per[c];
    try {
      serve::Client client;
      client.connect("127.0.0.1", port);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      serve::IngestBatch shifted;
      for (const serve::IngestBatch& base : requests[c]) {
        // Copy only when the hours move: the copy is client think time
        // that competes with the daemon for the CPUs.
        if (shift != 0) {
          shifted = base;
          shift_hours(shifted, shift);
        }
        const serve::IngestBatch& batch = shift != 0 ? shifted : base;
        serve::IngestResponse ack;
        if (time_encode) {
          const auto t0 = Clock::now();
          const std::string framed =
              serve::frame_payload(serve::encode_ingest_request(batch));
          const auto t1 = Clock::now();
          const std::string resp = client.roundtrip(framed);
          const auto t2 = Clock::now();
          r.encode_ms.push_back(1e3 * seconds_between(t0, t1));
          r.rtt_ms.push_back(1e3 * seconds_between(t1, t2));
          // An error response leaves `ack` empty: counted as not accepted.
          const auto status = serve::decode_status(resp);
          const auto decoded = serve::decode_ingest_response(resp);
          if (status && *status == serve::Status::kOk && decoded) ack = *decoded;
        } else {
          const auto t0 = Clock::now();
          ack = client.ingest(batch);
          r.rtt_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
        }
        r.acks.push_back(ack);
        r.sent.push_back(batch.samples.size());
      }
      client.close();
    } catch (const std::exception&) {
      // The collector stops; its unsent requests count as failed.
    }
  };
  for (std::size_t c = 0; c < n_clients; ++c) threads.emplace_back(body, c);
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  LoopResult all;
  all.wall_s = seconds_between(t0, Clock::now());
  for (LoopResult& r : per) {
    all.rtt_ms.insert(all.rtt_ms.end(), r.rtt_ms.begin(), r.rtt_ms.end());
    all.encode_ms.insert(all.encode_ms.end(), r.encode_ms.begin(),
                         r.encode_ms.end());
    all.acks.insert(all.acks.end(), r.acks.begin(), r.acks.end());
    all.sent.insert(all.sent.end(), r.sent.begin(), r.sent.end());
  }
  return all;
}

void report_raw(Report& report, const std::vector<Epoch>& epochs,
                const std::vector<double>& setup_s,
                const std::string& work_unit) {
  const auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += (i > 0 ? ", " : "") + number(v[i]);
    }
    return out + "]";
  };
  std::string json = "{\"work_unit\": \"" + json_escape(work_unit) +
                     "\", \"peak_rss_mb\": " + number(peak_rss_mb()) +
                     ", \"setup_s\": " + list(setup_s) + ", \"epochs\": [";
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    json += (i > 0 ? ", " : "") + std::string("{\"work\": ") +
            number(epochs[i].work) + ", \"busy_s\": " +
            number(epochs[i].busy_s) +
            ", \"latency_ms\": " + list(epochs[i].latency_ms) + "}";
  }
  report.set_raw(json + "]}");
}

}  // namespace perfbench
