// Micro-benchmarks (google-benchmark): the serve ingest path.
//
// Nested scopes of the daemon's hot loop, each reporting
// items_per_second in samples:
//
//  * BM_WireEncode         — encode + frame one batch (the client side).
//  * BM_WireDecode         — reassemble + decode the same batch (the
//                            server side).
//  * BM_Crc32/<bytes>      — the frame checksum alone: a 61-byte journal
//                            sample frame (table loop), 64 KiB, and a
//                            384 KiB ingest request (carry-less fold where
//                            the CPU has it); bytes_per_second.
//  * BM_EngineIngest       — ShardEngine::ingest (journal + score), no
//                            sockets.
//  * BM_ServeLoopbackIngest — the whole daemon: Client over TCP loopback
//                            through the acceptor, shard worker, journal
//                            and scorer. The acceptance bar (DESIGN.md §9)
//                            is >= 1M sustained samples/s on one core;
//                            tools/bench.sh records the numbers in
//                            BENCH_obs.json.
//
// Hours advance monotonically across iterations so every sample is fresh:
// re-sent hours would be dropped by the stale rule before the journal and
// the scorer, which would measure the skip path, not sustained ingest.
// The scorer returns a constant healthy margin so no drive ever alarms
// (alarmed drives stop scoring, which would also flatter the numbers).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/scorer.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/shard_engine.h"
#include "serve/wire.h"
#include "smart/drive.h"
#include "store/format.h"

namespace {

using namespace hdd;
namespace fs = std::filesystem;

constexpr std::uint32_t kDrives = 64;
constexpr std::int64_t kHoursPerBatch = 256;  // 16384 samples per request

class HealthyScorer final : public core::SampleScorer {
 public:
  double predict(std::span<const float>) const override { return 0.5; }
  void predict_batch(std::span<const float> xs,
                     std::span<double> out) const override {
    for (auto& o : out) o = 0.5;
    benchmark::DoNotOptimize(xs.data());
  }
  int num_features() const override { return 2; }
  std::string summary() const override { return "healthy"; }
};

smart::FeatureSet two_features() {
  return {"t2",
          {{smart::Attr::kRawReadErrorRate, 0},
           {smart::Attr::kTemperatureCelsius, 6}}};
}

// Drive-major batch (consecutive same-serial entries become one drive run
// of the shard's single ingest_runs call). Hours are offsets; advance()
// shifts the whole batch forward so the next iteration's samples are all
// fresh.
serve::IngestBatch make_batch() {
  serve::IngestBatch b;
  b.serials.reserve(kDrives * kHoursPerBatch);
  b.samples.reserve(kDrives * kHoursPerBatch);
  for (std::uint32_t d = 0; d < kDrives; ++d) {
    const std::string serial = "bench-" + std::to_string(d);
    for (std::int64_t h = 0; h < kHoursPerBatch; ++h) {
      b.serials.push_back(serial);
      smart::Sample s;
      s.hour = h;
      s.set(smart::Attr::kRawReadErrorRate, 0.1f * static_cast<float>(d % 7));
      s.set(smart::Attr::kTemperatureCelsius, 0.5f);
      b.samples.push_back(s);
    }
  }
  return b;
}

void advance(serve::IngestBatch& b) {
  for (auto& s : b.samples) s.hour += kHoursPerBatch;
}

serve::ShardEngineConfig engine_config(const fs::path& dir,
                                       const core::SampleScorer* scorer,
                                       obs::Registry* reg) {
  serve::ShardEngineConfig ec;
  ec.dir = dir.string();
  ec.shards = 1;
  ec.runtime.scorer = scorer;
  ec.runtime.features = two_features();
  ec.runtime.vote.voters = 11;
  ec.runtime.metrics = reg;
  ec.runtime.store.metrics = reg;
  return ec;
}

void BM_WireEncode(benchmark::State& state) {
  const auto batch = make_batch();
  for (auto _ : state) {
    const std::string framed =
        serve::frame_payload(serve::encode_ingest_request(batch));
    benchmark::DoNotOptimize(framed.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.samples.size()));
}
BENCHMARK(BM_WireEncode)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_WireDecode(benchmark::State& state) {
  const auto batch = make_batch();
  const std::string framed =
      serve::frame_payload(serve::encode_ingest_request(batch));
  for (auto _ : state) {
    serve::FrameParser parser;
    parser.feed(framed);
    std::string payload;
    if (parser.next(payload) != serve::FrameParser::Result::kFrame) {
      state.SkipWithError("frame did not parse");
    }
    const auto req = serve::decode_request(payload);
    benchmark::DoNotOptimize(req->ingest.samples.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.samples.size()));
}
BENCHMARK(BM_WireDecode)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Crc32(benchmark::State& state) {
  std::string buf(static_cast<std::size_t>(state.range(0)), '\0');
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<char>(i * 131u + 7u);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store::crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(61)->Arg(65536)->Arg(393216);

void BM_EngineIngest(benchmark::State& state) {
  const auto dir = fs::temp_directory_path() / "hdd_bench_serve_engine";
  fs::remove_all(dir);
  const HealthyScorer scorer;
  obs::Registry reg;
  serve::ShardEngine engine(engine_config(dir, &scorer, &reg));
  auto batch = make_batch();
  for (auto _ : state) {
    const auto r = engine.ingest(0, batch);
    if (r.accepted != batch.samples.size()) {
      state.SkipWithError("samples were not accepted");
    }
    state.PauseTiming();
    advance(batch);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.samples.size()));
  fs::remove_all(dir);
}
BENCHMARK(BM_EngineIngest)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ServeLoopbackIngest(benchmark::State& state) {
  const auto dir = fs::temp_directory_path() / "hdd_bench_serve_loop";
  fs::remove_all(dir);
  const HealthyScorer scorer;
  obs::Registry reg;
  serve::ShardEngine engine(engine_config(dir, &scorer, &reg));
  serve::ServeOptions so;
  so.metrics = &reg;
  serve::Server server(engine, so);
  server.start();
  serve::Client client;
  client.connect("127.0.0.1", server.port());
  auto batch = make_batch();
  for (auto _ : state) {
    const auto r = client.ingest(batch);
    if (r.accepted != batch.samples.size()) {
      state.SkipWithError("samples were not accepted");
    }
    state.PauseTiming();
    advance(batch);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.samples.size()));
  client.close();
  server.stop();
  fs::remove_all(dir);
}
BENCHMARK(BM_ServeLoopbackIngest)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
