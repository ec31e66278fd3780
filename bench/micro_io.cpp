// Micro-benchmarks (google-benchmark): the io::Env seam.
//
// Every store write crosses the Env virtual interface (DESIGN.md §8). The
// Env holds no buffer: the telemetry store packs its frames into one
// buffer of its own and hands the file 64 KiB at a time. Each benchmark
// here hands the same 100 000 64-byte records over in those 64 KiB writes:
// raw write(2) (BM_DirectAppend), PosixEnv (BM_EnvAppend) and an
// empty-plan FaultEnv over it (BM_FaultEnvPassthroughAppend). The gap
// between the first two is the seam's cost per write; tools/bench.sh
// records all three in BENCH_obs.json.
#include <benchmark/benchmark.h>
#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "io/env.h"
#include "io/fault_env.h"

namespace {

using namespace hdd;
namespace fs = std::filesystem;

// The store's write unit.
constexpr std::size_t kWriteBytes = std::size_t{1} << 16;

// One store-frame-sized record (header + sample payload ≈ 64 bytes).
std::string bench_record() { return std::string(64, 'x'); }

// Packs n records into `buf` and calls write(buf) each time it reaches
// kWriteBytes, and once for the rest.
template <typename Write>
void write_records(std::size_t n, const std::string& rec, std::string& buf,
                   Write write) {
  buf.clear();
  for (std::size_t i = 0; i < n; ++i) {
    buf.append(rec);
    if (buf.size() >= kWriteBytes) {
      write(buf);
      buf.clear();
    }
  }
  if (!buf.empty()) write(buf);
}

// Baseline: the same writes straight to write(2).
void BM_DirectAppend(benchmark::State& state) {
  const auto path = fs::temp_directory_path() / "hdd_bench_io_direct.log";
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string rec = bench_record();
  std::string buf;
  for (auto _ : state) {
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
    write_records(n, rec, buf, [fd](const std::string& b) {
      for (std::size_t off = 0; off < b.size();) {
        const ssize_t w = ::write(fd, b.data() + off, b.size() - off);
        if (w <= 0) return;
        off += static_cast<std::size_t>(w);
      }
    });
    ::close(fd);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  fs::remove(path);
}
BENCHMARK(BM_DirectAppend)->Arg(100000)->Unit(benchmark::kMillisecond);

// The same writes through `env`'s File.
void env_append(benchmark::State& state, io::Env& env, const char* name) {
  const auto path = fs::temp_directory_path() / name;
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string rec = bench_record();
  std::string buf;
  for (auto _ : state) {
    std::unique_ptr<io::File> f;
    benchmark::DoNotOptimize(
        env.new_append_file(path.string(), /*truncate=*/true, f));
    write_records(n, rec, buf, [&f](const std::string& b) {
      benchmark::DoNotOptimize(f->append(b));
    });
    benchmark::DoNotOptimize(f->close());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  fs::remove(path);
}

// PosixEnv: one virtual call per write on top of write(2).
void BM_EnvAppend(benchmark::State& state) {
  env_append(state, io::Env::posix(), "hdd_bench_io_env.log");
}
BENCHMARK(BM_EnvAppend)->Arg(100000)->Unit(benchmark::kMillisecond);

// An empty-plan FaultEnv in the stack: what test builds pay for keeping
// the injection decorator compiled in (per-write RNG draws + atomics).
void BM_FaultEnvPassthroughAppend(benchmark::State& state) {
  obs::Registry* no_metrics = nullptr;
  io::FaultEnv env(io::Env::posix(), io::FaultPlan{}, no_metrics);
  env_append(state, env, "hdd_bench_io_fault.log");
}
BENCHMARK(BM_FaultEnvPassthroughAppend)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
