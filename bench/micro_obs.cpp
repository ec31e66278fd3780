// Micro-benchmarks (google-benchmark): the obs instrumentation hot paths.
// The acceptance bar for leaving instruments in the scoring and append
// loops (DESIGN.md §7): a disabled instrument costs a relaxed flag load
// (~<=2 ns), an enabled counter increment one extra thread-affine
// fetch_add (~<=20 ns). tools/bench.sh records these numbers in
// BENCH_obs.json.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <sstream>

#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace hdd;

void BM_CounterInc(benchmark::State& state) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("bench_total", "bench");
  for (auto _ : state) {
    c.inc();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterInc);

void BM_CounterIncDisabled(benchmark::State& state) {
  obs::Registry reg(/*enabled=*/false);
  obs::Counter& c = reg.counter("bench_total", "bench");
  for (auto _ : state) {
    c.inc();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterIncDisabled);

void BM_GaugeAdd(benchmark::State& state) {
  obs::Registry reg;
  obs::Gauge& g = reg.gauge("bench_depth", "bench");
  for (auto _ : state) {
    g.add(1.0);
  }
  benchmark::DoNotOptimize(g.value());
}
BENCHMARK(BM_GaugeAdd);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("bench_ns", "bench");
  double v = 1.0;
  for (auto _ : state) {
    h.record(v);
    v += 257.0;  // walk the buckets
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramRecordDisabled(benchmark::State& state) {
  obs::Registry reg(/*enabled=*/false);
  obs::Histogram& h = reg.histogram("bench_ns", "bench");
  for (auto _ : state) {
    h.record(1024.0);
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecordDisabled);

// A span timing into a histogram with tracing off: the ScopedSpan form of
// a scoped timer (two tick reads and one record), and its cost when the
// registry is disabled (two relaxed loads, no clock read).
void BM_SpanHistogram(benchmark::State& state) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("bench_ns", "bench");
  for (auto _ : state) {
    const obs::ScopedSpan span("bench_span", &h);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_SpanHistogram);

void BM_SpanHistogramDisabled(benchmark::State& state) {
  obs::Registry reg(/*enabled=*/false);
  obs::Histogram& h = reg.histogram("bench_ns", "bench");
  for (auto _ : state) {
    const obs::ScopedSpan span("bench_span", &h);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_SpanHistogramDisabled);

// Span-tracing hot paths (obs/trace.h). The acceptance bar for tracing
// the full request path (DESIGN.md §12): an enabled span costs two clock
// reads (BM_SpanTimestampFloor — pure hardware, ~14 ns on desktop cores,
// ~30 ns where rdtsc is slow) plus <= ~10 ns of ring bookkeeping, i.e.
// BM_SpanEnabled - BM_SpanTimestampFloor <= ~10 ns and BM_SpanEnabled
// itself <= ~25 ns wherever the clock pair stays under ~15 ns; a
// disabled span is one relaxed flag load, <= ~2 ns.
void BM_SpanTimestampFloor(benchmark::State& state) {
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sink += obs::trace_now_ticks();
    sink += obs::trace_now_ticks();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_SpanTimestampFloor);

void BM_SpanEnabled(benchmark::State& state) {
  obs::Tracer::global().set_enabled(true);
  for (auto _ : state) {
    const obs::ScopedSpan span("bench_span");
    benchmark::ClobberMemory();
  }
  obs::Tracer::global().set_enabled(false);
}
BENCHMARK(BM_SpanEnabled);

void BM_SpanEnabledArg(benchmark::State& state) {
  obs::Tracer::global().set_enabled(true);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const obs::ScopedSpan span("bench_span", "i", ++i);
    benchmark::ClobberMemory();
  }
  obs::Tracer::global().set_enabled(false);
}
BENCHMARK(BM_SpanEnabledArg);

void BM_SpanDisabled(benchmark::State& state) {
  obs::Tracer::global().set_enabled(false);
  for (auto _ : state) {
    const obs::ScopedSpan span("bench_span");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SpanDisabled);

// Snapshot + render cost for a realistically sized registry — the price of
// one --metrics-out dump at process exit.
void BM_SnapshotRender(benchmark::State& state) {
  obs::Registry reg;
  for (int i = 0; i < 32; ++i) {
    reg.counter("bench_c" + std::to_string(i) + "_total", "bench").inc(7);
    reg.histogram("bench_h" + std::to_string(i) + "_ns", "bench")
        .record(1 << (i % 20));
  }
  for (auto _ : state) {
    std::ostringstream os;
    obs::render_prometheus(reg.snapshot(), os);
    benchmark::DoNotOptimize(os.str());
  }
}
BENCHMARK(BM_SnapshotRender);

}  // namespace

BENCHMARK_MAIN();
