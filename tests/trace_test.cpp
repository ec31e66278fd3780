// Span-tracing tests (ctest label: obs; TSan-clean by requirement).
//
// Covers the lock-free per-thread rings (wraparound retention, torn-slot
// discipline under 8 concurrent writers racing a snapshotting reader),
// span context propagation (nesting, WithTraceContext across threads,
// current_trace_id), the disabled path, the slow-span tail-sampling ring,
// Chrome trace_event JSON rendering (validated with a strict JSON
// checker) and the async-signal-safe flight-recorder dump. The global
// tracer state persists across tests in this binary, so every test tags
// its spans with a unique name literal and filters the snapshot by it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "json_lite.h"
#include "obs/trace.h"

namespace hdd::obs {
namespace {

namespace fs = std::filesystem;

// Spans from the merged snapshot carrying a given name literal.
std::vector<SpanView> named(const std::vector<SpanView>& all,
                            std::string_view name) {
  std::vector<SpanView> out;
  for (const SpanView& s : all) {
    if (s.name != nullptr && name == s.name) out.push_back(s);
  }
  return out;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { Tracer::global().set_enabled(true); }
  void TearDown() override {
    Tracer::global().set_enabled(false);
    Tracer::global().set_slow_threshold_ns(0);  // slow log back off
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  Tracer::global().set_enabled(false);
  {
    const ScopedSpan span("trace_test_disabled");
    record_child_span("trace_test_disabled", trace_now_ticks(),
                      trace_now_ticks());
  }
  const auto spans =
      named(Tracer::global().snapshot(0), "trace_test_disabled");
  EXPECT_TRUE(spans.empty());
}

TEST_F(TraceTest, SpanCarriesIdsNameAndArg) {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  {
    const ScopedSpan span("trace_test_basic", "answer", 42);
    ASSERT_TRUE(span.active());
    trace_id = span.trace_id();
    span_id = span.span_id();
    EXPECT_NE(trace_id, 0u);
    EXPECT_NE(span_id, 0u);
    EXPECT_EQ(current_trace_id(), trace_id);
  }
  EXPECT_EQ(current_trace_id(), 0u);  // context restored

  const auto spans = named(Tracer::global().snapshot(0), "trace_test_basic");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].trace_id, trace_id);
  EXPECT_EQ(spans[0].span_id, span_id);
  EXPECT_EQ(spans[0].parent_id, 0u);  // a root
  ASSERT_NE(spans[0].arg_name, nullptr);
  EXPECT_EQ(std::string_view(spans[0].arg_name), "answer");
  EXPECT_EQ(spans[0].arg, 42u);
}

TEST_F(TraceTest, NestedSpansShareTraceAndChainParents) {
  std::uint64_t outer_span = 0;
  std::uint64_t outer_trace = 0;
  {
    const ScopedSpan outer("trace_test_parent");
    outer_span = outer.span_id();
    outer_trace = outer.trace_id();
    const ScopedSpan inner("trace_test_child");
    EXPECT_EQ(inner.trace_id(), outer_trace);
    record_child_span("trace_test_interval", trace_now_ticks(),
                      trace_now_ticks(), "k", 7);
  }
  const auto all = Tracer::global().snapshot(0);
  const auto children = named(all, "trace_test_child");
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0].trace_id, outer_trace);
  EXPECT_EQ(children[0].parent_id, outer_span);
  // The explicit-interval child hangs off whatever span was current.
  const auto intervals = named(all, "trace_test_interval");
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_EQ(intervals[0].trace_id, outer_trace);
  EXPECT_NE(intervals[0].parent_id, 0u);
}

TEST_F(TraceTest, WithTraceContextCarriesTraceAcrossThreads) {
  std::uint64_t root_trace = 0;
  std::uint64_t root_span = 0;
  {
    const ScopedSpan root("trace_test_xroot");
    root_trace = root.trace_id();
    root_span = root.span_id();
    const TraceContext ctx = current_trace_context();
    std::thread worker([ctx] {
      EXPECT_EQ(current_trace_id(), 0u);  // fresh thread, no context
      const WithTraceContext adopt(ctx);
      const ScopedSpan span("trace_test_xworker");
      EXPECT_EQ(span.trace_id(), ctx.trace_id);
    });
    worker.join();
  }
  const auto spans =
      named(Tracer::global().snapshot(0), "trace_test_xworker");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].trace_id, root_trace);
  EXPECT_EQ(spans[0].parent_id, root_span);
}

TEST_F(TraceTest, RingWrapKeepsNewestSpans) {
  constexpr std::uint64_t kSpans = trace_detail::kRingSlots + 904;
  for (std::uint64_t i = 0; i < kSpans; ++i) {
    const ScopedSpan span("trace_test_wrap", "i", i);
  }
  const auto spans = named(Tracer::global().snapshot(0), "trace_test_wrap");
  EXPECT_LE(spans.size(), trace_detail::kRingSlots);
  EXPECT_GT(spans.size(), trace_detail::kRingSlots / 2);  // mostly retained
  std::uint64_t min_arg = ~0ull;
  std::uint64_t max_arg = 0;
  for (const SpanView& s : spans) {
    min_arg = std::min(min_arg, s.arg);
    max_arg = std::max(max_arg, s.arg);
  }
  EXPECT_EQ(max_arg, kSpans - 1);  // the newest span survived the wrap
  EXPECT_GT(min_arg, 0u);         // the oldest did not
}

TEST_F(TraceTest, ConcurrentWritersAndSnapshotsAreClean) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 2000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const ScopedSpan outer("trace_test_mt", "i", i);
        const ScopedSpan inner("trace_test_mt_inner");
      }
    });
  }
  // Snapshot continuously while the writers race: the reader must never
  // see a torn slot as anything but an absent span.
  for (int round = 0; round < 50; ++round) {
    const auto spans = Tracer::global().snapshot(0);
    for (const SpanView& s : named(spans, "trace_test_mt")) {
      EXPECT_NE(s.span_id, 0u);
      EXPECT_LT(s.arg, kPerThread);
    }
  }
  for (std::thread& w : writers) w.join();

  const auto spans = named(Tracer::global().snapshot(0), "trace_test_mt");
  std::set<std::uint32_t> tids;
  for (const SpanView& s : spans) tids.insert(s.tid);
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  // kPerThread < kRingSlots / 2, so every outer+inner pair fit their ring.
  EXPECT_EQ(spans.size(), static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST_F(TraceTest, SlowRingRetainsSlowSpansAcrossWrap) {
  Tracer::global().set_slow_threshold_ns(1'000'000);  // 1 ms
  // A synthetic monster span: far over any plausible 1 ms in ticks.
  const std::uint64_t t0 = trace_now_ticks();
  const std::uint64_t id = new_trace_id();
  record_span("trace_test_slow", id, id, 0, t0, t0 + (1ull << 40));
  // Lap the thread ring so the only surviving copy is the slow ring's.
  for (std::uint64_t i = 0; i < trace_detail::kRingSlots + 32; ++i) {
    const ScopedSpan filler("trace_test_slow_filler");
  }
  const auto spans = named(Tracer::global().snapshot(0), "trace_test_slow");
  ASSERT_FALSE(spans.empty());
  bool from_slow_ring = false;
  for (const SpanView& s : spans) from_slow_ring |= s.slow;
  EXPECT_TRUE(from_slow_ring);
}

TEST_F(TraceTest, ChromeJsonIsWellFormed) {
  {
    const ScopedSpan span("trace_test_json", "bytes", 123);
  }
  const std::string json = Tracer::global().render_chrome_json(0);
  EXPECT_TRUE(testjson::json_valid(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_test_json\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":123"), std::string::npos);
}

TEST_F(TraceTest, WindowFilterDropsOldSpans) {
  {
    const ScopedSpan span("trace_test_window");
  }
  // A 1 ms window queried well after the span ended excludes it; the
  // full window includes it.
  EXPECT_FALSE(named(Tracer::global().snapshot(0), "trace_test_window")
                   .empty());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(named(Tracer::global().snapshot(1), "trace_test_window")
                  .empty());
}

TEST_F(TraceTest, FlightDumpWritesValidChromeJson) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("hdd_trace_flight_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    const ScopedSpan span("trace_test_flight", "n", 5);
  }
  Tracer::global().set_flight_dir(dir.string());
  dump_flight_recorder("unit-test");
  Tracer::global().set_flight_dir("");

  const fs::path file = dir / ("flight-" + std::to_string(::getpid()) +
                               ".json");
  ASSERT_TRUE(fs::exists(file));
  std::ifstream is(file);
  std::stringstream buf;
  buf << is.rdbuf();
  const std::string json = buf.str();
  EXPECT_TRUE(testjson::json_valid(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"flightReason\":\"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_test_flight\""), std::string::npos);
  fs::remove_all(dir);
}

// The trace_event object text between `{"name":"<name>"` and its closing
// "}}" (first occurrence), or "" when absent.
std::string event_text(const std::string& json, const std::string& name) {
  const std::size_t at = json.find("{\"name\":\"" + name + "\"");
  if (at == std::string::npos) return "";
  const std::size_t end = json.find("}}", at);
  return end == std::string::npos ? "" : json.substr(at, end + 2 - at);
}

TEST_F(TraceTest, FlightDumpAndDebugTraceRenderOneEventAlike) {
  Tracer::global().set_slow_threshold_ns(1'000'000);  // 1 ms
  const std::uint64_t t0 = trace_now_ticks();
  const std::uint64_t id = new_trace_id();
  record_span("trace_test_alike_slow", id, id, 0, t0, t0 + (1ull << 40));
  // Lap the thread ring: only the slow ring's copy (with "slow":1) stays.
  for (std::uint64_t i = 0; i < trace_detail::kRingSlots + 32; ++i) {
    const ScopedSpan filler("trace_test_alike_filler");
  }
  {
    const ScopedSpan span("trace_test_alike_arg", "n", 7);
  }

  const fs::path dir =
      fs::temp_directory_path() /
      ("hdd_trace_alike_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  Tracer::global().set_flight_dir(dir.string());
  dump_flight_recorder("unit-test");
  Tracer::global().set_flight_dir("");
  std::ifstream is(dir / ("flight-" + std::to_string(::getpid()) + ".json"));
  std::stringstream buf;
  buf << is.rdbuf();
  const std::string flight = buf.str();
  fs::remove_all(dir);
  const std::string chrome = Tracer::global().render_chrome_json(0);

  for (const std::string name :
       {"trace_test_alike_slow", "trace_test_alike_arg"}) {
    const std::string event = event_text(chrome, name);
    ASSERT_FALSE(event.empty()) << name;
    EXPECT_EQ(event_text(flight, name), event);
  }
  EXPECT_NE(event_text(chrome, "trace_test_alike_slow").find("\"slow\":1"),
            std::string::npos);
  EXPECT_NE(event_text(chrome, "trace_test_alike_arg").find("\"n\":7"),
            std::string::npos);
}

// Writers lapping one another on the shared slow ring while a reader
// snapshots: every returned span must be one write's fields, never a mix
// of two. Each write carries one value in every id and in its arg.
TEST_F(TraceTest, SnapshotNeverReturnsTornSpans) {
  Tracer::global().set_slow_threshold_ns(1);  // every span is slow
  constexpr int kWriters = 6;
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([t, &stop, &started] {
      for (std::uint64_t i = 1; !stop.load(std::memory_order_relaxed); ++i) {
        const std::uint64_t v = static_cast<std::uint64_t>(t + 1) << 40 | i;
        const std::uint64_t start = trace_now_ticks();
        record_span("trace_test_torn", v, v, v, start, start + 1000, "v", v);
        if (i == 1) started.fetch_add(1);
      }
    });
  }
  // Snapshot only once every writer is racing.
  while (started.load() < kWriters) std::this_thread::yield();
  std::size_t seen = 0;
  std::size_t torn = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  for (int round = 0;
       round < 400 && std::chrono::steady_clock::now() < deadline; ++round) {
    for (const SpanView& s :
         named(Tracer::global().snapshot(0), "trace_test_torn")) {
      ++seen;
      if (s.trace_id != s.span_id || s.parent_id != s.span_id ||
          s.arg != s.span_id) {
        ++torn;
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : writers) w.join();
  EXPECT_GT(seen, 0u);
  EXPECT_EQ(torn, 0u) << "of " << seen << " spans";
}

TEST_F(TraceTest, FlightDumpWithoutDirIsANoOp) {
  Tracer::global().set_flight_dir("");
  dump_flight_recorder("nowhere");  // must not crash or write anywhere
}

}  // namespace
}  // namespace hdd::obs
