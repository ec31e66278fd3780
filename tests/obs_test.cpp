// Tests for src/obs: the documented histogram bucket contract, exact
// aggregation under concurrency, Prometheus/JSON exposition (including the
// label-escaping round trip), registry identity rules, and the
// instrumentation wired into ThreadPool, FleetScorer and TelemetryStore.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"
#include "core/fleet.h"
#include "core/scorer.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/telemetry_store.h"

namespace hdd::obs {
namespace {

namespace fs = std::filesystem;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// --- Histogram bucket contract ----------------------------------------------

TEST(HistogramBuckets, LowEdgeValuesLandInBucketZero) {
  EXPECT_EQ(Histogram::bucket_of(0.0), 0);
  EXPECT_EQ(Histogram::bucket_of(-1.0), 0);
  EXPECT_EQ(Histogram::bucket_of(-kInf), 0);
  EXPECT_EQ(Histogram::bucket_of(kNan), 0);
  EXPECT_EQ(Histogram::bucket_of(0.5), 0);
  EXPECT_EQ(Histogram::bucket_of(1.0), 0);
}

TEST(HistogramBuckets, ExactPowersOfTwoLandInTheirOwnBucket) {
  // The documented rule: bucket b holds (2^(b-1), 2^b], so 2^k is the
  // inclusive top of bucket k.
  for (int k = 1; k <= 46; ++k) {
    EXPECT_EQ(Histogram::bucket_of(std::ldexp(1.0, k)), k) << "k=" << k;
  }
}

TEST(HistogramBuckets, ValuesJustPastAPowerSpillToTheNextBucket) {
  EXPECT_EQ(Histogram::bucket_of(1.001), 1);
  EXPECT_EQ(Histogram::bucket_of(2.001), 2);
  EXPECT_EQ(Histogram::bucket_of(1024.5), 11);
  EXPECT_EQ(Histogram::bucket_of(3.0), 2);
  EXPECT_EQ(Histogram::bucket_of(1000.0), 10);  // <= 1024
}

TEST(HistogramBuckets, OverflowAndInfinityLandInTheLastBucket) {
  const int last = Histogram::kBuckets - 1;
  EXPECT_EQ(Histogram::bucket_of(kInf), last);
  EXPECT_EQ(Histogram::bucket_of(std::ldexp(1.0, 46) * 1.5), last);
  EXPECT_EQ(Histogram::bucket_of(std::ldexp(1.0, 60)), last);
  // The top finite bound itself still fits in bucket 46.
  EXPECT_EQ(Histogram::bucket_of(std::ldexp(1.0, 46)), 46);
}

TEST(HistogramBuckets, BoundsMatchBucketOf) {
  for (int b = 0; b + 1 < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_le(b)), b);
  }
  EXPECT_EQ(Histogram::bucket_le(Histogram::kBuckets - 1), kInf);
}

TEST(Histogram, SumSkipsNonFiniteObservationsButCountsThem) {
  Registry reg;
  Histogram& h = reg.histogram("h_ns", "test");
  h.record(4.0);
  h.record(kInf);
  h.record(kNan);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 4.0);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(Histogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.bucket_count(0), 1u);  // NaN
}

// --- Exact aggregation under concurrency ------------------------------------

TEST(Concurrency, CounterIncrementsFromManyThreadsSumExactly) {
  Registry reg;
  Counter& c = reg.counter("c_total", "test");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Concurrency, HistogramRecordsAndGaugeDeltasNeverLoseUpdates) {
  Registry reg;
  Histogram& h = reg.histogram("h_ns", "test");
  Gauge& g = reg.gauge("g", "test");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &g] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(static_cast<double>(i % 128));
        g.add(1.0);
        g.sub(1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

// --- Registry identity and validation ---------------------------------------

TEST(Registry, SameNameAndLabelsReturnTheSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("x_total", "test", {{"k", "v"}});
  Counter& b = reg.counter("x_total", "test", {{"k", "v"}});
  Counter& other = reg.counter("x_total", "test", {{"k", "w"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, ReRegisteringADifferentTypeThrows) {
  Registry reg;
  reg.counter("x_total", "test");
  EXPECT_THROW(reg.gauge("x_total", "test"), ConfigError);
  EXPECT_THROW(reg.histogram("x_total", "test"), ConfigError);
}

TEST(Registry, InvalidNamesAreRejected) {
  Registry reg;
  EXPECT_THROW(reg.counter("9starts_with_digit", "test"), ConfigError);
  EXPECT_THROW(reg.counter("has space", "test"), ConfigError);
  EXPECT_THROW(reg.counter("", "test"), ConfigError);
  EXPECT_THROW(reg.counter("ok_total", "test", {{"bad-key", "v"}}),
               ConfigError);
  EXPECT_NO_THROW(reg.counter("ok:total_2", "test", {{"good_key", "any ä"}}));
}

TEST(Registry, DisabledRegistryDropsEveryObservation) {
  Registry reg(/*enabled=*/false);
  Counter& c = reg.counter("c_total", "test");
  Gauge& g = reg.gauge("g", "test");
  Histogram& h = reg.histogram("h_ns", "test");
  c.inc(100);
  g.set(5.0);
  g.add(2.0);
  h.record(8.0);
  {
    const ScopedSpan span("obs_test_disabled", &h);
  }
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);

  reg.set_enabled(true);
  c.inc();
  {
    const ScopedSpan span("obs_test_disabled", &h);
  }
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Registry, ScopedSpanToleratesNullHistogram) {
  const ScopedSpan span("obs_test_null", static_cast<Histogram*>(nullptr));
}

// --- Exposition --------------------------------------------------------------

std::string render_text(const Registry& reg) {
  std::ostringstream os;
  render_prometheus(reg.snapshot(), os);
  return os.str();
}

TEST(Exposition, LabelEscapingRoundTrips) {
  const std::string raw = "a\\b\"c\nd";
  EXPECT_EQ(escape_label_value(raw), "a\\\\b\\\"c\\nd");

  Registry reg;
  reg.counter("esc_total", "test", {{"path", raw}}).inc(3);
  const std::string text = render_text(reg);
  const std::string line = "esc_total{path=\"a\\\\b\\\"c\\nd\"} 3\n";
  ASSERT_NE(text.find(line), std::string::npos) << text;

  // Round trip: applying the documented unescape rules to the rendered
  // value recovers the original label byte-for-byte.
  const std::size_t open = text.find("path=\"") + 6;
  const std::size_t close = text.find("\"}", open);
  const std::string escaped = text.substr(open, close - open);
  std::string back;
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '\\' && i + 1 < escaped.size()) {
      const char n = escaped[++i];
      back += n == 'n' ? '\n' : n;
    } else {
      back += escaped[i];
    }
  }
  EXPECT_EQ(back, raw);
}

TEST(Exposition, PrometheusRendersHelpTypeAndCumulativeBuckets) {
  Registry reg;
  reg.counter("req_total", "Requests.").inc(7);
  Histogram& h = reg.histogram("lat_ns", "Latency.");
  h.record(3.0);   // bucket 2 (le=4)
  h.record(4.0);   // bucket 2
  h.record(9.0);   // bucket 4 (le=16)
  const std::string text = render_text(reg);
  EXPECT_NE(text.find("# HELP req_total Requests.\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE req_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("req_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_ns histogram\n"), std::string::npos);
  // Cumulative: le="4" has 2, le="8" still 2, le="16" all 3, +Inf 3.
  EXPECT_NE(text.find("lat_ns_bucket{le=\"4\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{le=\"8\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{le=\"16\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_sum 16\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_count 3\n"), std::string::npos);
}

TEST(Exposition, JsonIsOneObjectPerLineWithStableKeys) {
  Registry reg;
  reg.counter("a_total", "A \"quoted\" help.").inc(2);
  reg.gauge("b", "B.").set(1.5);
  std::ostringstream os;
  render_json(reg.snapshot(), os);
  const std::string text = os.str();
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("\"name\": \"a_total\""), std::string::npos);
  EXPECT_NE(text.find("\"type\": \"counter\""), std::string::npos);
  EXPECT_NE(text.find("\"value\": 2"), std::string::npos);
  EXPECT_NE(text.find("A \\\"quoted\\\" help."), std::string::npos);
  EXPECT_NE(text.find("\"value\": 1.5"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(Exposition, WriteSnapshotReportsFailure) {
  Registry reg;
  reg.counter("c_total", "test");
  EXPECT_FALSE(write_snapshot(reg.snapshot(),
                              "/nonexistent-dir/metrics.txt",
                              Format::kPrometheus));
  const auto path =
      (fs::temp_directory_path() / "hdd_obs_test_snapshot.txt").string();
  EXPECT_TRUE(write_snapshot(reg.snapshot(), path, Format::kPrometheus));
  fs::remove(path);
}

TEST(Exposition, ParseFormatAcceptsAliases) {
  EXPECT_EQ(parse_format("text"), Format::kPrometheus);
  EXPECT_EQ(parse_format("prometheus"), Format::kPrometheus);
  EXPECT_EQ(parse_format("json"), Format::kJson);
  EXPECT_FALSE(parse_format("yaml").has_value());
}

// --- Wired subsystems --------------------------------------------------------

TEST(Instrumentation, ThreadPoolReportsTasksAndQueueDepth) {
  Registry reg;
  {
    ThreadPool pool(2, &reg);
    std::vector<std::future<void>> fs;
    for (int i = 0; i < 16; ++i) fs.push_back(pool.submit([] {}));
    for (auto& f : fs) f.get();
  }
  EXPECT_EQ(reg.counter("hdd_pool_tasks_total", "").value(), 16u);
  EXPECT_DOUBLE_EQ(reg.gauge("hdd_pool_queue_depth", "").value(), 0.0);
  EXPECT_EQ(reg.histogram("hdd_pool_task_latency_ns", "").count(), 16u);
}

// Fixed-score model: every sample votes "failing".
class FailingScorer final : public core::SampleScorer {
 public:
  double predict(std::span<const float>) const override { return -1.0; }
  void predict_batch(std::span<const float>,
                     std::span<double> out) const override {
    for (auto& o : out) o = -1.0;
  }
  int num_features() const override { return 1; }
  std::string summary() const override { return "failing"; }
};

TEST(Instrumentation, FleetScorerCountsSamplesAlarmsAndTransitions) {
  Registry reg;
  const FailingScorer scorer;
  core::FleetScorerConfig cfg;
  cfg.features = {"t1", {{smart::Attr::kRawReadErrorRate, 0}}};
  cfg.vote.voters = 3;
  cfg.metrics = &reg;
  core::FleetScorer fleet(scorer, cfg);
  fleet.add_drive("d0");
  fleet.add_drive("d1");
  const std::vector<float> row(2, 0.0f);
  for (int h = 0; h < 3; ++h) {
    fleet.observe_interval(row, h);
  }
  EXPECT_EQ(fleet.alarm_count(), 2u);
  EXPECT_EQ(reg.counter("hdd_fleet_samples_scored_total", "").value(), 6u);
  EXPECT_EQ(reg.counter("hdd_fleet_alarms_total", "").value(), 2u);
  // Every output is failing: no healthy<->failing flips.
  EXPECT_EQ(reg.counter("hdd_fleet_vote_transitions_total", "").value(), 0u);
  EXPECT_EQ(reg.histogram("hdd_fleet_batch_latency_ns", "").count(), 3u);
}

TEST(Instrumentation, StoreCountsAppendsBytesAndFsyncs) {
  Registry reg;
  const auto dir =
      (fs::temp_directory_path() / "hdd_obs_test_store").string();
  fs::remove_all(dir);
  store::StoreOptions opt;
  opt.metrics = &reg;
  {
    store::TelemetryStore store(dir, opt);
    const std::uint32_t id = store.register_drive("drv");
    smart::Sample s;
    s.hour = 1;
    store.append(id, s);
    s.hour = 2;
    store.append(id, s);
    store.flush();
  }
  // 3 records framed: 1 registration + 2 samples.
  EXPECT_EQ(reg.counter("hdd_store_appends_total", "").value(), 3u);
  EXPECT_GT(reg.counter("hdd_store_bytes_written_total", "").value(), 0u);
  EXPECT_EQ(reg.counter("hdd_store_fsyncs_total", "").value(), 1u);
  const std::string rec = "hdd_store_recovery_outcomes_total";
  EXPECT_EQ(reg.counter(rec, "", {{"outcome", "torn_tail"}}).value(), 0u);

  // Tear the tail: reopening must count exactly one torn-tail truncation.
  std::string seg;
  for (const auto& e : fs::directory_iterator(dir)) seg = e.path().string();
  fs::resize_file(seg, fs::file_size(seg) - 3);
  Registry reg2;
  store::StoreOptions opt2;
  opt2.metrics = &reg2;
  store::TelemetryStore reopened(dir, opt2);
  EXPECT_EQ(reopened.sample_count(), 1u);
  EXPECT_EQ(reg2.counter(rec, "", {{"outcome", "torn_tail"}}).value(), 1u);
  EXPECT_EQ(reg2.counter(rec, "", {{"outcome", "crc_drop"}}).value(), 0u);
  EXPECT_EQ(reg2.counter(rec, "", {{"outcome", "header_skip"}}).value(), 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hdd::obs
