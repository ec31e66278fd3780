// Tests for src/common: RNG determinism and distributions, hashing, math
// helpers, tables, CSV, and the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/csv.h"
#include "common/log.h"
#include "common/error.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace hdd {
namespace {

TEST(Mix64, IsDeterministic) {
  EXPECT_EQ(mix64(12345), mix64(12345));
  EXPECT_NE(mix64(12345), mix64(12346));
}

TEST(Mix64, SpreadsSmallInputs) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) outputs.insert(mix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a() == b();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntIsUnbiasedish) {
  Rng rng(7);
  std::array<int, 10> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.uniform_int(10)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, 500);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(17);
  const auto p = rng.permutation(100);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(CounterRng, PureFunctionOfKey) {
  CounterRng a(5), b(5);
  EXPECT_EQ(a.bits(1, 2, 3), b.bits(1, 2, 3));
  EXPECT_DOUBLE_EQ(a.uniform(9, 8, 7), b.uniform(9, 8, 7));
  EXPECT_DOUBLE_EQ(a.normal(4, 4, 4), b.normal(4, 4, 4));
}

TEST(CounterRng, DifferentKeysDecorrelated) {
  CounterRng rng(5);
  double corr_sum = 0.0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    corr_sum += (rng.uniform(i, 0) - 0.5) * (rng.uniform(i, 1) - 0.5);
  }
  EXPECT_NEAR(corr_sum / 1000.0, 0.0, 0.01);
}

TEST(CounterRng, ChildStreamsIndependent) {
  CounterRng root(99);
  const auto a = root.child(1);
  const auto b = root.child(2);
  EXPECT_NE(a.seed(), b.seed());
  EXPECT_NE(a.bits(0), b.bits(0));
}

TEST(CounterRng, NormalMoments) {
  CounterRng rng(123);
  double sum = 0, sum2 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(static_cast<std::uint64_t>(i), 0);
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(MathUtil, MeanVarStddev) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(variance(xs), 2.5);
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(2.5));
}

TEST(MathUtil, EmptyAndDegenerate) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(variance({}), 0.0);
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(variance(one), 0.0);
}

TEST(MathUtil, Percentile) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
}

TEST(MathUtil, PercentileRejectsBadInput) {
  EXPECT_THROW(percentile({}, 50), ConfigError);
  const std::vector<double> xs{1.0};
  EXPECT_THROW(percentile(xs, 101), ConfigError);
}

TEST(MathUtil, Correlation) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{2, 4, 6, 8};
  EXPECT_NEAR(correlation(xs, ys), 1.0, 1e-12);
  const std::vector<double> zs{8, 6, 4, 2};
  EXPECT_NEAR(correlation(xs, zs), -1.0, 1e-12);
  const std::vector<double> c{5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(correlation(xs, c), 0.0);
}

TEST(MathUtil, NormalCdf) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(normal_cdf(-1.96), 0.025, 1e-3);
}

TEST(MathUtil, BinaryEntropy) {
  EXPECT_DOUBLE_EQ(binary_entropy(0.0), 0.0);
  EXPECT_DOUBLE_EQ(binary_entropy(1.0), 0.0);
  EXPECT_NEAR(binary_entropy(0.5), 1.0, 1e-12);
  EXPECT_GT(binary_entropy(0.5), binary_entropy(0.1));
}

TEST(MathUtil, LinspaceLogspace) {
  const auto xs = linspace(0.0, 1.0, 5);
  ASSERT_EQ(xs.size(), 5u);
  EXPECT_DOUBLE_EQ(xs[0], 0.0);
  EXPECT_DOUBLE_EQ(xs[4], 1.0);
  EXPECT_DOUBLE_EQ(xs[2], 0.5);
  const auto ys = logspace(1.0, 100.0, 3);
  EXPECT_NEAR(ys[1], 10.0, 1e-9);
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(1.5, 1);
  t.row().cell("b").cell(22.25, 2);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("22.25"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, RejectsWrongCellCount) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), ConfigError);
}

TEST(FormatDouble, HandlesSpecials) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(std::nan(""), 2), "nan");
  EXPECT_EQ(format_double(INFINITY, 2), "inf");
}

TEST(Csv, EscapesAndParsesRoundTrip) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"plain", "with,comma", "with\"quote", "multi\nline"});
  const auto rows = parse_csv(os.str());
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 4u);
  EXPECT_EQ(rows[0][0], "plain");
  EXPECT_EQ(rows[0][1], "with,comma");
  EXPECT_EQ(rows[0][2], "with\"quote");
  EXPECT_EQ(rows[0][3], "multi\nline");
}

TEST(Csv, ParsesCrlf) {
  const auto rows = parse_csv("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "d");
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 10,
                        [](std::size_t i) {
                          if (i == 5) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForStressWithThrowingTasks) {
  // Repeatedly fail a parallel_for from several workers at once. The pool
  // must drain every in-flight task before parallel_for's locals go out of
  // scope (no use-after-scope on the shared cursor) and must stay usable
  // for the next round.
  ThreadPool pool(4);
  for (int round = 0; round < 25; ++round) {
    bool threw = false;
    try {
      pool.parallel_for(0, 64, [round](std::size_t i) {
        if (i % 5 == static_cast<std::size_t>(round % 5)) {
          throw std::runtime_error("task failure");
        }
      });
    } catch (const std::runtime_error& e) {
      threw = true;
      EXPECT_STREQ(e.what(), "task failure");
    }
    EXPECT_TRUE(threw) << "round " << round;

    std::atomic<int> completed{0};
    pool.parallel_for(0, 128, [&](std::size_t) { completed++; });
    EXPECT_EQ(completed.load(), 128) << "round " << round;
  }
}

// Spins until `flag` is set or 10 s pass, so a broken pool fails the test
// instead of hanging it.
void wait_for_flag(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

TEST(ThreadPool, CallerIsOneLaneOfParallelFor) {
  ThreadPool pool(3);
  const auto caller = std::this_thread::get_id();
  // Every index runs once, and the caller takes a share: helpers hold
  // their first index until the caller has run one.
  std::vector<std::atomic<int>> hits(200);
  std::atomic<bool> caller_ran{false};
  pool.parallel_for(0, hits.size(), [&](std::size_t i) {
    if (std::this_thread::get_id() == caller) {
      caller_ran = true;
    } else {
      wait_for_flag(caller_ran);
    }
    hits[i]++;
  });
  EXPECT_TRUE(caller_ran.load());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  // A throw on the caller's lane reaches the caller...
  std::atomic<bool> threw{false};
  EXPECT_THROW(pool.parallel_for(0, 64,
                                 [&](std::size_t) {
                                   if (std::this_thread::get_id() == caller) {
                                     threw = true;
                                     throw std::runtime_error("caller");
                                   }
                                   wait_for_flag(threw);
                                 }),
               std::runtime_error);
  // ...and so does a throw on a helper, while the caller's lane waits.
  threw = false;
  try {
    pool.parallel_for(0, 64, [&](std::size_t) {
      if (std::this_thread::get_id() != caller) {
        threw = true;
        throw std::runtime_error("helper");
      }
      wait_for_flag(threw);
    });
    ADD_FAILURE() << "the helper's throw was lost";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "helper");
  }

  // The pool serves on, and a one-index range runs on the caller.
  std::atomic<int> completed{0};
  pool.parallel_for(0, 128, [&](std::size_t) { completed++; });
  EXPECT_EQ(completed.load(), 128);
  pool.parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(5, 5, [](std::size_t) { FAIL(); });
}

TEST(Log, LevelThresholdFilters) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold messages are dropped silently; above-threshold ones
  // are emitted — both must be safe to call from any thread.
  log_debug() << "dropped";
  log_error() << "emitted";
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(log_level(), LogLevel::kWarn);
  set_log_level(original);
}

TEST(Error, AssertThrowsLogicError) {
  EXPECT_THROW(HDD_ASSERT(1 == 2), std::logic_error);
  EXPECT_NO_THROW(HDD_ASSERT(1 == 1));
}

}  // namespace
}  // namespace hdd
