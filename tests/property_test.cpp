// Cross-cutting property tests: each checks an implementation against an
// independent reference — a brute-force re-implementation, an algebraic
// identity, or a Monte Carlo estimate.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ann/mlp.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/fleet.h"
#include "eval/detection.h"
#include "forest/adaboost.h"
#include "forest/random_forest.h"
#include "obs/metrics.h"
#include "reliability/markov.h"
#include "reliability/raid.h"
#include "stats/nonparametric.h"
#include "tree/tree.h"

namespace hdd {
namespace {

// --- Voting detector vs a brute-force reference ----------------------------

// Reference implementation: for every time point, recount the window from
// scratch (the production code maintains a sliding window incrementally).
eval::DriveOutcome vote_reference(const eval::DriveScores& s,
                                  const eval::VoteConfig& cfg) {
  eval::DriveOutcome out;
  const std::size_t n = s.outputs.size();
  const auto want = static_cast<std::size_t>(cfg.voters);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t w = std::min(i + 1, want);
    if (w < want && i + 1 < n) continue;
    std::size_t bad = 0;
    double sum = 0.0;
    for (std::size_t j = i + 1 - w; j <= i; ++j) {
      if (s.outputs[j] < 0.0f) ++bad;
      sum += s.outputs[j];
    }
    const bool alarm = cfg.average_mode
                           ? sum / static_cast<double>(w) < cfg.threshold
                           : 2 * bad > w;
    if (alarm) {
      out.alarmed = true;
      out.alarm_hour = s.hours[i];
      return out;
    }
  }
  return out;
}

class VotingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VotingProperty, MatchesBruteForceOnRandomSequences) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    eval::DriveScores s;
    const auto len = rng.uniform_int(40);
    for (std::size_t i = 0; i < len; ++i) {
      s.outputs.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)));
      s.hours.push_back(static_cast<std::int64_t>(i * 2));
    }
    eval::VoteConfig cfg;
    cfg.voters = 1 + static_cast<int>(rng.uniform_int(15));
    cfg.average_mode = rng.chance(0.5);
    cfg.threshold = rng.uniform(-0.5, 0.5);

    const auto fast = eval::vote_drive(s, cfg);
    const auto slow = vote_reference(s, cfg);
    ASSERT_EQ(fast.alarmed, slow.alarmed)
        << "trial " << trial << " len " << len << " N " << cfg.voters;
    if (fast.alarmed) {
      ASSERT_EQ(fast.alarm_hour, slow.alarm_hour) << "trial " << trial;
    }

    // The window driven directly: push every output (pushes after the
    // alarm are no-ops), then close a short record. push/finish return
    // true exactly once, at the alarm, and samples_seen stops there.
    eval::DriveVoteState st(cfg);
    int raised = 0;
    for (std::size_t i = 0; i < len; ++i) {
      raised += st.push(s.hours[i], s.outputs[i]) ? 1 : 0;
    }
    if (len > 0) raised += st.finish(s.hours.back()) ? 1 : 0;
    ASSERT_EQ(st.alarmed(), slow.alarmed) << "trial " << trial;
    ASSERT_EQ(st.alarm_hour(), slow.alarm_hour) << "trial " << trial;
    EXPECT_EQ(raised, slow.alarmed ? 1 : 0) << "trial " << trial;
    // Hours are 2 * sample index.
    EXPECT_EQ(st.samples_seen(), slow.alarmed
                                     ? slow.alarm_hour / 2 + 1
                                     : static_cast<std::int64_t>(len))
        << "trial " << trial;
  }
}

// The window's state after every push, against a recount of the last
// min(pushes, N) outputs: the verdict (current_decision), the alarm and
// its hour, samples_seen, and finish() on a record shorter than N. N
// spans one voter, the paper's 11 and 100; both modes.
TEST_P(VotingProperty, WindowMatchesBruteForceAfterEveryPush) {
  Rng rng(GetParam() + 100);
  for (const int n : {1, 11, 100}) {
    for (const bool average : {false, true}) {
      for (int trial = 0; trial < 40; ++trial) {
        eval::VoteConfig cfg;
        cfg.voters = n;
        cfg.average_mode = average;
        cfg.threshold = rng.uniform(-0.3, 0.3);
        // A per-record bias, so some records alarm and some never do.
        const double bias = rng.uniform(-0.4, 0.4);
        const auto len = rng.uniform_int(3 * static_cast<std::uint64_t>(n) + 3);
        std::vector<float> outs;
        eval::DriveVoteState st(cfg);
        std::int64_t alarm_hour = -1;
        bool decision = false;
        for (std::size_t i = 0; i < len; ++i) {
          outs.push_back(static_cast<float>(rng.uniform(-1.0, 1.0) + bias));
          const auto hour = static_cast<std::int64_t>(3 * i + 1);
          const bool raised = st.push(hour, outs.back());
          if (alarm_hour < 0) {
            // Not alarmed before this push: the window moved.
            const std::size_t w = std::min(i + 1, static_cast<std::size_t>(n));
            std::size_t bad = 0;
            double sum = 0.0;
            for (std::size_t j = i + 1 - w; j <= i; ++j) {
              bad += outs[j] < 0.0f ? 1 : 0;
              sum += outs[j];
            }
            decision = average ? sum / static_cast<double>(w) < cfg.threshold
                               : 2 * bad > w;
            const bool alarm = decision && w == static_cast<std::size_t>(n);
            ASSERT_EQ(raised, alarm) << "N " << n << " push " << i;
            if (alarm) alarm_hour = hour;
            ASSERT_EQ(st.samples_seen(), static_cast<std::int64_t>(i + 1));
          } else {
            ASSERT_FALSE(raised) << "push after the alarm";
          }
          ASSERT_EQ(st.current_decision(), decision)
              << "N " << n << " average " << average << " push " << i;
          ASSERT_EQ(st.alarm_hour(), alarm_hour);
        }
        // finish() votes once over a record shorter than N.
        const bool short_alarm = alarm_hour < 0 && len > 0 &&
                                 len < static_cast<std::size_t>(n) &&
                                 decision;
        const auto last = static_cast<std::int64_t>(3 * len - 2);
        EXPECT_EQ(len > 0 && st.finish(last), short_alarm) << "N " << n;
        if (short_alarm) alarm_hour = last;
        EXPECT_EQ(st.alarmed(), alarm_hour >= 0);
        EXPECT_EQ(st.alarm_hour(), alarm_hour);
        st.reset();
        EXPECT_FALSE(st.alarmed());
        EXPECT_FALSE(st.current_decision());
        EXPECT_EQ(st.samples_seen(), 0);
      }
    }
  }
}

// A model whose output is the row's one feature plus a constant.
class OffsetScorer final : public core::SampleScorer {
 public:
  explicit OffsetScorer(double offset) : offset_(offset) {}
  double predict(std::span<const float> x) const override {
    return static_cast<double>(x[0]) + offset_;
  }
  void predict_batch(std::span<const float> xs,
                     std::span<double> out) const override {
    for (std::size_t r = 0; r < out.size(); ++r) out[r] = predict(xs.subspan(r, 1));
  }
  int num_features() const override { return 1; }
  std::string summary() const override { return "offset"; }

 private:
  double offset_;
};

// FleetScorer's windows over one ring array, and its shadow's, against a
// DriveVoteState per drive fed the same outputs: the same alarms, hours,
// samples_seen and verdicts, the same shadow statistics, and the flip
// and alarm counters the fleet bumps once per block.
TEST_P(VotingProperty, FleetWindowsMatchPerDriveStates) {
  Rng rng(GetParam() + 200);
  for (const int n : {1, 11, 100}) {
    const bool average = rng.chance(0.5);
    const std::size_t drives = 150;
    const std::size_t intervals = static_cast<std::size_t>(n) + 25;
    const std::size_t shadow_from = 3;  // the shadow installs here
    obs::Registry metrics;
    ThreadPool pool(2);
    core::FleetScorerConfig cfg;
    cfg.features = {"raw", {{smart::Attr::kPowerOnHours, 0}}};
    cfg.vote.voters = n;
    cfg.vote.average_mode = average;
    cfg.vote.threshold = rng.uniform(-0.2, 0.2);
    cfg.block_rows = 16;
    cfg.pool = &pool;
    cfg.metrics = &metrics;
    const OffsetScorer model(0.0);
    const double shadow_offset = 0.25;
    core::FleetScorer fleet(model, cfg);
    std::vector<double> bias(drives);
    for (std::size_t i = 0; i < drives; ++i) {
      fleet.add_drive("d" + std::to_string(i));
      bias[i] = rng.uniform(-0.5, 0.5);
    }

    std::vector<eval::DriveVoteState> want(drives,
                                           eval::DriveVoteState(cfg.vote));
    std::vector<eval::DriveVoteState> want_shadow(
        drives, eval::DriveVoteState(cfg.vote));
    core::FleetScorer::ShadowStats stats;
    std::uint64_t flips = 0, alarms = 0;
    std::vector<float> prev(drives);
    std::vector<float> x(drives);
    for (std::size_t t = 0; t < intervals; ++t) {
      if (t == shadow_from) {
        fleet.set_shadow(std::make_shared<OffsetScorer>(shadow_offset));
      }
      for (std::size_t i = 0; i < drives; ++i) {
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0) + bias[i]);
      }
      const auto hour = static_cast<std::int64_t>(t);
      fleet.observe_interval(x, hour);
      for (std::size_t i = 0; i < drives; ++i) {
        const double o = x[i];
        if (!want[i].alarmed() && t > 0 && (x[i] < 0.0f) != (prev[i] < 0.0f)) {
          ++flips;
        }
        prev[i] = x[i];
        const bool raised = want[i].push(hour, o);
        alarms += raised ? 1 : 0;
        if (t < shadow_from) continue;
        const double so = o + shadow_offset;
        ++stats.samples;
        stats.divergence +=
            (static_cast<float>(so) < 0.0f) != (x[i] < 0.0f) ? 1 : 0;
        const bool shadow_raised = want_shadow[i].push(hour, so);
        stats.vote_flips +=
            want_shadow[i].current_decision() != want[i].current_decision()
                ? 1
                : 0;
        stats.alarm_delta += shadow_raised != raised ? 1 : 0;
      }
    }
    for (std::size_t i = 0; i < drives; ++i) {
      const eval::VoteWindow& got = fleet.state(i);
      ASSERT_EQ(got.alarmed(), want[i].alarmed()) << "N " << n << " drive " << i;
      ASSERT_EQ(got.alarm_hour(), want[i].alarm_hour()) << "drive " << i;
      ASSERT_EQ(got.samples_seen(), want[i].samples_seen()) << "drive " << i;
      ASSERT_EQ(got.current_decision(), want[i].current_decision())
          << "drive " << i;
    }
    const auto got = fleet.shadow_stats();
    EXPECT_EQ(got.samples, stats.samples) << "N " << n;
    EXPECT_EQ(got.divergence, stats.divergence) << "N " << n;
    EXPECT_EQ(got.vote_flips, stats.vote_flips) << "N " << n;
    EXPECT_EQ(got.alarm_delta, stats.alarm_delta) << "N " << n;
    EXPECT_EQ(metrics.counter("hdd_fleet_alarms_total", "").value(), alarms);
    EXPECT_EQ(metrics.counter("hdd_fleet_vote_transitions_total", "").value(),
              flips);
    EXPECT_EQ(fleet.alarm_count(), alarms);
  }
}

// The window counts head, fill and failed votes in 16 bits.
TEST_P(VotingProperty, RejectsMoreThan65535Voters) {
  eval::VoteConfig cfg;
  cfg.voters = 65536 + static_cast<int>(GetParam());
  EXPECT_THROW(eval::DriveVoteState{cfg}, ConfigError);
  EXPECT_THROW(eval::VoteWindow::check(cfg), ConfigError);
  const OffsetScorer model(0.0);
  core::FleetScorerConfig fc;
  fc.features = {"raw", {{smart::Attr::kPowerOnHours, 0}}};
  fc.vote = cfg;
  EXPECT_THROW(core::FleetScorer(model, fc), ConfigError);
  cfg.voters = 65535;
  eval::DriveVoteState st(cfg);
  for (int i = 0; i < 70000; ++i) st.push(i, -1.0);
  EXPECT_EQ(st.alarm_hour(), 65534);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VotingProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- Tree: integer weights == replicated rows -------------------------------

TEST(TreeWeightProperty, IntegerWeightsEquivalentToReplication) {
  Rng rng(42);
  data::DataMatrix weighted(2), replicated(2);
  for (int i = 0; i < 300; ++i) {
    const std::vector<float> row{static_cast<float>(rng.uniform()),
                                 static_cast<float>(rng.uniform())};
    const float y = rng.chance(0.4 + 0.4 * row[0]) ? 1.0f : -1.0f;
    const int w = 1 + static_cast<int>(rng.uniform_int(3));
    weighted.add_row(row, y, static_cast<float>(w));
    for (int c = 0; c < w; ++c) replicated.add_row(row, y, 1.0f);
  }
  // min_bucket/min_split count raw rows, which differ between the two
  // encodings — disable them so only the weighted statistics matter.
  tree::TreeParams p;
  p.min_split = 2;
  p.min_bucket = 1;
  p.cp = 0.01;
  tree::DecisionTree a, b;
  a.fit(weighted, tree::Task::kClassification, p);
  b.fit(replicated, tree::Task::kClassification, p);
  for (int i = 0; i < 200; ++i) {
    const std::vector<float> x{static_cast<float>(rng.uniform()),
                               static_cast<float>(rng.uniform())};
    EXPECT_NEAR(a.predict(x), b.predict(x), 1e-9);
  }
}

TEST(TreeRegressionWeightProperty, IntegerWeightsEquivalentToReplication) {
  Rng rng(43);
  data::DataMatrix weighted(1), replicated(1);
  for (int i = 0; i < 200; ++i) {
    const std::vector<float> row{static_cast<float>(rng.uniform())};
    const float y = row[0] * 3.0f + static_cast<float>(rng.normal(0, 0.1));
    const int w = 1 + static_cast<int>(rng.uniform_int(3));
    weighted.add_row(row, y, static_cast<float>(w));
    for (int c = 0; c < w; ++c) replicated.add_row(row, y, 1.0f);
  }
  tree::TreeParams p;
  p.min_split = 2;
  p.min_bucket = 1;
  p.cp = 0.01;
  tree::DecisionTree a, b;
  a.fit(weighted, tree::Task::kRegression, p);
  b.fit(replicated, tree::Task::kRegression, p);
  for (int i = 0; i < 100; ++i) {
    const std::vector<float> x{static_cast<float>(rng.uniform())};
    EXPECT_NEAR(a.predict(x), b.predict(x), 1e-6);
  }
}

// --- Tree: prediction respects the stored split structure ------------------

TEST(TreeTraversalProperty, PredictMatchesManualDescent) {
  Rng rng(44);
  data::DataMatrix m(3);
  for (int i = 0; i < 500; ++i) {
    std::vector<float> row{static_cast<float>(rng.uniform()),
                           static_cast<float>(rng.uniform()),
                           static_cast<float>(rng.uniform())};
    m.add_row(row, rng.chance(row[1]) ? 1.0f : -1.0f, 1.0f);
  }
  tree::DecisionTree t;
  tree::TreeParams p;
  p.min_split = 10;
  p.min_bucket = 5;
  t.fit(m, tree::Task::kClassification, p);
  ASSERT_GT(t.node_count(), 1u);

  for (int i = 0; i < 200; ++i) {
    const std::vector<float> x{static_cast<float>(rng.uniform()),
                               static_cast<float>(rng.uniform()),
                               static_cast<float>(rng.uniform())};
    std::int32_t idx = 0;
    while (!t.nodes()[static_cast<std::size_t>(idx)].is_leaf()) {
      const auto& node = t.nodes()[static_cast<std::size_t>(idx)];
      idx = x[static_cast<std::size_t>(node.feature)] < node.threshold
                ? node.left
                : node.right;
    }
    EXPECT_DOUBLE_EQ(t.predict(x),
                     t.nodes()[static_cast<std::size_t>(idx)].value);
  }
}

// --- predict_batch is bit-identical to scalar predict ------------------------

// The FleetScorer/evaluate_batch fast paths lean on exact equality between
// the batched and row-at-a-time code paths (same accumulation order, same
// rounding). EXPECT_EQ on doubles below is deliberate: identical, not close.

data::DataMatrix random_rows(Rng& rng, std::size_t rows, std::size_t cols) {
  data::DataMatrix m(static_cast<int>(cols));
  std::vector<float> row(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (auto& v : row) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    m.add_row(row, 0.0f, 1.0f);
  }
  return m;
}

// Batch sizes around the scan's 16-row groups: none, a walked tail only,
// one group, a group plus a tail, and many groups plus a tail.
constexpr std::size_t kBatchSizes[] = {0, 1, 7, 16, 17, 31, 257};

template <typename Model>
void expect_batch_matches_scalar(const Model& model,
                                 const data::DataMatrix& queries,
                                 const char* what) {
  std::vector<double> batch(queries.rows());
  model.predict_batch(queries, batch);
  for (std::size_t r = 0; r < queries.rows(); ++r) {
    ASSERT_EQ(batch[r], model.predict(queries.row(r)))
        << what << " row " << r;
  }
  // The raw row-major span overload is the same code path, over prefixes.
  const auto nf = static_cast<std::size_t>(queries.cols());
  for (const std::size_t n : kBatchSizes) {
    ASSERT_LE(n, queries.rows());
    std::vector<double> raw(n);
    model.predict_batch(queries.features().first(n * nf), raw);
    for (std::size_t r = 0; r < n; ++r) {
      ASSERT_EQ(raw[r], batch[r]) << what << " batch " << n << " row " << r;
    }
  }
}

TEST(BatchPredictProperty, BitIdenticalToScalarForEveryModelType) {
  Rng rng(47);
  const std::size_t cols = 5;

  data::DataMatrix cls_train(static_cast<int>(cols));
  data::DataMatrix reg_train(static_cast<int>(cols));
  std::vector<float> row(cols);
  for (int i = 0; i < 600; ++i) {
    for (auto& v : row) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const double margin = row[0] + 0.5 * row[1] + rng.normal(0.0, 0.3);
    cls_train.add_row(row, margin < 0.0 ? -1.0f : 1.0f, 1.0f);
    reg_train.add_row(row, static_cast<float>(margin), 1.0f);
  }
  // 257 rows: not a multiple of the trees' internal row block, so the tail
  // block is exercised too.
  const auto queries = random_rows(rng, 257, cols);

  tree::TreeParams params;
  params.min_split = 10;
  params.min_bucket = 5;

  tree::DecisionTree ct;
  ct.fit(cls_train, tree::Task::kClassification, params);
  ASSERT_GT(ct.node_count(), 1u);
  expect_batch_matches_scalar(ct, queries, "CT");

  tree::DecisionTree rt;
  rt.fit(reg_train, tree::Task::kRegression, params);
  ASSERT_GT(rt.node_count(), 1u);
  expect_batch_matches_scalar(rt, queries, "RT");

  forest::ForestConfig fc;
  fc.n_trees = 12;
  fc.tree_params = params;
  forest::RandomForest rf;
  rf.fit(cls_train, tree::Task::kClassification, fc);
  expect_batch_matches_scalar(rf, queries, "RandomForest");

  forest::AdaBoostConfig ac;
  ac.n_rounds = 8;
  forest::AdaBoost ab;
  ab.fit(cls_train, ac);
  expect_batch_matches_scalar(ab, queries, "AdaBoost");

  ann::MlpConfig mc;
  mc.hidden = 7;
  mc.epochs = 40;
  ann::MlpModel mlp;
  mlp.fit(cls_train, mc);
  expect_batch_matches_scalar(mlp, queries, "MLP");
}

// --- Packed kernel vs a walk over tree::Node ---------------------------------

// predict() and predict_batch() of every tree model are one kernel over
// tree::FlatEnsemble, so comparing them with each other proves nothing about
// the packing. This reference never touches the packed form: it descends
// tree::Node, gathers each forest member's subspace columns, and accumulates
// members in the same order with the same final scale.
double reference_walk(const tree::DecisionTree& t, std::span<const float> x) {
  const auto& nodes = t.nodes();
  std::size_t i = 0;
  while (!nodes[i].is_leaf()) {
    const tree::Node& n = nodes[i];
    i = static_cast<std::size_t>(
        x[static_cast<std::size_t>(n.feature)] < n.threshold ? n.left
                                                             : n.right);
  }
  return nodes[i].value;
}

double reference_walk(const forest::RandomForest& rf,
                      std::span<const float> x) {
  double total = 0.0;
  std::vector<float> sub;
  for (std::size_t m = 0; m < rf.tree_count(); ++m) {
    const auto cols = rf.member_features(m);
    sub.resize(cols.size());
    for (std::size_t f = 0; f < cols.size(); ++f) {
      sub[f] = x[static_cast<std::size_t>(cols[f])];
    }
    total += reference_walk(rf.member_tree(m), sub);
  }
  return total / static_cast<double>(rf.tree_count());
}

double reference_walk(const forest::AdaBoost& ab, std::span<const float> x) {
  double vote = 0.0, norm = 0.0;
  for (const auto& m : ab.members()) {
    vote += m.alpha * (reference_walk(m.tree, x) < 0.0 ? -1.0 : 1.0);
    norm += m.alpha;
  }
  return norm > 0.0 ? vote / norm : 0.0;
}

// Every split threshold of a model, as row values: a query row filled with
// one of them puts x[f] exactly on that split for whichever f it tests.
void collect_thresholds(const tree::DecisionTree& t, std::vector<float>& out) {
  for (const tree::Node& n : t.nodes()) {
    if (!n.is_leaf()) out.push_back(n.threshold);
  }
}

// Random rows plus the edge values a comparison-based descent must route
// like the reference: NaN (goes right), ±inf, values equal to a threshold.
data::DataMatrix edge_queries(Rng& rng, std::size_t cols,
                              const std::vector<float>& thresholds) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  data::DataMatrix m(static_cast<int>(cols));
  std::vector<float> row(cols);
  for (float v : {kNan, kInf, -kInf}) {
    std::fill(row.begin(), row.end(), v);
    m.add_row(row, 0.0f, 1.0f);
  }
  for (int r = 0; r < 300; ++r) {
    for (auto& v : row) {
      const double u = rng.uniform();
      v = u < 0.05   ? kNan
          : u < 0.08 ? kInf
          : u < 0.11 ? -kInf
          : u < 0.25 && !thresholds.empty()
              ? thresholds[rng.uniform_int(thresholds.size())]
              : static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    m.add_row(row, 0.0f, 1.0f);
  }
  for (float t : thresholds) {
    std::fill(row.begin(), row.end(), t);
    m.add_row(row, 0.0f, 1.0f);
  }
  return m;
}

// Compared as bit patterns, so even the sign of a zero must match: both
// kernels reproduce the reference bit for bit. kBatchSizes run
// predict_batch over prefixes of the queries; predict() is checked on
// every row.
template <typename Model>
void expect_kernel_matches_reference(const Model& model,
                                     const data::DataMatrix& queries,
                                     const char* what) {
  model.flat().validate();
  const auto nf = static_cast<std::size_t>(queries.cols());
  for (const std::size_t n : kBatchSizes) {
    ASSERT_LE(n, queries.rows());
    std::vector<double> out(n, 42.0);
    model.predict_batch(queries.features().first(n * nf), out);
    for (std::size_t r = 0; r < n; ++r) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(out[r]),
                std::bit_cast<std::uint64_t>(
                    reference_walk(model, queries.row(r))))
          << what << " batch " << n << " row " << r;
    }
  }
  for (std::size_t r = 0; r < queries.rows(); ++r) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(model.predict(queries.row(r))),
              std::bit_cast<std::uint64_t>(
                  reference_walk(model, queries.row(r))))
        << what << " row " << r;
  }
}

// Whether this CPU runs FlatEnsemble's 16-row scan (AVX-512F and CD).
bool host_scans() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512cd");
#else
  return false;
#endif
}

std::string saved(const tree::DecisionTree& t) {
  std::ostringstream os;
  t.save(os);
  return os.str();
}

TEST(PackedKernelProperty, MatchesNodeWalkReferenceForEveryTreeModel) {
  Rng rng(49);
  const std::size_t cols = 5;
  data::DataMatrix cls_train(static_cast<int>(cols));
  data::DataMatrix reg_train(static_cast<int>(cols));
  std::vector<float> row(cols);
  for (int i = 0; i < 600; ++i) {
    for (auto& v : row) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const double margin = row[0] + 0.5 * row[1] + rng.normal(0.0, 0.3);
    cls_train.add_row(row, margin < 0.0 ? -1.0f : 1.0f, 1.0f);
    reg_train.add_row(row, static_cast<float>(margin), 1.0f);
  }
  tree::TreeParams params;
  params.min_split = 10;
  params.min_bucket = 5;

  tree::DecisionTree ct, rt;
  ct.fit(cls_train, tree::Task::kClassification, params);
  rt.fit(reg_train, tree::Task::kRegression, params);
  forest::ForestConfig fc;
  fc.n_trees = 12;
  fc.tree_params = params;
  forest::RandomForest rf;
  rf.fit(cls_train, tree::Task::kClassification, fc);
  // Depth 6 keeps every member within the scan's 64 leaves.
  fc.tree_params.max_depth = 6;
  forest::RandomForest shallow;
  shallow.fit(cls_train, tree::Task::kClassification, fc);
  forest::AdaBoostConfig ac;
  ac.n_rounds = 8;
  forest::AdaBoost ab;
  ab.fit(cls_train, ac);

  std::vector<float> thresholds;
  collect_thresholds(ct, thresholds);
  collect_thresholds(rt, thresholds);
  for (std::size_t m = 0; m < rf.tree_count(); ++m) {
    collect_thresholds(rf.member_tree(m), thresholds);
    collect_thresholds(shallow.member_tree(m), thresholds);
  }
  for (const auto& m : ab.members()) collect_thresholds(m.tree, thresholds);
  const auto queries = edge_queries(rng, cols, thresholds);

  expect_kernel_matches_reference(ct, queries, "CT");
  expect_kernel_matches_reference(rt, queries, "RT");
  expect_kernel_matches_reference(rf, queries, "RandomForest");
  expect_kernel_matches_reference(shallow, queries, "RandomForest depth 6");
  expect_kernel_matches_reference(ab, queries, "AdaBoost");
  // One tree always walks; these ensembles take the scan where it exists.
  EXPECT_TRUE(ct.flat().scan_splits().empty());
  EXPECT_EQ(shallow.flat().scan_splits().empty(), !host_scans());
  EXPECT_EQ(ab.flat().scan_splits().empty(), !host_scans());
}

// A node list as a persisted tree file, written without from_nodes so it
// can hold shapes from_nodes rejects.
std::string tree_text(const std::vector<tree::Node>& nodes, int features) {
  std::ostringstream os;
  os << "hddpred-tree v1\ntask classification\nfeatures " << features
     << "\nnodes " << nodes.size() << '\n';
  for (const tree::Node& n : nodes) {
    os << n.left << ' ' << n.right << ' ' << n.feature << ' ' << n.threshold
       << ' ' << n.value << " 1 1 0\n";
  }
  return os.str();
}

TEST(PackedKernelProperty, StumpsMatchTheReferenceAndDagsAreRejected) {
  using tree::Node;
  const auto split = [](std::int32_t feature, float threshold,
                        std::int32_t left, std::int32_t right) {
    Node n;
    n.feature = feature;
    n.threshold = threshold;
    n.left = left;
    n.right = right;
    return n;
  };
  const auto leaf = [](double value) {
    Node n;
    n.value = value;
    return n;
  };
  const auto stump = tree::DecisionTree::from_nodes(
      {leaf(-0.25)}, tree::Task::kClassification, 3);
  const auto small = tree::DecisionTree::from_nodes(
      {split(0, 0.5f, 1, 4), split(1, 0.0f, 2, 3), leaf(-0.5), leaf(0.75),
       leaf(1.0)},
      tree::Task::kClassification, 3);

  // Node lists that are not trees. Nodes 1 and 2 share both leaves:
  const std::vector<Node> dag{split(0, 0.5f, 1, 2), split(1, 0.0f, 3, 4),
                              split(2, 0.0f, 3, 4), leaf(-0.5), leaf(0.75)};
  // node 3 is unreachable:
  const std::vector<Node> orphan{split(0, 0.5f, 1, 2), leaf(-0.5),
                                 leaf(0.75), leaf(1.0)};
  // and a chain where node i goes to i+1 or i+2, whose Fibonacci(40)
  // root-to-leaf paths a path-by-path verifier walk would never finish.
  std::vector<Node> chain;
  for (std::int32_t i = 0; i < 40; ++i) {
    chain.push_back(split(i % 3, 0.01f * static_cast<float>(i % 7), i + 1,
                          i + 2));
  }
  chain.push_back(leaf(0.5));
  chain.push_back(leaf(-1.0));
  for (const std::vector<Node>& nodes : {dag, orphan, chain}) {
    std::istringstream is(tree_text(nodes, 3));
    EXPECT_THROW((void)tree::DecisionTree::load(is), DataError)
        << nodes.size() << " nodes";
  }
  // A forest is rejected when any member is not a tree.
  std::istringstream dag_forest(
      "hddpred-forest v1\nfeatures 3\ntrees 2\nsubspace 1 2 0\n" +
      saved(stump) + "subspace 0 1 2\n" + tree_text(dag, 3));
  EXPECT_THROW((void)forest::RandomForest::load(dag_forest), DataError);

  EXPECT_EQ(stump.flat().splits().size(), 0u);
  EXPECT_EQ(small.flat().splits().size(), 2u);
  EXPECT_EQ(small.flat().leaves().size(), 3u);
  // NaN goes right at every split: 0 -> 4.
  const std::vector<float> nan_row(3, std::numeric_limits<float>::quiet_NaN());
  EXPECT_EQ(small.predict(nan_row), 1.0);

  // A forest whose second member is a stump, each member on its own
  // subspace (loaded, as RandomForest has no member constructor).
  std::istringstream forest_text(
      "hddpred-forest v1\nfeatures 3\ntrees 3\nsubspace 2 0 1\n" +
      saved(small) + "subspace 1 2 0\n" + saved(stump) +
      "subspace 0 1 2\n" + saved(small));
  const auto rf = forest::RandomForest::load(forest_text);
  EXPECT_EQ(rf.flat().splits().size(), 4u);

  const auto ab = forest::AdaBoost::from_members(
      {{stump, 0.4}, {small, 1.25}, {stump, 0.7}});

  Rng rng(50);
  const std::vector<float> thresholds{0.5f, 0.0f};
  const auto queries = edge_queries(rng, 3, thresholds);
  expect_kernel_matches_reference(stump, queries, "stump");
  expect_kernel_matches_reference(small, queries, "small tree");
  expect_kernel_matches_reference(rf, queries, "forest with stump member");
  expect_kernel_matches_reference(ab, queries, "AdaBoost with stump member");
}

// A tree with `leaves` leaves, split roughly in half at every node, in
// the children-after-parent order from_nodes takes. Thresholds come from
// `cuts` (±0 among them) and leaf values are distinct, so a wrong exit
// leaf shows in the sum.
void grow_tree(std::vector<tree::Node>& nodes, std::uint32_t leaves,
               std::uint32_t depth, const std::vector<float>& cuts,
               Rng& rng) {
  tree::Node n;
  if (leaves == 1) {
    n.value = static_cast<double>(nodes.size()) * 0.125 - 1.0;
    nodes.push_back(n);
    return;
  }
  const std::size_t at = nodes.size();
  n.feature = static_cast<std::int32_t>(depth % 3);
  n.threshold = cuts[rng.uniform_int(cuts.size())];
  nodes.push_back(n);
  nodes[at].left = static_cast<std::int32_t>(nodes.size());
  grow_tree(nodes, leaves / 2, depth + 1, cuts, rng);
  nodes[at].right = static_cast<std::int32_t>(nodes.size());
  grow_tree(nodes, leaves - leaves / 2, depth + 1, cuts, rng);
}

TEST(PackedKernelProperty, ScanAndWalkAgreeAtTheLeafLimitAndEdges) {
  Rng rng(51);
  const std::vector<float> cuts{-0.5f, -0.0f, 0.0f, 0.25f, 0.5f, 1.0f};
  const auto tree_of = [&](std::uint32_t leaves) {
    std::vector<tree::Node> nodes;
    grow_tree(nodes, leaves, 0, cuts, rng);
    return tree::DecisionTree::from_nodes(std::move(nodes),
                                          tree::Task::kRegression, 3);
  };
  const auto forest_of = [&](const std::vector<tree::DecisionTree>& trees) {
    std::string text = "hddpred-forest v1\nfeatures 3\ntrees " +
                       std::to_string(trees.size()) + "\n";
    for (std::size_t m = 0; m < trees.size(); ++m) {
      text += m % 2 == 0 ? "subspace 0 1 2\n" : "subspace 2 0 1\n";
      text += saved(trees[m]);
    }
    std::istringstream is(text);
    return forest::RandomForest::load(is);
  };
  const auto small = tree_of(5);
  // 64 leaves fill a member's leaf set: the scan runs. One more and the
  // whole forest walks.
  const auto at_limit = forest_of({small, tree_of(64), tree_of(9)});
  const auto over_limit = forest_of({small, tree_of(65), tree_of(9)});
  EXPECT_EQ(at_limit.flat().scan_splits().empty(), !host_scans());
  EXPECT_TRUE(over_limit.flat().scan_splits().empty());

  // AdaBoost with Σalpha < 0 and Σalpha == 0 scores 0 on every row.
  const auto negative = forest::AdaBoost::from_members(
      {{small, 0.5}, {tree_of(64), -0.75}});
  const auto zero_sum = forest::AdaBoost::from_members(
      {{tree_of(7), 0.5}, {small, -0.5}});
  EXPECT_EQ(negative.flat().scan_splits().empty(), !host_scans());

  // Every row value on a threshold, ±0 among them, plus NaN and ±inf.
  const auto queries = edge_queries(rng, 3, cuts);
  expect_kernel_matches_reference(at_limit, queries, "64-leaf member");
  expect_kernel_matches_reference(over_limit, queries, "65-leaf member");
  expect_kernel_matches_reference(negative, queries, "AdaBoost sum < 0");
  expect_kernel_matches_reference(zero_sum, queries, "AdaBoost sum == 0");
  for (std::size_t r = 0; r < queries.rows(); ++r) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(negative.predict(queries.row(r))),
              std::bit_cast<std::uint64_t>(0.0));
  }
}

// A left-leaning chain of `leaves` leaves: every split's left subtree is
// leaves [0, k), so with more than 33 leaves many runs cross leaf 32.
void grow_chain(std::vector<tree::Node>& nodes, std::uint32_t leaves,
                const std::vector<float>& cuts, Rng& rng) {
  tree::Node n;
  if (leaves == 1) {
    n.value = static_cast<double>(nodes.size()) * 0.0625 - 2.0;
    nodes.push_back(n);
    return;
  }
  const std::size_t at = nodes.size();
  n.feature = static_cast<std::int32_t>(leaves % 3);
  n.threshold = cuts[rng.uniform_int(cuts.size())];
  nodes.push_back(n);
  nodes[at].left = static_cast<std::int32_t>(nodes.size());
  grow_chain(nodes, leaves - 1, cuts, rng);
  nodes[at].right = static_cast<std::int32_t>(nodes.size());
  n = tree::Node{};
  n.value = static_cast<double>(at) * 0.0625 + 0.5;
  nodes.push_back(n);
}

// The scan keeps a member's leaves in one 32-bit slot per lane up to 32
// leaves (read by a two- or four-register permute) and in two above
// (gathered); these forests hold members on both sides of each size.
TEST(PackedKernelProperty, ScanSlotsMatchTheWalkAcrossLeafCounts) {
  Rng rng(52);
  const std::vector<float> cuts{-0.5f, -0.0f, 0.0f, 0.25f, 0.5f, 1.0f};
  const auto tree_of = [&](std::uint32_t leaves) {
    std::vector<tree::Node> nodes;
    grow_tree(nodes, leaves, 0, cuts, rng);
    return tree::DecisionTree::from_nodes(std::move(nodes),
                                          tree::Task::kRegression, 3);
  };
  const auto chain_of = [&](std::uint32_t leaves) {
    std::vector<tree::Node> nodes;
    grow_chain(nodes, leaves, cuts, rng);
    return tree::DecisionTree::from_nodes(std::move(nodes),
                                          tree::Task::kRegression, 3);
  };
  const auto forest_of = [&](const std::vector<tree::DecisionTree>& trees) {
    std::string text = "hddpred-forest v1\nfeatures 3\ntrees " +
                       std::to_string(trees.size()) + "\n";
    for (std::size_t m = 0; m < trees.size(); ++m) {
      text += m % 2 == 0 ? "subspace 0 1 2\n" : "subspace 1 2 0\n";
      text += saved(trees[m]);
    }
    std::istringstream is(text);
    return forest::RandomForest::load(is);
  };
  const auto forest = forest_of({tree_of(16), tree_of(17), tree_of(32),
                                 tree_of(33), tree_of(64), chain_of(40),
                                 tree_of(48)});
  EXPECT_EQ(forest.flat().scan_splits().empty(), !host_scans());
  if (host_scans()) {
    // A left subtree that crosses leaf 32 is two entries, one per slot.
    EXPECT_GT(forest.flat().scan_splits().size(),
              forest.flat().splits().size());
  }

  // AdaBoost over the same sizes: Σalpha > 0, < 0 and == 0.
  const auto positive = forest::AdaBoost::from_members(
      {{tree_of(16), 0.3}, {chain_of(40), 0.45}, {tree_of(33), 0.25}});
  const auto negative = forest::AdaBoost::from_members(
      {{tree_of(17), 0.5}, {chain_of(36), -0.75}, {tree_of(64), 0.125}});
  const auto zero_sum = forest::AdaBoost::from_members(
      {{tree_of(32), 0.5}, {tree_of(33), -0.5}});
  EXPECT_EQ(positive.flat().scan_splits().empty(), !host_scans());
  EXPECT_EQ(zero_sum.flat().scan_splits().empty(), !host_scans());

  // Every row value on a threshold, ±0 among them, plus NaN and ±inf.
  const auto queries = edge_queries(rng, 3, cuts);
  expect_kernel_matches_reference(forest, queries, "16-64 leaf members");
  expect_kernel_matches_reference(positive, queries, "AdaBoost sum > 0");
  expect_kernel_matches_reference(negative, queries, "AdaBoost sum < 0");
  expect_kernel_matches_reference(zero_sum, queries, "AdaBoost sum == 0");
  for (std::size_t r = 0; r < queries.rows(); ++r) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(zero_sum.predict(queries.row(r))),
              std::bit_cast<std::uint64_t>(0.0));
  }
}

TEST(BatchPredictProperty, EmptyBatchIsNoop) {
  Rng rng(48);
  const auto train = [&] {
    data::DataMatrix m(2);
    std::vector<float> row(2);
    for (int i = 0; i < 100; ++i) {
      for (auto& v : row) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      m.add_row(row, row[0] < 0 ? -1.0f : 1.0f, 1.0f);
    }
    return m;
  }();
  tree::DecisionTree t;
  t.fit(train, tree::Task::kClassification, {});
  t.predict_batch(std::span<const float>{}, std::span<double>{});
}

// --- Rank-sum test vs brute-force U statistic --------------------------------

TEST(RankSumProperty, MatchesBruteForceUStatistic) {
  Rng rng(45);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> xs, ys;
    const auto nx = 3 + rng.uniform_int(40);
    const auto ny = 3 + rng.uniform_int(40);
    for (std::size_t i = 0; i < nx; ++i) {
      xs.push_back(std::round(rng.uniform(0, 20)));  // force ties
    }
    for (std::size_t i = 0; i < ny; ++i) {
      ys.push_back(std::round(rng.uniform(0, 20)));
    }
    // Brute force: U = #pairs (x > y) + 0.5 #ties; W = U + nx(nx+1)/2.
    double u = 0.0;
    for (double x : xs) {
      for (double y : ys) {
        if (x > y) u += 1.0;
        else if (x == y) u += 0.5;
      }
    }
    const double w = u + static_cast<double>(nx * (nx + 1)) / 2.0;
    const double mean_w =
        static_cast<double>(nx) * static_cast<double>(nx + ny + 1) / 2.0;
    const auto result = stats::rank_sum_test(xs, ys);
    // The production z must have the same sign and reproduce W - E[W]
    // (variance handled by the tie-corrected formula).
    if (std::fabs(w - mean_w) > 1e-9) {
      EXPECT_GT(result.z * (w - mean_w), 0.0) << "trial " << trial;
    } else {
      EXPECT_NEAR(result.z, 0.0, 1e-9);
    }
  }
}

// --- CTMC solver vs Monte Carlo ---------------------------------------------

TEST(MarkovProperty, MeanAbsorptionMatchesMonteCarlo) {
  // A small 3-transient-state chain with competing rates.
  reliability::MarkovChain chain;
  const int a = chain.add_state();
  const int b = chain.add_state();
  const int c = chain.add_state();
  const int f = chain.add_state();
  chain.set_absorbing(f);
  chain.add_transition(a, b, 1.0);
  chain.add_transition(a, c, 0.5);
  chain.add_transition(b, a, 2.0);
  chain.add_transition(b, f, 0.3);
  chain.add_transition(c, f, 0.2);
  chain.add_transition(c, b, 1.0);
  const double exact = chain.mean_time_to_absorption(a);

  // Monte Carlo simulation of the same chain.
  struct Exit {
    int to;
    double rate;
  };
  const std::vector<std::vector<Exit>> exits{
      {{b, 1.0}, {c, 0.5}}, {{a, 2.0}, {f, 0.3}}, {{b, 1.0}, {f, 0.2}}};
  Rng rng(46);
  double total = 0.0;
  const int runs = 20000;
  for (int run = 0; run < runs; ++run) {
    int state = a;
    double t = 0.0;
    while (state != f) {
      double rate_sum = 0.0;
      for (const auto& e : exits[static_cast<std::size_t>(state)]) {
        rate_sum += e.rate;
      }
      t += rng.exponential(rate_sum);
      double pick = rng.uniform(0.0, rate_sum);
      for (const auto& e : exits[static_cast<std::size_t>(state)]) {
        pick -= e.rate;
        if (pick <= 0.0) {
          state = e.to;
          break;
        }
      }
    }
    total += t;
  }
  const double mc = total / runs;
  EXPECT_NEAR(mc / exact, 1.0, 0.05);
}

TEST(RaidCtmcProperty, SingleToleratedFailureMatchesClassicFormulaScan) {
  // k = 0 RAID-5 CTMC vs the closic closed form across a size sweep.
  for (int n : {4, 8, 16, 64, 256}) {
    reliability::RaidPredictionParams p;
    p.n_drives = n;
    p.tolerated_failures = 1;
    p.fdr = 0.0;
    const double ctmc = reliability::mttdl_raid_with_prediction(p);
    const double formula = reliability::mttdl_raid5_no_prediction(
        p.mttf_hours, p.mttr_hours, n);
    EXPECT_NEAR(ctmc / formula, 1.0, 0.05) << "n = " << n;
  }
}

}  // namespace
}  // namespace hdd
