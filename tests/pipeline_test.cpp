// Continuous model-update pipeline tests (ctest label: pipeline).
//
// Covers the retrain scheduler (strategy windows, due/mark triggers), the
// train-and-gate stage (no-data / lint / guardrail rejection, promotion),
// the store-backed UpdatePipeline (journal-first promotion, rejected
// candidates never touch the live scorer, generation restore on restart),
// shadow-scoring divergence counters, hot swap concurrent with live
// scoring (the TSan canary for the RCU slot), a 200-seed kill-during-
// promotion fault sweep, and two drift scenarios: a synthetic fleet whose
// population shifts regime across generations, and a simulator-backed
// cross-family transfer (W incumbent over a small Q datacenter).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/log.h"
#include "core/fleet.h"
#include "core/predictor.h"
#include "core/runtime.h"
#include "core/scorer.h"
#include "core/swappable.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "pipeline/scheduler.h"
#include "sim/generator.h"
#include "sim/profile.h"
#include "store/telemetry_store.h"

namespace hdd::pipeline {
namespace {

namespace fs = std::filesystem;

// Deterministic jitter, a pure function of (drive, hour, salt) — same
// construction as the serve/fault suites.
float hval(std::uint32_t d, std::int64_t h, std::uint32_t salt) {
  std::uint32_t x = d * 2654435761u +
                    static_cast<std::uint32_t>(h) * 40503u + salt * 97u;
  x ^= x >> 13;
  x *= 2246822519u;
  x ^= x >> 16;
  return static_cast<float>(x & 0xFFFF) / 32768.0f - 1.0f;  // [-1, 1)
}

smart::FeatureSet two_features() {
  return {"t2",
          {{smart::Attr::kRawReadErrorRate, 0},
           {smart::Attr::kTemperatureCelsius, 6}}};
}

// Cleanly separable telemetry: good drives live around x0 = +bias, failed
// drives around x0 = -bias. A classification tree picks the x0 split and
// the validation slice scores FDR 1 / FAR 0, so the default rails pass.
smart::Sample sample_at(std::uint32_t d, std::int64_t h, float bias) {
  smart::Sample s;
  s.hour = h;
  s.set(smart::Attr::kRawReadErrorRate, bias + 0.15f * hval(d, h, 1));
  s.set(smart::Attr::kTemperatureCelsius, hval(d, h, 2));
  return s;
}

smart::DriveRecord make_drive(const std::string& serial, std::uint32_t d,
                              std::int64_t hours, float bias,
                              bool failed = false) {
  smart::DriveRecord rec;
  rec.serial = serial;
  for (std::int64_t h = 0; h < hours; ++h) {
    rec.samples.push_back(sample_at(d, h, bias));
  }
  if (failed) {
    // The training matrix anchors failed rows at fail_hour: fail right
    // after the record ends so the whole window is in range.
    rec.failed = true;
    rec.fail_hour = hours;
  }
  return rec;
}

constexpr std::int64_t kWeek = 168;
constexpr std::uint32_t kGoods = 12;
constexpr std::uint32_t kFaileds = 6;

std::vector<smart::DriveRecord> good_pool(std::int64_t hours = kWeek) {
  std::vector<smart::DriveRecord> out;
  for (std::uint32_t d = 0; d < kGoods; ++d) {
    out.push_back(make_drive("good-" + std::to_string(d), d, hours, 0.8f));
  }
  return out;
}

std::vector<smart::DriveRecord> failed_pool(std::int64_t hours = kWeek) {
  std::vector<smart::DriveRecord> out;
  for (std::uint32_t d = 0; d < kFaileds; ++d) {
    out.push_back(make_drive("failed-" + std::to_string(d), 100 + d, hours,
                             -0.8f, /*failed=*/true));
  }
  return out;
}

PipelineConfig test_config(obs::Registry* reg) {
  PipelineConfig pc;
  pc.trainer = core::paper_ct_config();
  pc.trainer.training.features = two_features();
  pc.trainer.training.good_samples_per_drive = 8;
  pc.trainer.vote.voters = 5;
  pc.metrics = reg;
  return pc;
}

// Fills a fresh store with the good pool's telemetry.
void ingest_goods(store::TelemetryStore& st, std::int64_t hours = kWeek) {
  for (std::uint32_t d = 0; d < kGoods; ++d) {
    const auto id = st.register_drive("good-" + std::to_string(d));
    for (std::int64_t h = 0; h < hours; ++h) {
      st.append(id, sample_at(d, h, 0.8f));
    }
  }
  st.flush();
}

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_log_level(LogLevel::kError);
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    base_dir_ = fs::temp_directory_path() /
                (std::string("hdd_pipeline_") + info->name());
    fs::remove_all(base_dir_);
    fs::create_directories(base_dir_);
  }
  void TearDown() override { fs::remove_all(base_dir_); }

  fs::path base_dir_;
};

// ---------------------------------------------------------------------------
// Scheduler: strategy windows and retrain triggers

TEST(TrainingRange, FixedAlwaysTrainsOnWeekOne) {
  EXPECT_EQ(training_range(Strategy::kFixed, 1, 2), std::make_pair(0, 1));
  EXPECT_EQ(training_range(Strategy::kFixed, 4, 9), std::make_pair(0, 1));
}

TEST(TrainingRange, AccumulationGrowsWithTestWeek) {
  EXPECT_EQ(training_range(Strategy::kAccumulation, 1, 2),
            std::make_pair(0, 1));
  EXPECT_EQ(training_range(Strategy::kAccumulation, 1, 9),
            std::make_pair(0, 8));
}

TEST(TrainingRange, ReplacingUsesLastCompletedCycle) {
  // c = 2: before a full cycle completes, everything observed so far.
  EXPECT_EQ(training_range(Strategy::kReplacing, 2, 2), std::make_pair(0, 1));
  const auto r = training_range(Strategy::kReplacing, 2, 7);
  EXPECT_EQ(r.second - r.first, 2);  // exactly one cycle wide
  EXPECT_LE(r.second, 6);            // never includes the test week
}

TEST(Scheduler, HourTriggerFiresOncePerInterval) {
  SchedulerConfig sc;
  sc.retrain_every_hours = kWeek;
  RetrainScheduler s(sc);
  EXPECT_FALSE(s.due(10, kWeek - 1));
  EXPECT_TRUE(s.due(10, kWeek));
  s.mark(10, kWeek);
  EXPECT_FALSE(s.due(20, kWeek + 1));
  EXPECT_TRUE(s.due(20, 2 * kWeek));
}

TEST(Scheduler, SampleTriggerFires) {
  SchedulerConfig sc;
  sc.retrain_every_hours = 0;
  sc.retrain_every_samples = 100;
  RetrainScheduler s(sc);
  EXPECT_FALSE(s.due(99, 5));
  EXPECT_TRUE(s.due(100, 5));
  s.mark(100, 5);
  EXPECT_FALSE(s.due(150, 50));
  EXPECT_TRUE(s.due(200, 50));
}

TEST(Scheduler, FixedStrategyNeverRetrainsAfterMark) {
  SchedulerConfig sc;
  sc.strategy = Strategy::kFixed;
  sc.retrain_every_hours = kWeek;
  RetrainScheduler s(sc);
  EXPECT_TRUE(s.due(10, kWeek));
  s.mark(10, kWeek);
  EXPECT_FALSE(s.due(1000, 100 * kWeek));
}

TEST(Scheduler, WindowHoursMatchesStrategy) {
  SchedulerConfig sc;
  sc.strategy = Strategy::kAccumulation;
  RetrainScheduler s(sc);
  // Telemetry watermark at hour 504 sits inside week 4, making week 4 the
  // test week: accumulation trains on weeks 1..3 = hours [0, 504).
  const auto w = s.window_hours(3 * kWeek);
  EXPECT_EQ(w.first, 0);
  EXPECT_EQ(w.second, 3 * kWeek);
}

// ---------------------------------------------------------------------------
// train_and_gate: every rejection path plus promotion

// The split's fraction must lie in (0, 1): above 1 the failed split would
// index past its permutation, and NaN has no size_t conversion.
TEST(Gate, RejectsTrainFractionOutsideOpenUnitInterval) {
  for (const double f : {1.5, std::numeric_limits<double>::quiet_NaN(), 0.0,
                         1.0}) {
    auto pc = test_config(nullptr);
    pc.train_fraction = f;
    EXPECT_THROW(train_and_gate(good_pool(), failed_pool(), 1, pc),
                 ConfigError)
        << f;
  }
}

// window_set's rules: non-empty goods in order, all train or all test; the
// failed side in permutation order, empty records kept on the train side
// only.
TEST(Window, SetKeepsEachSidesRules) {
  std::vector<smart::DriveRecord> pool(5);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool[i].serial = "F" + std::to_string(i);
    if (i != 1 && i != 4) pool[i].samples.resize(2);  // 1 and 4 empty
  }
  Rng rng(7);
  const FailedSplit failed(pool, 0.6, rng);
  ASSERT_EQ(failed.n_train, 3u);
  const auto goods = [] {
    std::vector<smart::DriveRecord> g(3);
    g[0].serial = "G0";
    g[0].samples.resize(4);
    g[1].serial = "G1";  // empty: skipped on both sides
    g[2].serial = "G2";
    g[2].samples.resize(1);
    return g;
  };
  for (const WindowSide side : {WindowSide::kTrain, WindowSide::kTest}) {
    const bool train = side == WindowSide::kTrain;
    const WindowSet w = window_set(side, goods(), failed, "fam");
    EXPECT_EQ(w.dataset.family_names, std::vector<std::string>{"fam"});
    ASSERT_EQ(w.split.good_drives, (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(w.dataset.drives[0].serial, "G0");
    EXPECT_EQ(w.dataset.drives[1].serial, "G2");
    EXPECT_EQ(w.split.good_test_begin,
              (train ? std::vector<std::size_t>{4, 1}
                     : std::vector<std::size_t>{0, 0}));
    std::vector<std::string> want;
    for (std::size_t k = train ? 0 : failed.n_train;
         k < (train ? failed.n_train : pool.size()); ++k) {
      const auto& f = pool[failed.perm[k]];
      if (train || !f.empty()) want.push_back(f.serial);
    }
    const auto& ids = train ? w.split.train_failed : w.split.test_failed;
    EXPECT_TRUE((train ? w.split.test_failed : w.split.train_failed).empty());
    std::vector<std::string> got;
    for (const std::size_t id : ids) got.push_back(w.dataset.drives[id].serial);
    EXPECT_EQ(got, want);
    EXPECT_EQ(w.dataset.drives.size(), 2 + want.size());
  }
  data::TrainingConfig tc;
  tc.good_samples_per_drive = 3;
  EXPECT_EQ(window_training(tc, 4).good_samples_per_drive, 12);
  EXPECT_EQ(window_training(tc, 0).good_samples_per_drive, 3);
}

TEST(Gate, RejectsWhenWindowHoldsNoData) {
  const auto r =
      train_and_gate({}, failed_pool(), 1, test_config(nullptr));
  EXPECT_EQ(r.outcome, Outcome::kRejectedNoData);
  EXPECT_EQ(r.candidate, nullptr);
}

TEST(Gate, RejectsWhenFailedPoolEmpty) {
  const auto r = train_and_gate(good_pool(), {}, 1, test_config(nullptr));
  EXPECT_EQ(r.outcome, Outcome::kRejectedNoData);
  EXPECT_EQ(r.candidate, nullptr);
}

TEST(Gate, LintFindingBlocksPromotion) {
  auto pc = test_config(nullptr);
  // Shrink the admissible leaf range so the +1 good leaves are provably out
  // of range — a deterministic verifier finding.
  pc.verify.value_hi = 0.0;
  const auto r = train_and_gate(good_pool(), failed_pool(), 1, pc);
  EXPECT_EQ(r.outcome, Outcome::kRejectedLint);
  EXPECT_EQ(r.candidate, nullptr);
  EXPECT_FALSE(r.reason.empty());
}

TEST(Gate, GuardrailBreachBlocksPromotion) {
  auto pc = test_config(nullptr);
  pc.guardrail.min_fdr = 1.01;  // unsatisfiable rail
  const auto r = train_and_gate(good_pool(), failed_pool(), 1, pc);
  EXPECT_EQ(r.outcome, Outcome::kRejectedGuardrail);
  EXPECT_EQ(r.candidate, nullptr);
  EXPECT_NE(r.reason.find("min_fdr"), std::string::npos);
}

TEST(Gate, PromotesSeparableCandidate) {
  const auto r =
      train_and_gate(good_pool(), failed_pool(), 1, test_config(nullptr));
  ASSERT_EQ(r.outcome, Outcome::kPromoted) << r.reason;
  ASSERT_NE(r.candidate, nullptr);
  EXPECT_EQ(r.candidate->num_features(), 2);
  EXPECT_GT(r.train_rows, 0u);
  // The pools are cleanly separable, so the held-back slice is perfect.
  EXPECT_EQ(r.val_fdr, 1.0);
  EXPECT_EQ(r.val_far, 0.0);
}

TEST(Gate, SameSeedSameCandidate) {
  const auto pc = test_config(nullptr);
  const auto a = train_and_gate(good_pool(), failed_pool(), 1, pc);
  const auto b = train_and_gate(good_pool(), failed_pool(), 1, pc);
  ASSERT_EQ(a.outcome, Outcome::kPromoted);
  ASSERT_EQ(b.outcome, Outcome::kPromoted);
  std::ostringstream sa, sb;
  a.candidate->save(sa);
  b.candidate->save(sb);
  EXPECT_EQ(sa.str(), sb.str());
}

// ---------------------------------------------------------------------------
// UpdatePipeline over a real store

TEST_F(PipelineTest, PromotionIsJournalFirstAndBumpsGeneration) {
  obs::Registry reg;
  store::TelemetryStore st((base_dir_ / "s").string());
  ingest_goods(st);

  const auto seed = train_and_gate(good_pool(), failed_pool(), 1,
                                   test_config(nullptr));
  ASSERT_EQ(seed.outcome, Outcome::kPromoted);
  core::SwappableScorer slot(seed.candidate, 0);

  auto pc = test_config(&reg);
  UpdatePipeline pipe(slot, st, failed_pool(), pc);
  const auto r = pipe.run_cycle(/*force=*/true);
  ASSERT_EQ(r.outcome, Outcome::kPromoted) << r.reason;
  EXPECT_EQ(r.generation, 1u);
  EXPECT_EQ(slot.generation(), 1u);
  ASSERT_TRUE(st.latest_generation().has_value());
  EXPECT_EQ(st.latest_generation()->generation, 1u);
  // The journaled text is the promoted model, byte for byte.
  std::ostringstream os;
  slot.current()->save(os);
  EXPECT_EQ(st.latest_generation()->model_text, os.str());
  EXPECT_EQ(reg.counter("hdd_pipeline_promotions_total", "").value(), 1u);
  EXPECT_EQ(reg.gauge("hdd_pipeline_generation", "").value(), 1.0);
}

// A store can hold a generation its scorer is not on: a promotion that
// journaled but never swapped (or journaled into only some stores). The
// next promotion numbers above the journal, so no number names two
// models.
TEST_F(PipelineTest, PromotionNumbersAboveTheJournaledGeneration) {
  obs::Registry reg;
  store::TelemetryStore st((base_dir_ / "s").string());
  ingest_goods(st);
  st.append_generation(1, "a model journaled but never swapped in");

  const auto seed = train_and_gate(good_pool(), failed_pool(), 1,
                                   test_config(nullptr));
  ASSERT_EQ(seed.outcome, Outcome::kPromoted);
  core::SwappableScorer slot(seed.candidate, 0);
  UpdatePipeline pipe(slot, st, failed_pool(), test_config(&reg));
  const auto r = pipe.run_cycle(/*force=*/true);
  ASSERT_EQ(r.outcome, Outcome::kPromoted) << r.reason;
  EXPECT_EQ(r.generation, 2u);
  EXPECT_EQ(slot.generation(), 2u);
  ASSERT_TRUE(st.latest_generation().has_value());
  EXPECT_EQ(st.latest_generation()->generation, 2u);
  std::ostringstream os;
  slot.current()->save(os);
  EXPECT_EQ(st.latest_generation()->model_text, os.str());
  EXPECT_EQ(reg.gauge("hdd_pipeline_generation", "").value(), 2.0);
}

TEST_F(PipelineTest, RejectedCandidateNeverAltersScoring) {
  obs::Registry reg;
  store::TelemetryStore st((base_dir_ / "s").string());
  ingest_goods(st);

  const auto seed = train_and_gate(good_pool(), failed_pool(), 1,
                                   test_config(nullptr));
  ASSERT_EQ(seed.outcome, Outcome::kPromoted);
  core::SwappableScorer slot(seed.candidate, 0);
  const auto incumbent = slot.current();

  auto pc = test_config(&reg);
  pc.guardrail.min_fdr = 1.01;
  UpdatePipeline pipe(slot, st, failed_pool(), pc);
  const auto r = pipe.run_cycle(/*force=*/true);
  EXPECT_EQ(r.outcome, Outcome::kRejectedGuardrail);
  // No swap, no journal record, and the reason counter moved.
  EXPECT_EQ(slot.current(), incumbent);
  EXPECT_EQ(slot.generation(), 0u);
  EXPECT_FALSE(st.latest_generation().has_value());
  EXPECT_EQ(reg.counter("hdd_pipeline_rejections_total", "",
                        {{"reason", "guardrail"}})
                .value(),
            1u);
  EXPECT_EQ(reg.counter("hdd_pipeline_promotions_total", "").value(), 0u);
}

TEST_F(PipelineTest, SkipsWhenSchedulerNotDue) {
  obs::Registry reg;
  store::TelemetryStore st((base_dir_ / "s").string());
  ingest_goods(st);
  const auto seed = train_and_gate(good_pool(), failed_pool(), 1,
                                   test_config(nullptr));
  ASSERT_EQ(seed.outcome, Outcome::kPromoted);
  core::SwappableScorer slot(seed.candidate, 0);

  UpdatePipeline pipe(slot, st, failed_pool(), test_config(&reg));
  ASSERT_EQ(pipe.run_cycle(/*force=*/true).outcome, Outcome::kPromoted);
  // Same watermark, un-forced: nothing is due, nothing trains.
  const auto r = pipe.run_cycle(/*force=*/false);
  EXPECT_EQ(r.outcome, Outcome::kSkipped);
  EXPECT_EQ(slot.generation(), 1u);
  EXPECT_EQ(reg.counter("hdd_pipeline_retrain_cycles_total", "").value(), 1u);
}

TEST_F(PipelineTest, RuntimeRestoresJournaledGenerationOnRestart) {
  const auto seed = train_and_gate(good_pool(), failed_pool(), 1,
                                   test_config(nullptr));
  ASSERT_EQ(seed.outcome, Outcome::kPromoted);
  std::string promoted_text;
  {
    store::TelemetryStore st((base_dir_ / "s").string());
    ingest_goods(st);
    core::SwappableScorer slot(seed.candidate, 0);
    UpdatePipeline pipe(slot, st, failed_pool(), test_config(nullptr));
    ASSERT_EQ(pipe.run_cycle(/*force=*/true).outcome, Outcome::kPromoted);
    std::ostringstream os;
    slot.current()->save(os);
    promoted_text = os.str();
    st.flush();
  }
  // A restart — hot-swappable or not — must score with the promoted
  // generation, not the configured seed model.
  for (const bool swappable : {true, false}) {
    core::FleetRuntimeConfig rc;
    rc.scorer = seed.candidate.get();
    rc.store_dir = (base_dir_ / "s").string();
    rc.features = two_features();
    rc.vote.voters = 5;
    rc.hot_swappable = swappable;
    core::FleetRuntime rt(rc);
    EXPECT_EQ(rt.model_generation(), 1u) << "swappable=" << swappable;
    std::ostringstream os;
    rt.scorer().save(os);
    EXPECT_EQ(os.str(), promoted_text) << "swappable=" << swappable;
  }
}

// ---------------------------------------------------------------------------
// Shadow scoring

// Always votes the opposite sign of the separable goods: every shadow row
// diverges.
class ContrarianScorer final : public core::SampleScorer {
 public:
  double predict(std::span<const float> x) const override {
    return x[0] > 0.0f ? -1.0 : 1.0;
  }
  void predict_batch(std::span<const float> xs,
                     std::span<double> out) const override {
    for (std::size_t r = 0; r < out.size(); ++r) {
      out[r] = predict(xs.subspan(2 * r, 2));
    }
  }
  int num_features() const override { return 2; }
  std::string summary() const override { return "contrarian"; }
};

TEST_F(PipelineTest, ShadowCountersTrackDivergence) {
  obs::Registry reg;
  const auto seed = train_and_gate(good_pool(), failed_pool(), 1,
                                   test_config(nullptr));
  ASSERT_EQ(seed.outcome, Outcome::kPromoted);

  core::FleetScorerConfig fc;
  fc.features = two_features();
  fc.vote.voters = 5;
  fc.block_rows = 4;
  fc.metrics = &reg;
  core::FleetScorer fleet(*seed.candidate, fc);
  for (std::uint32_t d = 0; d < 4; ++d) {
    fleet.add_drive("good-" + std::to_string(d));
  }

  // No shadow installed: live scoring leaves the counters untouched.
  std::vector<smart::Sample> interval(4);
  for (std::uint32_t d = 0; d < 4; ++d) interval[d] = sample_at(d, 0, 0.8f);
  fleet.observe_samples(interval, 0);
  EXPECT_EQ(fleet.shadow_stats().samples, 0u);

  fleet.set_shadow(std::make_shared<ContrarianScorer>());
  for (std::int64_t h = 1; h <= 10; ++h) {
    for (std::uint32_t d = 0; d < 4; ++d) interval[d] = sample_at(d, h, 0.8f);
    fleet.observe_samples(interval, h);
  }
  const auto sh = fleet.shadow_stats();
  EXPECT_EQ(sh.samples, 40u);
  EXPECT_EQ(sh.divergence, 40u);  // the contrarian disagrees on every row
  EXPECT_GT(sh.vote_flips, 0u);
  EXPECT_EQ(reg.counter("hdd_pipeline_shadow_samples_total", "").value(),
            40u);
  EXPECT_EQ(reg.counter("hdd_pipeline_shadow_divergence_total", "").value(),
            40u);

  // Uninstalling stops shadow scoring; counters freeze.
  fleet.set_shadow(nullptr);
  for (std::uint32_t d = 0; d < 4; ++d) interval[d] = sample_at(d, 11, 0.8f);
  fleet.observe_samples(interval, 11);
  EXPECT_EQ(fleet.shadow_stats().samples, 40u);
}

TEST_F(PipelineTest, ShadowRejectsFeatureWidthMismatch) {
  const auto seed = train_and_gate(good_pool(), failed_pool(), 1,
                                   test_config(nullptr));
  ASSERT_EQ(seed.outcome, Outcome::kPromoted);
  core::FleetScorerConfig fc;
  fc.features = two_features();
  core::FleetScorer fleet(*seed.candidate, fc);
  class OneFeature final : public core::SampleScorer {
   public:
    double predict(std::span<const float>) const override { return 1.0; }
    void predict_batch(std::span<const float>,
                       std::span<double> out) const override {
      for (auto& o : out) o = 1.0;
    }
    int num_features() const override { return 1; }
    std::string summary() const override { return "one"; }
  };
  EXPECT_THROW(fleet.set_shadow(std::make_shared<OneFeature>()), ConfigError);
}

// ---------------------------------------------------------------------------
// Hot swap concurrent with live scoring (TSan canary)

TEST_F(PipelineTest, HotSwapConcurrentWithScoringAndIngest) {
  const auto seed = train_and_gate(good_pool(), failed_pool(), 1,
                                   test_config(nullptr));
  ASSERT_EQ(seed.outcome, Outcome::kPromoted);
  core::SwappableScorer slot(seed.candidate, 0);
  const auto contrarian = std::make_shared<const ContrarianScorer>();

  core::FleetScorerConfig fc;
  fc.features = two_features();
  fc.vote.voters = 5;
  fc.block_rows = 4;
  core::FleetScorer fleet(slot, fc);
  constexpr std::uint32_t kFleet = 8;
  for (std::uint32_t d = 0; d < kFleet; ++d) {
    fleet.add_drive("d-" + std::to_string(d));
  }

  // One controller thread promotes generations and toggles the shadow while
  // the scoring thread streams intervals and per-drive backfills — the
  // exact concurrency the serve daemon runs under TSan.
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> swaps{0};
  std::thread controller([&] {
    std::uint64_t gen = 0;
    while (!done.load(std::memory_order_acquire)) {
      ++gen;
      slot.swap(gen % 2 == 0 ? seed.candidate : contrarian, gen);
      fleet.set_shadow(gen % 3 == 0 ? contrarian : nullptr);
      swaps.store(gen, std::memory_order_release);
      std::this_thread::yield();
    }
  });

  // Alternate between the two live paths: even hours arrive as a full
  // fleet interval, odd hours as per-drive ingest batches. Hours stay
  // strictly ascending per drive, as the API requires. Any exception is
  // captured so the controller is always joined before the test reports.
  // Run at least kHours intervals, then keep streaming (on a single-core
  // host the scoring loop can finish before the controller is scheduled
  // even once) until a healthy number of swaps has raced against scoring.
  constexpr std::int64_t kHours = 200;
  constexpr std::int64_t kMaxHours = 200000;
  std::int64_t hours_run = 0;
  std::string error;
  try {
    std::vector<smart::Sample> interval(kFleet);
    for (std::int64_t h = 0;
         h < kHours ||
         (swaps.load(std::memory_order_acquire) < 25 && h < kMaxHours);
         ++h, ++hours_run) {
      if (h % 2 == 0) {
        for (std::uint32_t d = 0; d < kFleet; ++d) {
          interval[d] = sample_at(d, h, d % 2 == 0 ? 0.8f : -0.8f);
        }
        fleet.observe_samples(interval, h);
      } else {
        for (std::uint32_t d = 0; d < kFleet; ++d) {
          const std::vector<smart::Sample> one = {
              sample_at(d, h, d % 2 == 0 ? 0.8f : -0.8f)};
          fleet.ingest_drive(d, one);
        }
      }
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
  done.store(true, std::memory_order_release);
  controller.join();
  ASSERT_TRUE(error.empty()) << "scoring path threw: " << error;

  // Liveness + sanity: every drive kept scoring across the swaps (an
  // alarmed drive freezes its counter, so only a lower bound holds), and
  // alarm state stayed coherent. TSan is the real assertion here.
  for (std::uint32_t d = 0; d < kFleet; ++d) {
    EXPECT_GT(fleet.state(d).samples_seen(), 0) << "drive " << d;
    if (fleet.state(d).alarmed()) {
      EXPECT_GE(fleet.state(d).alarm_hour(), 0) << "drive " << d;
      EXPECT_LT(fleet.state(d).alarm_hour(), hours_run) << "drive " << d;
    }
  }
  EXPECT_GT(slot.generation(), 0u);
}

// ---------------------------------------------------------------------------
// Kill -9 during promotion: 200 seeded crash points

TEST_F(PipelineTest, KillDuringPromotionResumesToJournaledGeneration) {
  // Reference: an unfaulted run's journaled model text (training is a pure
  // function of the store content + config seed).
  std::string ref_text;
  std::shared_ptr<const core::SampleScorer> seed_model;
  {
    store::TelemetryStore st((base_dir_ / "ref").string());
    ingest_goods(st);
    const auto gate = train_and_gate(good_pool(), failed_pool(), 1,
                                     test_config(nullptr));
    ASSERT_EQ(gate.outcome, Outcome::kPromoted);
    seed_model = gate.candidate;
    core::SwappableScorer slot(gate.candidate, 0);
    UpdatePipeline pipe(slot, st, failed_pool(), test_config(nullptr));
    ASSERT_EQ(pipe.run_cycle(/*force=*/true).outcome, Outcome::kPromoted);
    ASSERT_TRUE(st.latest_generation().has_value());
    ref_text = st.latest_generation()->model_text;
  }

  // Ops consumed by the setup (ingest) and by one full promotion cycle,
  // measured on a fault-free plan so the crash window can be pinned to the
  // promotion itself.
  std::uint64_t ops_before = 0, ops_total = 0;
  {
    const fs::path dir = base_dir_ / "cal";
    io::FaultEnv fenv(io::Env::posix(), io::FaultPlan{});
    store::StoreOptions so;
    so.env = &fenv;
    store::TelemetryStore st(dir.string(), so);
    ingest_goods(st);
    ops_before = fenv.ops();
    const auto gate = train_and_gate(good_pool(), failed_pool(), 1,
                                     test_config(nullptr));
    core::SwappableScorer slot(gate.candidate, 0);
    UpdatePipeline pipe(slot, st, failed_pool(), test_config(nullptr));
    ASSERT_EQ(pipe.run_cycle(/*force=*/true).outcome, Outcome::kPromoted);
    ops_total = fenv.ops();
  }
  ASSERT_GT(ops_total, ops_before);
  const std::uint64_t span = ops_total - ops_before;

  std::size_t n_seed_model = 0;
  std::size_t n_promoted = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const fs::path dir = base_dir_ / ("s" + std::to_string(seed));
    io::FaultPlan plan;
    plan.seed = seed;
    // Crash points sweep the promotion's own mutating ops (the generation
    // append is dropped or torn — the incumbent survives) and an equal
    // stretch beyond them (the kill lands after the record is durable —
    // the promotion survives). Both sides of the journal-first line.
    plan.crash_at_op = ops_before + 1 + (seed % (2 * span));
    plan.torn_crash = seed % 2 == 0;
    io::FaultEnv fenv(io::Env::posix(), plan);
    bool crashed = false;
    try {
      store::StoreOptions so;
      so.env = &fenv;
      store::TelemetryStore st(dir.string(), so);
      ingest_goods(st);
      const auto gate = train_and_gate(good_pool(), failed_pool(), 1,
                                       test_config(nullptr));
      core::SwappableScorer slot(gate.candidate, 0);
      UpdatePipeline pipe(slot, st, failed_pool(), test_config(nullptr));
      (void)pipe.run_cycle(/*force=*/true);
    } catch (const io::CrashPoint&) {
      crashed = true;  // the simulated kill -9
    }
    ASSERT_TRUE(crashed || fenv.crashed() || plan.crash_at_op > ops_total)
        << "seed " << seed;

    // A fresh process on healthy hardware: recovery must land on exactly
    // one of the two well-defined generations — the seed model (record not
    // yet durable) or generation 1 with the byte-identical promoted model.
    store::TelemetryStore st(dir.string());
    if (st.latest_generation().has_value()) {
      ++n_promoted;
      EXPECT_EQ(st.latest_generation()->generation, 1u) << "seed " << seed;
      EXPECT_EQ(st.latest_generation()->model_text, ref_text)
          << "seed " << seed;
      // A restart's runtime loads the journaled text as its live model.
      core::FleetRuntimeConfig rc;
      rc.scorer = seed_model.get();
      rc.store_dir = dir.string();
      rc.features = two_features();
      const core::FleetRuntime rt(rc);
      EXPECT_EQ(rt.model_generation(), 1u) << "seed " << seed;
      std::ostringstream os;
      rt.scorer().save(os);
      EXPECT_EQ(os.str(), ref_text) << "seed " << seed;
    } else {
      ++n_seed_model;
    }
  }
  // The crash schedule must exercise both sides of the journal-first line.
  EXPECT_GT(n_seed_model, 10u);
  EXPECT_GT(n_promoted, 10u);
}

// ---------------------------------------------------------------------------
// Drifting fleet: successive generations track the new regime

TEST_F(PipelineTest, DriftingFleetAdaptsAcrossGenerations) {
  // Week 1 goods live at +0.8; weeks 2-3 the population drifts to -0.3
  // (still healthy, but on the old model's failure side). A replacing
  // strategy retrains on the newest window and the promoted generation
  // stops false-alarming on the drifted regime.
  store::TelemetryStore st((base_dir_ / "s").string());
  for (std::uint32_t d = 0; d < kGoods; ++d) {
    const auto id = st.register_drive("good-" + std::to_string(d));
    for (std::int64_t h = 0; h < 3 * kWeek; ++h) {
      const float bias = h < kWeek ? 0.8f : -0.3f;
      st.append(id, sample_at(d, h, bias));
    }
  }
  st.flush();

  // Failed drives sit at -0.8, below the drifted goods at -0.3; the seed
  // model's split (goods at +0.8 vs fails at -0.8) lands near 0, so the
  // drifted regime falls on its failure side.
  const auto fails = failed_pool();
  const auto seed = train_and_gate(good_pool(), fails, 1,
                                   test_config(nullptr));
  ASSERT_EQ(seed.outcome, Outcome::kPromoted);
  core::SwappableScorer slot(seed.candidate, 0);

  auto pc = test_config(nullptr);
  pc.scheduler.strategy = Strategy::kReplacing;
  pc.scheduler.replace_cycle_weeks = 1;
  UpdatePipeline pipe(slot, st, fails, pc);
  const auto r = pipe.run_cycle(/*force=*/true);
  ASSERT_EQ(r.outcome, Outcome::kPromoted) << r.reason;
  EXPECT_EQ(slot.generation(), 1u);

  // The retrained generation separates drifted goods from failures...
  std::vector<float> drifted = {-0.3f, 0.0f};
  std::vector<float> failing = {-0.8f, 0.0f};
  const auto gen1 = slot.current();
  EXPECT_GT(gen1->predict(drifted), 0.0) << "drifted good misclassified";
  EXPECT_LT(gen1->predict(failing), 0.0);
  // ...where the week-1 incumbent called the drifted regime a failure.
  EXPECT_LT(seed.candidate->predict(drifted), 0.0);
}

// Cross-family drift on the real simulator (paper Section V: families W
// and Q fail differently). A CT incumbent trained on a family-W fleet is
// deployed in front of a *down-sampled* family-Q datacenter — the small-
// population transfer scenario — whose live telemetry fills the store.
// One forced pipeline cycle must retrain from that store, clear the lint
// and guardrail gates against held-back Q drives, and promote; the
// promoted generation must catch at least as many held-out Q failures as
// the W incumbent, under the same voting rules the daemon applies.
TEST_F(PipelineTest, SimCrossFamilyDriftRetrainsFromLiveStore) {
  sim::FleetConfig wcfg;
  wcfg.seed = 33;
  wcfg.sample_interval_hours = 4;  // keep the suite quick
  wcfg.observation_weeks = 5;
  wcfg.failed_record_days = 20;
  wcfg.families.push_back({sim::family_w_profile(), 250, 40});
  const auto w = sim::generate_fleet(wcfg);

  sim::FleetConfig qcfg = wcfg;
  qcfg.seed = 34;
  qcfg.families = {{sim::family_q_profile(), 80, 24}};
  const auto q = sim::generate_fleet(qcfg);

  std::vector<smart::DriveRecord> w_goods, w_fails, q_goods, q_fails;
  for (const auto& d : w.drives) (d.failed ? w_fails : w_goods).push_back(d);
  for (const auto& d : q.drives) (d.failed ? q_fails : q_goods).push_back(d);

  // Half the Q failures feed the retrain pool (the operator's labeled
  // archive); the other half stay held out for the detection comparison.
  const std::size_t half = q_fails.size() / 2;
  const std::vector<smart::DriveRecord> q_pool(q_fails.begin(),
                                               q_fails.begin() + half);
  const std::vector<smart::DriveRecord> q_holdout(q_fails.begin() + half,
                                                  q_fails.end());

  PipelineConfig pc;
  pc.trainer = core::paper_ct_config();  // stat13 features, loss-matrix CT
  pc.scheduler.strategy = Strategy::kAccumulation;

  const auto seed = train_and_gate(w_goods, w_fails,
                                   wcfg.observation_weeks, pc);
  ASSERT_EQ(seed.outcome, Outcome::kPromoted) << seed.reason;
  core::SwappableScorer slot(seed.candidate, 0);

  // The Q datacenter's live telemetry: every good drive's record, as the
  // serve ingest path would have journaled it.
  store::TelemetryStore st((base_dir_ / "s").string());
  for (const auto& g : q_goods) {
    const auto id = st.register_drive(g.serial);
    for (const auto& s : g.samples) st.append(id, s);
  }
  st.flush();

  UpdatePipeline pipe(slot, st, q_pool, pc);
  const auto r = pipe.run_cycle(/*force=*/true);
  ASSERT_EQ(r.outcome, Outcome::kPromoted) << r.reason;
  EXPECT_EQ(slot.generation(), 1u);
  EXPECT_LE(r.val_far, 0.1);  // promoted candidate is quiet on Q goods

  // Detection under the daemon's voting rules: feed each held-out Q
  // failure's record through a fresh FleetScorer and count alarms.
  const auto detections = [&](const core::SampleScorer& model) {
    core::FleetScorerConfig fc;
    fc.features = pc.trainer.training.features;
    fc.vote = pc.trainer.vote;
    core::FleetScorer fleet(model, fc);
    for (std::size_t i = 0; i < q_holdout.size(); ++i) {
      fleet.add_drive(q_holdout[i].serial);
      fleet.ingest_drive(i, q_holdout[i].samples);
    }
    return fleet.alarm_count();
  };
  const auto gen1 = slot.current();
  const std::size_t w_hits = detections(*seed.candidate);
  const std::size_t q_hits = detections(*gen1);
  EXPECT_GE(q_hits, w_hits)
      << "Q-retrained generation must not detect fewer Q failures";
  EXPECT_GE(q_hits, q_holdout.size() / 2)
      << "adapted model misses most held-out Q failures";
}

}  // namespace
}  // namespace hdd::pipeline
