// Tests for src/eval/adversarial: bounded perturbation attacks against
// the voting detector, domain clamping, the observed-span fallback for
// raw counters, and the lint findings the measurements turn into.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"
#include "eval/adversarial.h"
#include "json_lite.h"

namespace hdd::eval {
namespace {

// One drive whose single tracked attribute holds `value` for `n` hours.
smart::DriveRecord make_drive(std::string serial, smart::Attr attr,
                              float value, bool failed, int n = 8) {
  smart::DriveRecord d;
  d.serial = std::move(serial);
  d.failed = failed;
  d.fail_hour = failed ? n - 1 : -1;
  for (int i = 0; i < n; ++i) {
    smart::Sample s;
    s.hour = i;
    s.set(attr, value);
    d.samples.push_back(s);
  }
  return d;
}

struct Fixture {
  data::DriveDataset dataset;
  data::DatasetSplit split;
  smart::FeatureSet features;

  Fixture(smart::Attr attr, float good_value, float failed_value,
          int n_good = 3, int n_failed = 3)
      : features{"one", {{attr, 0}}} {
    for (int i = 0; i < n_good; ++i) {
      split.good_drives.push_back(dataset.drives.size());
      split.good_test_begin.push_back(0);
      dataset.drives.push_back(
          make_drive("G" + std::to_string(i), attr, good_value, false));
    }
    for (int i = 0; i < n_failed; ++i) {
      split.test_failed.push_back(dataset.drives.size());
      dataset.drives.push_back(
          make_drive("F" + std::to_string(i), attr, failed_value, true));
    }
  }
};

// Margin = (x - 100) / span of the normalized domain: healthy above 100,
// failing below. A 2% budget (5.04 units) can cross the boundary only
// from values within ~5 units of it.
double boundary_model(std::span<const float> x) {
  return (static_cast<double>(x[0]) - 100.0) / 252.0;
}

TEST(Adversarial, EvadeAttackFlipsOnlyMarginalFailedDrives) {
  // Failed drives sit 3 units below the boundary, good drives 50 above:
  // a 2% budget rescues every failed drive and reaches no good drive.
  Fixture fx(smart::Attr::kSeekErrorRate, /*good=*/150.0f,
             /*failed=*/97.0f);
  AdversarialConfig cfg;
  cfg.epsilons = {0.02};
  cfg.vote.voters = 3;
  const auto r =
      adversarial_evaluate(fx.dataset, fx.split, fx.features,
                           per_row(boundary_model), cfg);
  EXPECT_DOUBLE_EQ(r.baseline.fdr(), 1.0);
  EXPECT_DOUBLE_EQ(r.baseline.far(), 0.0);
  ASSERT_EQ(r.points.size(), 1u);
  EXPECT_DOUBLE_EQ(r.points[0].evade.fdr(), 0.0);
  EXPECT_DOUBLE_EQ(r.points[0].alarm.far(), 0.0);
  EXPECT_GT(r.points[0].evade_samples_moved, 0u);
  // The alarm attack ran but had nowhere to go within budget.
  EXPECT_DOUBLE_EQ(r.points[0].evade.far(), 0.0)
      << "evade attack must leave good drives at their baseline scores";
}

TEST(Adversarial, AlarmAttackRaisesFarOnMarginalGoodDrives) {
  Fixture fx(smart::Attr::kSeekErrorRate, /*good=*/103.0f,
             /*failed=*/50.0f);
  AdversarialConfig cfg;
  cfg.epsilons = {0.02};
  cfg.vote.voters = 3;
  const auto r =
      adversarial_evaluate(fx.dataset, fx.split, fx.features,
                           per_row(boundary_model), cfg);
  EXPECT_DOUBLE_EQ(r.baseline.far(), 0.0);
  ASSERT_EQ(r.points.size(), 1u);
  EXPECT_DOUBLE_EQ(r.points[0].alarm.far(), 1.0);
  EXPECT_DOUBLE_EQ(r.points[0].alarm.fdr(), r.baseline.fdr())
      << "alarm attack must leave failed drives at their baseline scores";
}

TEST(Adversarial, PerturbationsStayClampedInsideTheDeclaredDomain) {
  // Healthy margin shrinks as x falls, but the normalized domain floors
  // at 1, where the margin is still +0.5: even an unlimited (epsilon=1)
  // alarm attack must fail. If clamping broke, x could reach 2-252 and
  // the margin would go far negative.
  Fixture fx(smart::Attr::kSeekErrorRate, /*good=*/2.0f, /*failed=*/2.0f);
  AdversarialConfig cfg;
  cfg.epsilons = {1.0};
  cfg.vote.voters = 3;
  const auto r = adversarial_evaluate(
      fx.dataset, fx.split, fx.features,
      per_row([](std::span<const float> x) {
        return static_cast<double>(x[0]) - 0.5;
      }),
      cfg);
  ASSERT_EQ(r.points.size(), 1u);
  EXPECT_DOUBLE_EQ(r.points[0].alarm.far(), 0.0);
}

TEST(Adversarial, RawCountersFallBackToTheObservedSpan) {
  // kReallocatedSectorsRaw's declared domain is [0, inf): the budget must
  // come from the observed span instead. Values observed across the test
  // drives span [4, 54] = 50, so epsilon=0.1 moves up to 5 units — enough
  // to push the good drives (margin +1 at x=4) past x=5 into alarm. A
  // broken fallback would yield a zero (or non-finite) step and no moves.
  Fixture fx(smart::Attr::kReallocatedSectorsRaw, /*good=*/4.0f,
             /*failed=*/54.0f);
  AdversarialConfig cfg;
  cfg.epsilons = {0.1};
  cfg.vote.voters = 3;
  const auto r = adversarial_evaluate(
      fx.dataset, fx.split, fx.features,
      per_row([](std::span<const float> x) {
        return 5.0 - static_cast<double>(x[0]);
      }),
      cfg);
  EXPECT_DOUBLE_EQ(r.baseline.far(), 0.0);
  ASSERT_EQ(r.points.size(), 1u);
  EXPECT_DOUBLE_EQ(r.points[0].alarm.far(), 1.0);
  EXPECT_GT(r.points[0].alarm_samples_moved, 0u);
}

TEST(Adversarial, FindingsFlagTheSmallestCrossingEpsilon) {
  // Failed drives 3 units below the boundary: a 1% budget (2.52) cannot
  // rescue them, a 2% budget (5.04) rescues all of them. The finding must
  // name epsilon=0.02, not 0.05.
  Fixture fx(smart::Attr::kSeekErrorRate, /*good=*/150.0f,
             /*failed=*/97.0f);
  AdversarialConfig cfg;
  cfg.epsilons = {0.01, 0.02, 0.05};
  cfg.vote.voters = 3;
  const auto r =
      adversarial_evaluate(fx.dataset, fx.split, fx.features,
                           per_row(boundary_model), cfg);
  const auto report = robustness_findings(r, cfg, "m.model");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  const auto& d = report.diagnostics[0];
  EXPECT_EQ(d.severity, analysis::Severity::kWarning);
  EXPECT_EQ(d.code, "fragile-detection");
  EXPECT_EQ(d.model_path, "m.model");
  EXPECT_EQ(d.location, "epsilon=0.020");
}

TEST(Adversarial, NoFindingsWhenDegradationIsWithinTolerance) {
  Fixture fx(smart::Attr::kSeekErrorRate, /*good=*/150.0f,
             /*failed=*/97.0f);
  AdversarialConfig cfg;
  cfg.epsilons = {0.02};
  cfg.vote.voters = 3;
  cfg.fdr_drop_warn = 1.5;  // unreachable: FDR drops are at most 1.0
  cfg.far_rise_warn = 1.5;
  const auto r =
      adversarial_evaluate(fx.dataset, fx.split, fx.features,
                           per_row(boundary_model), cfg);
  const auto report = robustness_findings(r, cfg, "m.model");
  EXPECT_FALSE(report.has_findings());
}

TEST(Adversarial, FragileAlarmFindingUsesItsOwnCode) {
  Fixture fx(smart::Attr::kSeekErrorRate, /*good=*/103.0f,
             /*failed=*/50.0f);
  AdversarialConfig cfg;
  cfg.epsilons = {0.02};
  cfg.vote.voters = 3;
  const auto r =
      adversarial_evaluate(fx.dataset, fx.split, fx.features,
                           per_row(boundary_model), cfg);
  const auto report = robustness_findings(r, cfg, "m.model");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].code, "fragile-alarm");
}

TEST(Adversarial, JsonOutputIsWellFormed) {
  Fixture fx(smart::Attr::kSeekErrorRate, /*good=*/150.0f,
             /*failed=*/97.0f);
  AdversarialConfig cfg;
  cfg.epsilons = {0.01, 0.02};
  cfg.vote.voters = 3;
  const auto r =
      adversarial_evaluate(fx.dataset, fx.split, fx.features,
                           per_row(boundary_model), cfg);
  std::ostringstream os;
  print_json(r, os);
  const std::string json = os.str();
  EXPECT_TRUE(testjson::Checker(json).valid()) << json;
  EXPECT_NE(json.find("\"epsilon\":0.01"), std::string::npos);
  EXPECT_NE(json.find("\"evade_fdr\""), std::string::npos);
  EXPECT_NE(json.find("\"alarm_far\""), std::string::npos);
}

TEST(Adversarial, RejectsOutOfRangeEpsilon) {
  Fixture fx(smart::Attr::kSeekErrorRate, 150.0f, 97.0f);
  AdversarialConfig cfg;
  cfg.epsilons = {0.0};
  EXPECT_THROW(adversarial_evaluate(fx.dataset, fx.split, fx.features,
                                    per_row(boundary_model), cfg),
               ConfigError);
  cfg.epsilons = {1.5};
  EXPECT_THROW(adversarial_evaluate(fx.dataset, fx.split, fx.features,
                                    per_row(boundary_model), cfg),
               ConfigError);
}

}  // namespace
}  // namespace hdd::eval
