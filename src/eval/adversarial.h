// Adversarial SMART perturbation evaluation (DESIGN.md §13.4).
//
// How much deliberate, bounded measurement distortion does it take to
// change what the fleet-level detector says? Two attacks, mirroring the
// two ways a deployment fails:
//
//   * evade-detection — every sample of each failed test drive is
//     perturbed toward a healthy model output, within a per-feature L∞
//     budget. The resulting FDR drop says how much of the detection rests
//     on feature excursions smaller than the budget.
//   * trigger-alarm — every sample of each good test drive is perturbed
//     toward a failing output. The FAR rise says how close healthy
//     telemetry sits to the alarm surface.
//
// The budget for feature f at strength ε is ε * span(f), where span comes
// from the feature's declared domain (analysis::FeatureDomains — the
// Table II vendor scale for normalized levels, scale/h for change rates);
// features with unbounded declared domains (raw counters) fall back to
// the span observed across the evaluated samples. Perturbed values stay
// clamped inside the declared domain, so every adversarial sample is one
// a real collector could have reported.
//
// The optimizer is greedy coordinate descent: per sample, sweep the
// features, move each to whichever budget endpoint improves the attack
// objective most, repeat for a few passes or until the output sign flips.
// Tree models are piecewise constant, so endpoint probing per coordinate
// is exact for a single split boundary and cheap everywhere else.
//
// Degradations beyond the configured tolerances become analysis::
// diagnostics with the stable codes "fragile-detection" / "fragile-alarm"
// so `hddpredict adversary` findings land in the same lint taxonomy as
// the static verifier's.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "data/dataset.h"
#include "data/split.h"
#include "eval/detection.h"
#include "smart/features.h"

namespace hdd::eval {

struct AdversarialConfig {
  // Perturbation strengths as fractions of each feature's domain span.
  std::vector<double> epsilons = {0.01, 0.02, 0.05};
  VoteConfig vote;
  // Greedy coordinate descent sweeps per sample (descent stops early once
  // the sample's output sign matches the attack goal).
  int passes = 2;
  // Tolerances that turn a measurement into a lint finding: an absolute
  // FDR drop / FAR rise at-or-beyond these flags the model as fragile.
  double fdr_drop_warn = 0.10;
  double far_rise_warn = 0.05;
};

struct AdversarialPoint {
  double epsilon = 0.0;
  EvalResult evade;  // failed drives perturbed, good drives untouched
  EvalResult alarm;  // good drives perturbed, failed drives untouched
  // Samples the descent actually moved (an attack that needed no moves
  // found the model already mis-scoring).
  std::size_t evade_samples_moved = 0;
  std::size_t alarm_samples_moved = 0;
};

struct AdversarialResult {
  EvalResult baseline;
  std::vector<AdversarialPoint> points;  // one per configured epsilon
};

// Runs baseline + both attacks at every epsilon. The model is called
// O(passes * features * samples) times per attack; parallelized per
// drive.
AdversarialResult adversarial_evaluate(const data::DriveDataset& dataset,
                                       const data::DatasetSplit& split,
                                       const smart::FeatureSet& features,
                                       const BatchSampleModel& model,
                                       const AdversarialConfig& config);

// Lint findings for degradations beyond the config tolerances, one per
// attack direction at the smallest epsilon that crossed the line:
//   warning [fragile-detection] <model>:epsilon=0.02  FDR 0.86 -> 0.61 ...
//   warning [fragile-alarm]     <model>:epsilon=0.05  FAR 0.02 -> 0.11 ...
analysis::Report robustness_findings(const AdversarialResult& result,
                                     const AdversarialConfig& config,
                                     const std::string& model_name);

// One table row per epsilon / one JSON object mirroring the structs.
void print_text(const AdversarialResult& result, std::ostream& os);
void print_json(const AdversarialResult& result, std::ostream& os);

}  // namespace hdd::eval
