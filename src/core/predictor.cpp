#include "core/predictor.h"

#include <sstream>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hdd::core {

const char* model_type_name(ModelType t) {
  switch (t) {
    case ModelType::kClassificationTree: return "CT";
    case ModelType::kRegressionTree: return "RT";
    case ModelType::kBpAnn: return "BP ANN";
    case ModelType::kRandomForest: return "RandomForest";
    case ModelType::kAdaBoost: return "AdaBoost";
  }
  throw ConfigError("model_type_name: out-of-range ModelType value " +
                    std::to_string(static_cast<int>(t)));
}

void PredictorConfig::validate() const {
  model_type_name(model);  // rejects out-of-range enum values
  HDD_REQUIRE(!training.features.specs.empty(),
              "predictor needs a non-empty feature set");
  HDD_REQUIRE(training.good_samples_per_drive >= 1,
              "training.good_samples_per_drive must be >= 1");
  HDD_REQUIRE(training.failed_window_hours >= 1,
              "training.failed_window_hours must be >= 1");
  HDD_REQUIRE(training.failed_samples_per_drive >= 0,
              "training.failed_samples_per_drive must be >= 0");
  HDD_REQUIRE(training.failed_prior < 1.0,
              "training.failed_prior must be < 1 (1 would erase good drives)");
  HDD_REQUIRE(training.loss_false_alarm > 0.0,
              "training.loss_false_alarm must be positive");
  HDD_REQUIRE(training.loss_missed_detection > 0.0,
              "training.loss_missed_detection must be positive");
  HDD_REQUIRE(vote.voters >= 1, "vote.voters must be >= 1");
  switch (model) {
    case ModelType::kClassificationTree:
    case ModelType::kRegressionTree:
      tree_params.validate();
      break;
    case ModelType::kBpAnn:
      ann.validate();
      break;
    case ModelType::kRandomForest:
      forest.validate();
      break;
    case ModelType::kAdaBoost:
      adaboost.validate();
      break;
  }
}

PredictorConfig paper_ct_config() {
  PredictorConfig c;
  c.model = ModelType::kClassificationTree;
  c.training.features = smart::stat13_features();
  c.training.good_samples_per_drive = 3;
  c.training.failed_window_hours = 168;
  c.training.failed_prior = 0.20;
  c.training.loss_false_alarm = 10.0;
  c.tree_params.min_split = 20;
  c.tree_params.min_bucket = 7;
  c.tree_params.cp = 0.001;
  c.vote.voters = 11;
  return c;
}

PredictorConfig paper_ann_config() {
  PredictorConfig c;
  c.model = ModelType::kBpAnn;
  c.training.features = smart::stat13_features();
  c.training.good_samples_per_drive = 3;
  c.training.failed_window_hours = 12;  // [11]'s window
  c.training.failed_prior = 0.0;        // the ANN paper did not reweight
  c.training.loss_false_alarm = 1.0;
  c.ann.hidden = c.training.features.size();  // 13-13-1
  c.ann.learning_rate = 0.1;
  c.ann.epochs = 400;
  c.vote.voters = 11;
  return c;
}

PredictorConfig paper_rt_classifier_config() {
  PredictorConfig c = paper_ct_config();
  c.model = ModelType::kRegressionTree;
  c.vote.average_mode = true;
  c.vote.threshold = 0.0;
  return c;
}

PredictorConfig forest_config() {
  PredictorConfig c = paper_ct_config();
  c.model = ModelType::kRandomForest;
  c.forest.n_trees = 40;
  c.forest.feature_fraction = 0.6;
  c.forest.tree_params = c.tree_params;
  return c;
}

namespace {
constexpr PresetInfo kPresets[] = {
    {"ct", "paper CT: stat13, 168 h window, 10:1 loss, 11 voters",
     &paper_ct_config},
    {"ann", "BP ANN baseline per [11]: 13-13-1, 12 h window",
     &paper_ann_config},
    {"rt", "RT classifier control (Figure 10, average-mode vote)",
     &paper_rt_classifier_config},
    {"forest", "random forest over the CT settings (40 trees, 0.6 subspace)",
     &forest_config},
};
}  // namespace

std::span<const PresetInfo> presets() { return kPresets; }

PredictorConfig preset(std::string_view name) {
  for (const PresetInfo& p : kPresets) {
    if (p.name == name) return p.make();
  }
  std::ostringstream os;
  os << "unknown preset \"" << name << "\" (known:";
  for (const PresetInfo& p : kPresets) os << ' ' << p.name;
  os << ')';
  throw ConfigError(os.str());
}

FailurePredictor::FailurePredictor(PredictorConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

void FailurePredictor::fit(const data::DriveDataset& dataset,
                           const data::DatasetSplit& split) {
  const obs::ScopedSpan span(
      "train.fit", &obs::Registry::global().histogram(
                       "hdd_train_fit_ns", "Predictor fit wall time (ns)."));
  const auto matrix =
      data::build_training_matrix(dataset, split, config_.training);
  scorer_.reset();
  scorer_ = fit_scorer(config_, matrix);
}

const SampleScorer& FailurePredictor::scorer() const {
  HDD_REQUIRE(trained(), "predictor is not trained");
  return *scorer_;
}

eval::BatchSampleModel FailurePredictor::sample_model() const {
  const SampleScorer* s = &scorer();
  return [s](std::span<const float> xs, std::span<double> out) {
    s->predict_batch(xs, out);
  };
}

double FailurePredictor::score_sample(const smart::DriveRecord& drive,
                                      std::size_t sample_index) const {
  const auto row = smart::extract_features(drive, sample_index,
                                           config_.training.features);
  HDD_REQUIRE(row.has_value(), "sample index out of range");
  return scorer().predict(*row);
}

eval::DriveOutcome FailurePredictor::detect(const smart::DriveRecord& drive,
                                            std::size_t begin_index) const {
  const auto scores = eval::score_record_batch(
      drive, begin_index, config_.training.features, sample_model());
  return eval::vote_drive(scores, config_.vote);
}

eval::EvalResult FailurePredictor::evaluate(
    const data::DriveDataset& dataset,
    const data::DatasetSplit& split) const {
  return eval::evaluate_batch(dataset, split, config_.training.features,
                              sample_model(), config_.vote);
}

const tree::DecisionTree* FailurePredictor::tree() const {
  return scorer_ ? scorer_->tree() : nullptr;
}

std::string FailurePredictor::describe() const {
  std::ostringstream os;
  os << model_type_name(config_.model) << " on "
     << config_.training.features.name << " ("
     << config_.training.features.size() << " features), failed window "
     << config_.training.failed_window_hours << "h, voters "
     << config_.vote.voters;
  if (scorer_) os << "; " << scorer_->summary();
  return os.str();
}

}  // namespace hdd::core
