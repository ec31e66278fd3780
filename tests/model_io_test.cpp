// Persistence round-trip tests for every serializable model: tree (via the
// tree module and the core delegate), random forest, and MLP — plus the
// verify-on-load modes and the header-sniffing AnyModel loader.
#include <gtest/gtest.h>

#include <sstream>
#include <variant>

#include "ann/mlp.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/model_io.h"
#include "forest/random_forest.h"
#include "tree/tree.h"

namespace hdd {
namespace {

data::DataMatrix random_matrix(std::uint64_t seed, int cols, int rows) {
  Rng rng(seed);
  data::DataMatrix m(cols);
  std::vector<float> row(static_cast<std::size_t>(cols));
  for (int i = 0; i < rows; ++i) {
    for (auto& v : row) v = static_cast<float>(rng.uniform(0, 100));
    m.add_row(row, row[0] > 50.0f ? -1.0f : 1.0f, 1.0f);
  }
  return m;
}

TEST(TreeIo, RoundTripsBothTasks) {
  for (const auto task : {tree::Task::kClassification,
                          tree::Task::kRegression}) {
    const auto m = random_matrix(1, 4, 400);
    tree::DecisionTree t;
    t.fit(m, task, tree::TreeParams{});
    std::ostringstream os;
    t.save(os);
    std::istringstream is(os.str());
    const auto back = tree::DecisionTree::load(is);
    EXPECT_EQ(back.task(), task);
    EXPECT_EQ(back.node_count(), t.node_count());
    Rng rng(2);
    std::vector<float> x(4);
    for (int i = 0; i < 100; ++i) {
      for (auto& v : x) v = static_cast<float>(rng.uniform(0, 100));
      EXPECT_DOUBLE_EQ(back.predict(x), t.predict(x));
    }
  }
}

TEST(TreeIo, SaveRequiresTraining) {
  tree::DecisionTree t;
  std::ostringstream os;
  EXPECT_THROW(t.save(os), ConfigError);
}

TEST(ForestIo, RoundTripsPredictions) {
  const auto m = random_matrix(3, 5, 600);
  forest::ForestConfig cfg;
  cfg.n_trees = 9;
  cfg.feature_fraction = 0.6;
  forest::RandomForest f;
  f.fit(m, tree::Task::kClassification, cfg);

  std::ostringstream os;
  f.save(os);
  std::istringstream is(os.str());
  const auto back = forest::RandomForest::load(is);
  EXPECT_EQ(back.tree_count(), f.tree_count());

  Rng rng(4);
  std::vector<float> x(5);
  for (int i = 0; i < 100; ++i) {
    for (auto& v : x) v = static_cast<float>(rng.uniform(0, 100));
    EXPECT_DOUBLE_EQ(back.predict(x), f.predict(x));
  }
}

TEST(ForestIo, RejectsMalformedInput) {
  {
    std::istringstream is("nope\n");
    EXPECT_THROW(forest::RandomForest::load(is), DataError);
  }
  {
    std::istringstream is("hddpred-forest v1\nfeatures 2\ntrees 1\n");
    EXPECT_THROW(forest::RandomForest::load(is), DataError);  // truncated
  }
  {
    // Subspace index beyond the declared feature count.
    std::istringstream is(
        "hddpred-forest v1\nfeatures 2\ntrees 1\nsubspace 0 7\n");
    EXPECT_THROW(forest::RandomForest::load(is), DataError);
  }
}

TEST(MlpIo, RoundTripsPredictions) {
  const auto m = random_matrix(5, 3, 500);
  ann::MlpConfig cfg;
  cfg.hidden = 6;
  cfg.epochs = 40;
  ann::MlpModel model;
  model.fit(m, cfg);

  std::ostringstream os;
  model.save(os);
  std::istringstream is(os.str());
  const auto back = ann::MlpModel::load(is);
  EXPECT_EQ(back.num_features(), 3);
  EXPECT_EQ(back.hidden_units(), 6);

  Rng rng(6);
  std::vector<float> x(3);
  for (int i = 0; i < 100; ++i) {
    for (auto& v : x) v = static_cast<float>(rng.uniform(0, 100));
    EXPECT_DOUBLE_EQ(back.predict(x), model.predict(x));
  }
}

TEST(MlpIo, RejectsMalformedInput) {
  {
    std::istringstream is("garbage\n");
    EXPECT_THROW(ann::MlpModel::load(is), DataError);
  }
  {
    std::istringstream is("hddpred-mlp v1\ninputs 0 hidden 3\n");
    EXPECT_THROW(ann::MlpModel::load(is), DataError);
  }
  {
    std::istringstream is("hddpred-mlp v1\ninputs 2 hidden 2\nmin 1 2\n");
    EXPECT_THROW(ann::MlpModel::load(is), DataError);  // truncated
  }
}

// A hostile header may declare any size it likes; load() must reject it
// with ParseError *before* reserving storage for the declared count, so
// none of these (which announce gigabytes) can move the process RSS.
TEST(LoadLimits, HostileDeclaredSizesAreRejectedBeforeAllocation) {
  {
    std::istringstream is(
        "hddpred-tree v1\ntask classification\nfeatures 1\n"
        "nodes 4000000000\n");
    EXPECT_THROW(tree::DecisionTree::load(is), ParseError);
  }
  {
    std::istringstream is(
        "hddpred-tree v1\ntask classification\nfeatures 100000\nnodes 1\n");
    EXPECT_THROW(tree::DecisionTree::load(is), ParseError);
  }
  {
    std::istringstream is(
        "hddpred-forest v1\nfeatures 2\ntrees 4000000000\n");
    EXPECT_THROW(forest::RandomForest::load(is), ParseError);
  }
  {
    std::istringstream is("hddpred-forest v1\nfeatures 100000\ntrees 1\n");
    EXPECT_THROW(forest::RandomForest::load(is), ParseError);
  }
  {
    std::istringstream is("hddpred-mlp v1\ninputs 1000000 hidden 1\n");
    EXPECT_THROW(ann::MlpModel::load(is), ParseError);
  }
  {
    std::istringstream is("hddpred-mlp v1\ninputs 1 hidden 1000000\n");
    EXPECT_THROW(ann::MlpModel::load(is), ParseError);
  }
  {
    // Each width passes on its own; the w1 product (2^30 doubles) must not.
    std::istringstream is("hddpred-mlp v1\ninputs 32768 hidden 32768\n");
    EXPECT_THROW(ann::MlpModel::load(is), ParseError);
  }
}

TEST(LoadLimits, ParseErrorCarriesFieldAndSizes) {
  std::istringstream is(
      "hddpred-tree v1\ntask classification\nfeatures 1\nnodes 9999999\n");
  try {
    tree::DecisionTree::load(is);
    FAIL() << "load() accepted a hostile node count";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.field(), "tree nodes");
    EXPECT_EQ(e.requested(), 9999999u);
    EXPECT_EQ(e.limit(), tree::kMaxLoadNodes);
  }
  // ParseError is a DataError, so every existing catch site still works.
  std::istringstream again(
      "hddpred-tree v1\ntask classification\nfeatures 1\nnodes 9999999\n");
  EXPECT_THROW(tree::DecisionTree::load(again), DataError);
}

TEST(MlpIo, SaveRequiresTraining) {
  ann::MlpModel model;
  std::ostringstream os;
  EXPECT_THROW(model.save(os), ConfigError);
}

// A structurally valid tree the static verifier rejects: the nested split
// at 20 is dead under the root's x < 10 constraint, leaving node 3
// unreachable.
const char* kFlaggedTree =
    "hddpred-tree v1\ntask classification\nfeatures 1\nnodes 5\n"
    "1 4 0 10 0 1 10 0\n"
    "2 3 0 20 0 1 5 0\n"
    "-1 -1 -1 0 0.5 1 3 0\n"
    "-1 -1 -1 0 -0.5 1 2 0\n"
    "-1 -1 -1 0 -1 1 5 0\n";

TEST(VerifyOnLoad, StrictModeRejectsFlaggedTree) {
  std::istringstream is(kFlaggedTree);
  core::LoadOptions opt;
  opt.verify = core::VerifyMode::kStrict;
  EXPECT_THROW(core::load_tree(is, opt), DataError);
}

TEST(VerifyOnLoad, WarnModeStillLoadsFlaggedTree) {
  for (const auto mode : {core::VerifyMode::kWarn, core::VerifyMode::kOff}) {
    std::istringstream is(kFlaggedTree);
    core::LoadOptions opt;
    opt.verify = mode;
    const auto t = core::load_tree(is, opt);
    EXPECT_EQ(t.node_count(), 5u);
  }
}

// Node i goes to i+1 or i+2: 40 splits sharing children, Fibonacci(40)
// root-to-leaf paths. Rejected as a non-tree before any verifier walk, so
// a crafted file cannot stall a load in any mode.
TEST(VerifyOnLoad, SharedChildChainIsRejectedInEveryMode) {
  std::ostringstream text;
  text << "hddpred-tree v1\ntask classification\nfeatures 3\nnodes 42\n";
  for (int i = 0; i < 40; ++i) {
    text << i + 1 << ' ' << i + 2 << ' ' << i % 3 << " 0.5 0 1 1 0.5\n";
  }
  text << "-1 -1 -1 0 0.5 1 1 0\n-1 -1 -1 0 -0.5 1 1 0\n";
  for (const auto mode : {core::VerifyMode::kStrict, core::VerifyMode::kWarn,
                          core::VerifyMode::kOff}) {
    std::istringstream is(text.str());
    core::LoadOptions opt;
    opt.verify = mode;
    EXPECT_THROW((void)core::load_model(is, opt), DataError);
  }
}

TEST(VerifyOnLoad, StrictModeAcceptsCleanTree) {
  const auto m = random_matrix(9, 4, 400);
  tree::DecisionTree t;
  t.fit(m, tree::Task::kClassification, tree::TreeParams{});
  std::ostringstream os;
  t.save(os);
  std::istringstream is(os.str());
  core::LoadOptions opt;
  opt.verify = core::VerifyMode::kStrict;
  const auto back = core::load_tree(is, opt);
  EXPECT_EQ(back.node_count(), t.node_count());
}

TEST(AnyModelIo, SniffsEveryHeader) {
  const auto m = random_matrix(11, 3, 400);

  tree::DecisionTree t;
  t.fit(m, tree::Task::kClassification, tree::TreeParams{});
  std::ostringstream tos;
  t.save(tos);
  std::istringstream tis(tos.str());
  const auto any_tree = core::load_model(tis, {core::VerifyMode::kOff, {}});
  EXPECT_STREQ(core::model_kind_name(any_tree), "tree");
  EXPECT_TRUE(std::holds_alternative<tree::DecisionTree>(any_tree));
  EXPECT_EQ(core::model_num_features(any_tree), 3);

  forest::RandomForest f;
  forest::ForestConfig fc;
  fc.n_trees = 5;
  f.fit(m, tree::Task::kClassification, fc);
  std::ostringstream fos;
  f.save(fos);
  std::istringstream fis(fos.str());
  const auto any_forest = core::load_model(fis, {core::VerifyMode::kOff, {}});
  EXPECT_STREQ(core::model_kind_name(any_forest), "forest");
  EXPECT_EQ(core::model_num_features(any_forest), 3);

  ann::MlpModel mlp;
  ann::MlpConfig mc;
  mc.hidden = 4;
  mc.epochs = 5;
  mlp.fit(m, mc);
  std::ostringstream mos;
  mlp.save(mos);
  std::istringstream mis(mos.str());
  const auto any_mlp = core::load_model(mis, {core::VerifyMode::kOff, {}});
  EXPECT_STREQ(core::model_kind_name(any_mlp), "mlp");
  EXPECT_EQ(core::model_num_features(any_mlp), 3);
}

TEST(AnyModelIo, RejectsUnknownHeader) {
  std::istringstream is("hddpred-quantum v7\n");
  EXPECT_THROW(core::load_model(is), DataError);
}

TEST(AnyModelIo, NanMlpWeightLoadsAndFailsStrict) {
  // strtod-based parsing lets a poisoned model load so the verifier can
  // name the defect; strict mode then refuses it.
  const std::string text =
      "hddpred-mlp v1\ninputs 1 hidden 1\nmin 0\nscale 1\n"
      "w1 nan\nb1 0\nw2 1\nb2 0\n";
  {
    std::istringstream is(text);
    const auto any = core::load_model(is, {core::VerifyMode::kOff, {}});
    EXPECT_STREQ(core::model_kind_name(any), "mlp");
  }
  {
    std::istringstream is(text);
    core::LoadOptions opt;
    opt.verify = core::VerifyMode::kStrict;
    EXPECT_THROW(core::load_model(is, opt), DataError);
  }
}

}  // namespace
}  // namespace hdd
