#include "tree/tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/error.h"
#include "common/math_util.h"
#include "common/table.h"

namespace hdd::tree {

void TreeParams::validate() const {
  HDD_REQUIRE(min_split >= 2, "min_split must be >= 2");
  HDD_REQUIRE(min_bucket >= 1, "min_bucket must be >= 1");
  HDD_REQUIRE(min_bucket <= min_split,
              "min_bucket must not exceed min_split");
  HDD_REQUIRE(cp >= 0.0, "cp must be non-negative");
  HDD_REQUIRE(max_depth >= 1, "max_depth must be >= 1");
  HDD_REQUIRE(max_nodes >= 1, "max_nodes must be >= 1");
}

namespace {

// Weighted class masses / moments of a set of rows.
struct ClassStats {
  double w_good = 0.0;
  double w_failed = 0.0;
  double total() const { return w_good + w_failed; }
  double entropy() const {
    const double t = total();
    if (t <= 0.0) return 0.0;
    return binary_entropy(w_failed / t);
  }
  // Signed margin p_good - p_failed.
  double margin() const {
    const double t = total();
    if (t <= 0.0) return 0.0;
    return (w_good - w_failed) / t;
  }
};

struct RegStats {
  double w = 0.0;
  double wy = 0.0;
  double wyy = 0.0;
  double mean() const { return w > 0.0 ? wy / w : 0.0; }
  // Within-node weighted sum of squares about the mean (Eq. 4, weighted).
  double sq() const {
    if (w <= 0.0) return 0.0;
    return std::max(0.0, wyy - wy * wy / w);
  }
};

struct SplitResult {
  bool found = false;
  int feature = -1;
  float threshold = 0.0f;
  double gain = 0.0;
  std::size_t left_count = 0;  // after partition by threshold
};

}  // namespace

struct DecisionTree::Builder {
  const data::DataMatrix& m;
  Task task;
  const TreeParams& params;
  std::vector<Node>& nodes;
  double root_scale = 1.0;  // normalizer for regression cp

  // Scratch: per-feature (value, row) pairs for the node being split.
  std::vector<std::pair<float, std::uint32_t>> sorted;

  Builder(const data::DataMatrix& matrix, Task t, const TreeParams& p,
          std::vector<Node>& out)
      : m(matrix), task(t), params(p), nodes(out) {}

  ClassStats class_stats(std::span<const std::uint32_t> rows) const {
    ClassStats s;
    for (std::uint32_t r : rows) {
      if (m.target(r) < 0.0f) s.w_failed += m.weight(r);
      else s.w_good += m.weight(r);
    }
    return s;
  }

  RegStats reg_stats(std::span<const std::uint32_t> rows) const {
    RegStats s;
    for (std::uint32_t r : rows) {
      const double w = m.weight(r), y = m.target(r);
      s.w += w;
      s.wy += w * y;
      s.wyy += w * y * y;
    }
    return s;
  }

  // Exhaustive split search over all features and thresholds (the paper's
  // "searches through all values of the input SMART attributes").
  SplitResult best_split(std::span<const std::uint32_t> rows) {
    SplitResult best;
    const std::size_t n = rows.size();
    const auto min_bucket = static_cast<std::size_t>(params.min_bucket);

    for (int f = 0; f < m.cols(); ++f) {
      sorted.clear();
      sorted.reserve(n);
      for (std::uint32_t r : rows) {
        sorted.emplace_back(m.row(r)[static_cast<std::size_t>(f)], r);
      }
      std::sort(sorted.begin(), sorted.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      if (sorted.front().first == sorted.back().first) continue;

      if (task == Task::kClassification) {
        scan_classification(f, best);
      } else {
        scan_regression(f, best);
      }
      (void)min_bucket;
    }
    return best;
  }

  void scan_classification(int feature, SplitResult& best) {
    ClassStats total;
    for (const auto& [v, r] : sorted) {
      if (m.target(r) < 0.0f) total.w_failed += m.weight(r);
      else total.w_good += m.weight(r);
    }
    const double parent_info = total.entropy();
    const double tw = total.total();
    if (tw <= 0.0) return;

    ClassStats left;
    const std::size_t n = sorted.size();
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const auto r = sorted[i].second;
      if (m.target(r) < 0.0f) left.w_failed += m.weight(r);
      else left.w_good += m.weight(r);
      if (sorted[i].first == sorted[i + 1].first) continue;
      const std::size_t left_n = i + 1, right_n = n - left_n;
      if (left_n < static_cast<std::size_t>(params.min_bucket) ||
          right_n < static_cast<std::size_t>(params.min_bucket)) {
        continue;
      }
      ClassStats right{total.w_good - left.w_good,
                       total.w_failed - left.w_failed};
      // Formula (1)-(3): gain = info(D) - weighted child entropies.
      const double gain = parent_info -
                          (left.total() / tw) * left.entropy() -
                          (right.total() / tw) * right.entropy();
      if (gain > best.gain + 1e-12 || !best.found) {
        if (gain <= 0.0) continue;
        best.found = true;
        best.feature = feature;
        best.threshold = midpoint(sorted[i].first, sorted[i + 1].first);
        best.gain = gain;
        best.left_count = left_n;
      }
    }
  }

  void scan_regression(int feature, SplitResult& best) {
    RegStats total;
    for (const auto& [v, r] : sorted) {
      const double w = m.weight(r), y = m.target(r);
      total.w += w;
      total.wy += w * y;
      total.wyy += w * y * y;
    }
    const double parent_sq = total.sq();
    if (total.w <= 0.0) return;

    RegStats left;
    const std::size_t n = sorted.size();
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const auto r = sorted[i].second;
      const double w = m.weight(r), y = m.target(r);
      left.w += w;
      left.wy += w * y;
      left.wyy += w * y * y;
      if (sorted[i].first == sorted[i + 1].first) continue;
      const std::size_t left_n = i + 1, right_n = n - left_n;
      if (left_n < static_cast<std::size_t>(params.min_bucket) ||
          right_n < static_cast<std::size_t>(params.min_bucket)) {
        continue;
      }
      RegStats right{total.w - left.w, total.wy - left.wy,
                     total.wyy - left.wyy};
      // Algorithm 2: minimize sq1 + sq2, i.e. maximize the reduction.
      const double gain = parent_sq - left.sq() - right.sq();
      if (gain > best.gain + 1e-12 || !best.found) {
        if (gain <= 0.0) continue;
        best.found = true;
        best.feature = feature;
        best.threshold = midpoint(sorted[i].first, sorted[i + 1].first);
        best.gain = gain;
        best.left_count = left_n;
      }
    }
  }

  static float midpoint(float lo, float hi) {
    const float mid = lo + (hi - lo) * 0.5f;
    // Guard against rounding collapsing the threshold onto `lo`, which
    // would send equal values to the wrong side.
    return mid > lo ? mid : hi;
  }

  // Recursively grows the subtree over `rows`; returns the node index.
  std::int32_t grow(std::vector<std::uint32_t>& rows, int depth) {
    const auto node_index = static_cast<std::int32_t>(nodes.size());
    nodes.emplace_back();
    {
      Node& node = nodes.back();
      node.count = static_cast<std::int64_t>(rows.size());
      if (task == Task::kClassification) {
        const ClassStats s = class_stats(rows);
        node.weight = s.total();
        node.value = s.margin();
      } else {
        const RegStats s = reg_stats(rows);
        node.weight = s.w;
        node.value = s.mean();
      }
    }

    // `depth` is 0-based here; depth() reports levels (root = 1), so a
    // node may only split while its children would stay within max_depth.
    const bool splittable =
        static_cast<int>(rows.size()) >= params.min_split &&
        depth + 1 < params.max_depth &&
        static_cast<int>(nodes.size()) + 2 <= params.max_nodes &&
        !node_is_pure(rows);
    if (!splittable) return node_index;

    const SplitResult split = best_split(rows);
    if (!split.found) return node_index;

    // Partition rows in place around the threshold.
    std::vector<std::uint32_t> left_rows, right_rows;
    left_rows.reserve(split.left_count);
    right_rows.reserve(rows.size() - split.left_count);
    for (std::uint32_t r : rows) {
      const float v = m.row(r)[static_cast<std::size_t>(split.feature)];
      (v < split.threshold ? left_rows : right_rows).push_back(r);
    }
    HDD_ASSERT(!left_rows.empty() && !right_rows.empty());
    rows.clear();
    rows.shrink_to_fit();

    const std::int32_t left = grow(left_rows, depth + 1);
    const std::int32_t right = grow(right_rows, depth + 1);
    Node& node = nodes[static_cast<std::size_t>(node_index)];
    node.left = left;
    node.right = right;
    node.feature = split.feature;
    node.threshold = split.threshold;
    node.gain = split.gain;
    return node_index;
  }

  bool node_is_pure(std::span<const std::uint32_t> rows) const {
    const float first = m.target(rows.front());
    for (std::uint32_t r : rows) {
      if (m.target(r) != first) return false;
    }
    return true;
  }

  // Algorithm 1/2 pruning: collapse any internal node whose own split gain
  // is below the threshold. Children are visited first so that gains are
  // evaluated on the fully grown tree, exactly as the paper writes it.
  void prune(std::int32_t index, double threshold) {
    Node& node = nodes[static_cast<std::size_t>(index)];
    if (node.is_leaf()) return;
    prune(node.left, threshold);
    prune(node.right, threshold);
    if (node.gain < threshold) {
      node.left = node.right = -1;
      node.feature = -1;
      node.gain = 0.0;
    }
  }
};

void DecisionTree::fit(const data::DataMatrix& m, Task task,
                       const TreeParams& params) {
  params.validate();
  HDD_REQUIRE(!m.empty(), "cannot fit a tree on an empty matrix");
  nodes_.clear();
  task_ = task;
  num_features_ = m.cols();

  Builder builder(m, task, params, nodes_);
  std::vector<std::uint32_t> rows(m.rows());
  std::iota(rows.begin(), rows.end(), 0);
  builder.grow(rows, 0);

  double threshold = params.cp;
  if (task == Task::kRegression) {
    // Scale-free cp: relative to the root's sum of squares.
    Builder scale_builder(m, task, params, nodes_);
    std::vector<std::uint32_t> all(m.rows());
    std::iota(all.begin(), all.end(), 0);
    threshold = params.cp * scale_builder.reg_stats(all).sq();
  }
  builder.prune(0, threshold);
  compact();
  pack();
}

void DecisionTree::pack() {
  const FlatEnsemble::Member member{nodes_};
  flat_ = FlatEnsemble::pack(FlatEnsemble::Scale::kNone, num_features_,
                             {&member, 1});
}

// Removes nodes orphaned by pruning and reindexes children.
void DecisionTree::compact() {
  std::vector<Node> compacted;
  compacted.reserve(nodes_.size());
  // Iterative preorder copy.
  std::vector<std::pair<std::int32_t, std::int32_t>> stack;  // old, parent slot
  std::vector<std::int32_t> remap(nodes_.size(), -1);
  std::vector<std::int32_t> order;
  order.reserve(nodes_.size());
  std::vector<std::int32_t> walk{0};
  while (!walk.empty()) {
    const std::int32_t old = walk.back();
    walk.pop_back();
    remap[static_cast<std::size_t>(old)] =
        static_cast<std::int32_t>(order.size());
    order.push_back(old);
    const Node& n = nodes_[static_cast<std::size_t>(old)];
    if (!n.is_leaf()) {
      walk.push_back(n.right);
      walk.push_back(n.left);
    }
  }
  for (std::int32_t old : order) {
    Node n = nodes_[static_cast<std::size_t>(old)];
    if (!n.is_leaf()) {
      n.left = remap[static_cast<std::size_t>(n.left)];
      n.right = remap[static_cast<std::size_t>(n.right)];
    }
    compacted.push_back(n);
  }
  nodes_ = std::move(compacted);
  (void)stack;
}

std::size_t DecisionTree::leaf_count() const {
  std::size_t n = 0;
  for (const Node& node : nodes_) n += node.is_leaf() ? 1 : 0;
  return n;
}

int DecisionTree::depth() const {
  if (nodes_.empty()) return 0;
  int max_depth = 0;
  std::vector<std::pair<std::int32_t, int>> stack{{0, 1}};
  while (!stack.empty()) {
    const auto [idx, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const Node& n = nodes_[static_cast<std::size_t>(idx)];
    if (!n.is_leaf()) {
      stack.push_back({n.left, d + 1});
      stack.push_back({n.right, d + 1});
    }
  }
  return max_depth;
}

void DecisionTree::predict_batch(const data::DataMatrix& m,
                                 std::span<double> out) const {
  HDD_ASSERT(m.rows() == out.size());
  HDD_ASSERT(m.cols() == num_features_);
  predict_batch(m.features(), out);
}

std::vector<double> DecisionTree::feature_importance() const {
  std::vector<double> imp(static_cast<std::size_t>(num_features_), 0.0);
  if (nodes_.empty()) return imp;
  const double root_weight = nodes_[0].weight;
  if (root_weight <= 0.0) return imp;
  double total = 0.0;
  for (const Node& n : nodes_) {
    if (n.is_leaf()) continue;
    const double contrib = n.gain * (n.weight / root_weight);
    imp[static_cast<std::size_t>(n.feature)] += contrib;
    total += contrib;
  }
  if (total > 0.0) {
    for (double& v : imp) v /= total;
  }
  return imp;
}

namespace {

void dump_node(const std::vector<Node>& nodes, std::int32_t idx, int depth,
               const smart::FeatureSet* features, double root_weight,
               Task task, std::ostringstream& os) {
  const Node& n = nodes[static_cast<std::size_t>(idx)];
  for (int i = 0; i < depth; ++i) os << "  ";
  if (task == Task::kClassification) {
    const double p_failed = (1.0 - n.value) / 2.0;
    os << (n.value < 0 ? "[FAILED] " : "[good]   ");
    os << "p_failed=" << hdd::format_double(p_failed, 3);
  } else {
    os << "health=" << hdd::format_double(n.value, 3);
  }
  os << " weight=" << hdd::format_double(100.0 * n.weight / root_weight, 1)
     << "% n=" << n.count;
  if (!n.is_leaf()) {
    std::string fname;
    if (features != nullptr &&
        n.feature < static_cast<int>(features->specs.size())) {
      fname = features->specs[static_cast<std::size_t>(n.feature)].name();
    } else {
      fname = "f" + std::to_string(n.feature);
    }
    os << " | split: " << fname << " < "
       << hdd::format_double(n.threshold, 2) << " (gain "
       << hdd::format_double(n.gain, 4) << ")";
  }
  os << '\n';
  if (!n.is_leaf()) {
    dump_node(nodes, n.left, depth + 1, features, root_weight, task, os);
    dump_node(nodes, n.right, depth + 1, features, root_weight, task, os);
  }
}

}  // namespace

std::string DecisionTree::to_text(const smart::FeatureSet* features) const {
  if (nodes_.empty()) return "(untrained)\n";
  std::ostringstream os;
  dump_node(nodes_, 0, 0, features, nodes_[0].weight, task_, os);
  return os.str();
}

DecisionTree DecisionTree::from_nodes(std::vector<Node> nodes, Task task,
                                      int num_features) {
  HDD_REQUIRE(!nodes.empty(), "node list is empty");
  const auto n_nodes = static_cast<std::int32_t>(nodes.size());
  // A tree, as CART builds it: a shared child would make the verifier's
  // path walk exponential, and an orphan is a node no descent reaches.
  std::vector<int> parents(nodes.size(), 0);
  for (std::int32_t i = 0; i < n_nodes; ++i) {
    const Node& n = nodes[static_cast<std::size_t>(i)];
    if (n.is_leaf()) {
      // A leaf is left < 0; a node that looks half-leaf (left < 0 but
      // right >= 0) would silently drop a subtree during prediction.
      HDD_REQUIRE(n.right < 0, "leaf node with a right child");
      continue;
    }
    // compact() stores nodes in preorder, so children always follow their
    // parent. Requiring strictly increasing child indices also rules out
    // self-references and cycles, which would hang predict().
    HDD_REQUIRE(n.left > i && n.left < n_nodes && n.right > i &&
                    n.right < n_nodes,
                "node child index out of range (children must follow their "
                "parent)");
    HDD_REQUIRE(n.feature >= 0 && n.feature < num_features,
                "node feature index out of range");
    HDD_REQUIRE(std::isfinite(n.threshold),
                "node threshold must be finite");
    ++parents[static_cast<std::size_t>(n.left)];
    ++parents[static_cast<std::size_t>(n.right)];
  }
  HDD_REQUIRE(std::all_of(parents.begin() + 1, parents.end(),
                          [](int p) { return p == 1; }),
              "every node but the root needs exactly one parent");
  DecisionTree t;
  t.nodes_ = std::move(nodes);
  t.task_ = task;
  t.num_features_ = num_features;
  t.pack();
  return t;
}

}  // namespace hdd::tree
