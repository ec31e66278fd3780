#include "tree/flat.h"

#include "common/error.h"
#include "tree/tree.h"

namespace hdd::tree {

FlatEnsemble FlatEnsemble::pack(Scale scale, int num_features,
                                std::span<const Member> members) {
  HDD_ASSERT_MSG(!members.empty(), "pack: no members");
  HDD_ASSERT_MSG(scale != Scale::kNone || members.size() == 1,
                 "pack: Scale::kNone takes exactly one member");
  FlatEnsemble flat;
  flat.scale_ = scale;
  flat.num_features_ = num_features;
  for (const Member& member : members) {
    flat.add_member(member);
    // Summed in member order, as the scalar vote sums Σalpha.
    flat.divisor_ += scale == Scale::kNorm ? member.alpha : 1.0;
  }
#if !defined(NDEBUG) || defined(HDD_DEBUG_CHECKS)
  flat.validate();
#endif
  return flat;
}

void FlatEnsemble::add_member(const Member& member) {
  const std::span<const Node> nodes = member.nodes;
  const std::size_t n = nodes.size();
  HDD_ASSERT_MSG(n > 0, "pack: member has no nodes");
  // Every node is the root or has exactly one parent, which precedes it
  // (DecisionTree::from_nodes), so one forward pass numbers every node in
  // order and a second links the children.
  std::vector<std::int32_t> ref(n, 0);  // split index, or ~leaf index
  for (std::size_t i = 0; i < n; ++i) {
    const Node& src = nodes[i];
    if (src.is_leaf()) {
      ref[i] = ~static_cast<std::int32_t>(leaves_.size());
      // AdaBoost's vote: alpha times the leaf's +1/-1 label.
      leaves_.push_back(scale_ == Scale::kNorm
                            ? member.alpha * (src.value < 0.0 ? -1.0 : 1.0)
                            : src.value);
      continue;
    }
    // Negative indices wrap to huge size_t values and fail the bounds.
    const auto left = static_cast<std::size_t>(src.left);
    const auto right = static_cast<std::size_t>(src.right);
    const auto column = static_cast<std::size_t>(src.feature);
    HDD_ASSERT_MSG(left > i && left < n && right > i && right < n,
                   "pack: children must follow their parent");
    HDD_ASSERT_MSG(src.feature >= 0 && (member.features.empty() ||
                                        column < member.features.size()),
                   "pack: feature outside the member's columns");
    ref[i] = static_cast<std::int32_t>(splits_.size());
    splits_.push_back({member.features.empty() ? src.feature
                                               : member.features[column],
                       src.threshold, 0, 0});
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Node& src = nodes[i];
    if (src.is_leaf()) continue;
    Split& s = splits_[static_cast<std::size_t>(ref[i])];
    s.left = ref[static_cast<std::size_t>(src.left)];
    s.right = ref[static_cast<std::size_t>(src.right)];
  }
  roots_.push_back(ref[0]);
}

// The kernel: walks the members in order and sums their leaves.
inline double FlatEnsemble::score_row(const float* x) const {
  // A single tree sums from -0.0, the exact additive identity, so it
  // returns even a -0.0 leaf bit for bit; ensemble votes sum from +0.0.
  double total = scale_ == Scale::kNone ? -0.0 : 0.0;
  for (const std::int32_t root : roots_) {
    std::int32_t i = root;
    while (i >= 0) {
      const Split& s = splits_[static_cast<std::size_t>(i)];
      i = x[s.feature] < s.threshold ? s.left : s.right;
    }
    total += leaves_[static_cast<std::size_t>(~i)];
  }
  if (scale_ == Scale::kNone) return total;
  return divisor_ > 0.0 ? total / divisor_ : 0.0;
}

// Cache-line aligned so the descent loop's placement does not move with
// the size of code linked before it: a 48-byte shift of this function
// alone cost perfbench's interval_forest about 8% of its throughput.
__attribute__((aligned(64))) void FlatEnsemble::predict_batch(
    std::span<const float> xs, std::span<double> out) const {
  HDD_ASSERT_MSG(!roots_.empty(), "predict on an untrained model");
  const auto nf = static_cast<std::size_t>(num_features_);
  HDD_ASSERT(xs.size() == out.size() * nf);
  const float* x = xs.data();
  for (double& o : out) {
    o = score_row(x);
    x += nf;
  }
}

double FlatEnsemble::predict(std::span<const float> x) const {
  HDD_ASSERT_MSG(!roots_.empty(), "predict on an untrained model");
  HDD_ASSERT(x.size() == static_cast<std::size_t>(num_features_));
  return score_row(x.data());
}

void FlatEnsemble::validate() const {
  HDD_ASSERT_MSG(!roots_.empty(), "validate: no members");
  const auto n_splits = static_cast<std::int64_t>(splits_.size());
  const auto n_leaves = static_cast<std::int64_t>(leaves_.size());
  // `parent` is -1 for a member root, which may be any split.
  const auto check_ref = [&](std::int32_t ref, std::int64_t parent) {
    if (ref < 0) {
      HDD_ASSERT_MSG(~static_cast<std::int64_t>(ref) < n_leaves,
                     "validate: leaf index outside the leaf array");
    } else {
      HDD_ASSERT_MSG(ref > parent && ref < n_splits,
                     "validate: child split must follow its parent inside "
                     "the split array");
    }
  };
  for (const std::int32_t root : roots_) check_ref(root, -1);
  for (std::int64_t i = 0; i < n_splits; ++i) {
    const Split& s = splits_[static_cast<std::size_t>(i)];
    HDD_ASSERT_MSG(s.feature >= 0 && s.feature < num_features_,
                   "validate: split feature outside the row");
    check_ref(s.left, i);
    check_ref(s.right, i);
  }
}

}  // namespace hdd::tree
