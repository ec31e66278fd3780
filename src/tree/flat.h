// FlatEnsemble — the read-only inference form of every tree model
// (DESIGN.md §3.1).
//
// DecisionTree, RandomForest and AdaBoost pack themselves into one when
// they are built, and all their predict/predict_batch calls run its single
// kernel; tree::Node stays the training and persistence form. Layout:
// internal nodes only, 16 bytes each, members concatenated with one root
// per member; a child or root `c < 0` is leaf `~c` of the side leaf array;
// split features are full-row columns (forest subspaces are resolved at
// pack time); AdaBoost leaves hold `alpha * label(leaf)`.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hdd::tree {

struct Node;

class FlatEnsemble {
 public:
  // Goes to `left` when x[feature] < threshold, else to `right` (NaN goes
  // right).
  struct Split {
    std::int32_t feature = 0;
    float threshold = 0.0f;
    std::int32_t left = 0;
    std::int32_t right = 0;
  };
  static_assert(sizeof(Split) == 16);

  // How a row's sum over members becomes the model output.
  enum class Scale : std::uint8_t {
    kNone,  // one tree: the leaf value itself
    kMean,  // random forest: sum / member count
    kNorm,  // AdaBoost: sum / Σalpha (0 when Σalpha <= 0)
  };

  // One member tree: its nodes (children after their single parent, as
  // DecisionTree stores them), the row column of each member column (empty
  // = identity) and its vote weight (Scale::kNorm only).
  struct Member {
    std::span<const Node> nodes;
    std::span<const int> features = {};
    double alpha = 0.0;
  };

  FlatEnsemble() = default;

  // Packs `members` for rows of `num_features` columns, splits and leaves
  // each in node order.
  static FlatEnsemble pack(Scale scale, int num_features,
                           std::span<const Member> members);

  // Scores `out.size()` row-major rows of the packed width (`xs.size()`
  // must equal `out.size() * num_features`). Each row walks the members in
  // order and sums their leaves; predict() runs the same row kernel, so it
  // returns the same bits.
  void predict_batch(std::span<const float> xs, std::span<double> out) const;
  double predict(std::span<const float> x) const;

  // HDD_ASSERTs (std::logic_error) the structural invariants: every child
  // split index is greater than its parent's and inside `splits()` (so no
  // descent cycles or runs off the array), every leaf index is inside
  // `leaves()`, every member root is inside one of the two, and every
  // feature is inside the row. pack() runs it in debug and sanitizer
  // builds.
  void validate() const;

  std::span<const Split> splits() const { return splits_; }
  std::span<const double> leaves() const { return leaves_; }

 private:
  void add_member(const Member& member);
  double score_row(const float* x) const;

  std::vector<Split> splits_;
  std::vector<double> leaves_;
  std::vector<std::int32_t> roots_;
  int num_features_ = 0;
  Scale scale_ = Scale::kNone;
  double divisor_ = 0.0;  // member count (kMean) or Σalpha (kNorm)
};

}  // namespace hdd::tree
