// FlatEnsemble — the read-only inference form of every tree model
// (DESIGN.md §3.1).
//
// DecisionTree, RandomForest and AdaBoost pack themselves into one when
// they are built, and all their predict/predict_batch calls run it;
// tree::Node stays the training and persistence form. Layout: internal
// nodes only, 16 bytes each, members concatenated with one root per
// member; a child or root `c < 0` is leaf `~c` of the side leaf array;
// split features are full-row columns (forest subspaces are resolved at
// pack time); AdaBoost leaves hold `alpha * label(leaf)`.
//
// Two kernels, one result. The walk descends each member per row. The
// scan (ensembles of members with at most 64 leaves, on CPUs with
// AVX-512F/CD) scores 16 rows at once: per feature it visits the splits
// in ascending threshold order and clears, in each member's 64-bit leaf
// set, the left subtree of every split a lane goes right at; the lowest
// surviving leaf is the walk's exit leaf (QuickScorer, Lucchese et al.,
// SIGIR 2015). Both sum the same leaves in member order and scale alike,
// so their outputs are bit-identical.
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

  // One split as the scan sees it: lanes whose x[feature] is not below
  // `threshold` (NaN included) AND `mask` into member `member`'s leaf set.
  // `mask` has every bit set but those of the split's left-subtree leaves,
  // numbered left to right within the member.
  struct ScanSplit {
    float threshold = 0.0f;
    std::int32_t member = 0;
    std::uint64_t mask = 0;
  };
  static_assert(sizeof(ScanSplit) == 16);

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
  // must equal `out.size() * num_features`). Whole 16-row groups take the
  // scan when scan_splits() is non-empty; the rest, and predict(), walk.
  // Both return the same bits.
  void predict_batch(std::span<const float> xs, std::span<double> out) const;
  double predict(std::span<const float> x) const;

  // HDD_ASSERTs (std::logic_error) the structural invariants: every child
  // split index is greater than its parent's and inside `splits()` (so no
  // descent cycles or runs off the array), every leaf index is inside
  // `leaves()`, every member root is inside one of the two, and every
  // feature is inside the row. pack() runs it in debug and sanitizer
  // builds. When the scan tables exist it also checks that every scan
  // split names a member, clears a non-empty contiguous run of leaves
  // that ends before the member's last leaf, and that thresholds ascend
  // within each feature.
  void validate() const;

  std::span<const Split> splits() const { return splits_; }
  std::span<const double> leaves() const { return leaves_; }
  // The scan's splits, grouped by feature in ascending threshold order;
  // empty when predict_batch walks every row (one member, a member with
  // more than 64 leaves, or a CPU without AVX-512F/CD).
  std::span<const ScanSplit> scan_splits() const { return scan_splits_; }

 private:
  void add_member(const Member& member);
  void build_scan();
  // Scores a batch of whole 16-row groups with the scan.
  void scan_rows(std::span<const float> xs, std::span<double> out) const;
  double score_row(const float* x) const;

  std::vector<Split> splits_;
  std::vector<double> leaves_;
  std::vector<std::int32_t> roots_;
  int num_features_ = 0;
  Scale scale_ = Scale::kNone;
  double divisor_ = 0.0;  // member count (kMean) or Σalpha (kNorm)

  // Scan tables (empty unless build_scan() accepted the model): the splits
  // of feature f are scan_splits_[scan_begin_[f], scan_begin_[f + 1]); a
  // member's leaves, left to right, start at scan_leaves_[leaf_base_[m]].
  std::vector<ScanSplit> scan_splits_;
  std::vector<std::uint32_t> scan_begin_;
  std::vector<double> scan_leaves_;
  std::vector<std::int64_t> leaf_base_;
};

}  // namespace hdd::tree
