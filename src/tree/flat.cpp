#include "tree/flat.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "common/error.h"
#include "tree/tree.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HDD_FLAT_SCAN 1
#include <immintrin.h>
#endif

namespace hdd::tree {

namespace {

constexpr std::size_t kLanes = 16;      // rows per scan group
constexpr std::size_t kMaxLeaves = 64;  // bits in a member's leaf set

bool have_scan_isa() {
#ifdef HDD_FLAT_SCAN
  static const bool yes = __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512cd");
  return yes;
#else
  return false;
#endif
}

#ifdef HDD_FLAT_SCAN
struct ScanArgs {
  const FlatEnsemble::ScanSplit* splits;
  const std::uint32_t* begin;  // num_features + 1 offsets into splits
  const double* leaves;
  const std::int64_t* leaf_base;
  std::size_t members;
  double divisor;
  std::size_t num_features;
};

// The leaf value each of 8 lanes exits at: the lowest bit of its leaf
// set, 63 - lzcnt(set & -set), indexes the member's leaves in left to
// right order.
__attribute__((target("avx512f,avx512cd"))) inline __m512d exit_values(
    const std::uint64_t* sets, const double* leaves) {
  const __m512i set = _mm512_load_si512(sets);
  const __m512i low =
      _mm512_and_si512(set, _mm512_sub_epi64(_mm512_setzero_si512(), set));
  const __m512i leaf =
      _mm512_sub_epi64(_mm512_set1_epi64(63), _mm512_lzcnt_epi64(low));
  return _mm512_mask_i64gather_pd(_mm512_setzero_pd(), 0xFF, leaf, leaves, 8);
}

// Scores `groups` groups of 16 row-major rows from x into out. `sets` is
// 64-byte aligned scratch for members * 16 leaf sets, lane-major per
// member.
__attribute__((target("avx512f,avx512cd"))) void scan_groups(
    const ScanArgs& a, const float* x, double* out, std::size_t groups,
    std::uint64_t* sets) {
  const auto nf = static_cast<int>(a.num_features);
  // Lane r reads row r of the group: x[r * nf + feature].
  const __m512i row_at = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(nf));
  const __m512i all_leaves = _mm512_set1_epi64(-1);
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t m = 0; m < a.members; ++m) {
      _mm512_store_si512(sets + m * kLanes, all_leaves);
      _mm512_store_si512(sets + m * kLanes + 8, all_leaves);
    }
    for (std::size_t f = 0; f < a.num_features; ++f) {
      const FlatEnsemble::ScanSplit* s = a.splits + a.begin[f];
      const FlatEnsemble::ScanSplit* const end = a.splits + a.begin[f + 1];
      if (s == end) continue;
      const __m512 xf = _mm512_mask_i32gather_ps(_mm512_setzero_ps(), 0xFFFF,
                                                 row_at, x + f, 4);
      for (; s != end; ++s) {
        // The walk's `x < t ? left : right`, negated: NaN goes right.
        const __mmask16 right =
            _mm512_cmp_ps_mask(xf, _mm512_set1_ps(s->threshold), _CMP_NLT_UQ);
        // Thresholds ascend, so a threshold no lane reaches ends the
        // feature: every later one sends every lane left too.
        if (right == 0) break;
        std::uint64_t* set =
            sets + static_cast<std::size_t>(s->member) * kLanes;
        const __m512i mask =
            _mm512_set1_epi64(static_cast<long long>(s->mask));
        const auto lanes_lo = static_cast<__mmask8>(right);
        const auto lanes_hi = static_cast<__mmask8>(right >> 8);
        const __m512i lo = _mm512_load_si512(set);
        const __m512i hi = _mm512_load_si512(set + 8);
        _mm512_store_si512(set, _mm512_mask_and_epi64(lo, lanes_lo, lo, mask));
        _mm512_store_si512(set + 8,
                           _mm512_mask_and_epi64(hi, lanes_hi, hi, mask));
      }
    }
    // Members in order, from +0.0 like the walk's ensemble sum.
    __m512d sum_lo = _mm512_setzero_pd();
    __m512d sum_hi = _mm512_setzero_pd();
    for (std::size_t m = 0; m < a.members; ++m) {
      const double* leaves = a.leaves + a.leaf_base[m];
      const std::uint64_t* set = sets + m * kLanes;
      sum_lo = _mm512_add_pd(sum_lo, exit_values(set, leaves));
      sum_hi = _mm512_add_pd(sum_hi, exit_values(set + 8, leaves));
    }
    if (a.divisor > 0.0) {
      const __m512d d = _mm512_set1_pd(a.divisor);
      sum_lo = _mm512_div_pd(sum_lo, d);
      sum_hi = _mm512_div_pd(sum_hi, d);
    } else {
      sum_lo = _mm512_setzero_pd();
      sum_hi = _mm512_setzero_pd();
    }
    _mm512_storeu_pd(out, sum_lo);
    _mm512_storeu_pd(out + 8, sum_hi);
    x += kLanes * a.num_features;
    out += kLanes;
  }
}
#endif

}  // namespace

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
  flat.build_scan();
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

void FlatEnsemble::build_scan() {
  const std::size_t members = roots_.size();
  if (members < 2 || !have_scan_isa() ||
      num_features_ > std::numeric_limits<std::int32_t>::max() /
                          static_cast<int>(kLanes)) {
    return;
  }
  const auto under = [&](const std::vector<std::uint32_t>& count,
                         std::int32_t ref) {
    return ref < 0 ? 1u : count[static_cast<std::size_t>(ref)];
  };
  // Leaves under each split; children follow their parent, so one
  // backward pass sees both children's counts first.
  std::vector<std::uint32_t> count(splits_.size());
  for (std::size_t i = splits_.size(); i-- > 0;) {
    count[i] = under(count, splits_[i].left) + under(count, splits_[i].right);
  }
  // Members' leaves are contiguous in leaves_, in member order.
  std::vector<std::int64_t> base(members);
  std::int64_t next = 0;
  for (std::size_t m = 0; m < members; ++m) {
    base[m] = next;
    const std::uint32_t n = under(count, roots_[m]);
    if (n > kMaxLeaves) return;
    next += n;
  }

  // Number every member's leaves left to right: a split's left subtree
  // starts at its own first leaf, its right one after the left's leaves.
  std::vector<double> ordered(leaves_.size());
  std::vector<std::uint32_t> first(splits_.size());
  std::vector<std::int32_t> member_of(splits_.size());
  const auto place = [&](std::int32_t ref, std::int32_t m, std::uint32_t at) {
    if (ref < 0) {
      const std::int64_t slot = base[static_cast<std::size_t>(m)] + at;
      ordered[static_cast<std::size_t>(slot)] =
          leaves_[static_cast<std::size_t>(~ref)];
    } else {
      first[static_cast<std::size_t>(ref)] = at;
      member_of[static_cast<std::size_t>(ref)] = m;
    }
  };
  for (std::size_t m = 0; m < members; ++m) {
    place(roots_[m], static_cast<std::int32_t>(m), 0);
  }
  std::vector<std::uint32_t> begin(static_cast<std::size_t>(num_features_) + 1);
  for (std::size_t i = 0; i < splits_.size(); ++i) {
    const Split& s = splits_[i];
    place(s.left, member_of[i], first[i]);
    place(s.right, member_of[i], first[i] + under(count, s.left));
    ++begin[static_cast<std::size_t>(s.feature) + 1];
  }

  // Group by feature, each group in ascending threshold order.
  for (std::size_t f = 0; f + 1 < begin.size(); ++f) begin[f + 1] += begin[f];
  std::vector<ScanSplit> scan(splits_.size());
  std::vector<std::uint32_t> fill(begin.begin(), begin.end() - 1);
  for (std::size_t i = 0; i < splits_.size(); ++i) {
    const Split& s = splits_[i];
    const std::uint32_t run = under(count, s.left);  // < 64: right has one
    const std::uint64_t left = ((std::uint64_t{1} << run) - 1) << first[i];
    scan[fill[static_cast<std::size_t>(s.feature)]++] = {s.threshold,
                                                         member_of[i], ~left};
  }
  for (std::size_t f = 0; f + 1 < begin.size(); ++f) {
    std::stable_sort(scan.begin() + begin[f], scan.begin() + begin[f + 1],
                     [](const ScanSplit& a, const ScanSplit& b) {
                       return a.threshold < b.threshold;
                     });
  }
  scan_splits_ = std::move(scan);
  scan_begin_ = std::move(begin);
  scan_leaves_ = std::move(ordered);
  leaf_base_ = std::move(base);
}

// The walk: descends the members in order and sums their leaves.
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
  // Whole 16-row groups scan, the rest walk. The walk goes first and the
  // scan is a call after it, so the walk loop compiles as it does alone.
  const std::size_t scanned =
      scan_splits_.empty() ? 0 : out.size() / kLanes * kLanes;
  const float* x = xs.data() + scanned * nf;
  for (double& o : out.subspan(scanned)) {
    o = score_row(x);
    x += nf;
  }
  if (scanned > 0) scan_rows(xs, out.first(scanned));
}

__attribute__((noinline)) void FlatEnsemble::scan_rows(
    std::span<const float> xs, std::span<double> out) const {
#ifdef HDD_FLAT_SCAN
  // One 64-byte aligned leaf set per member and lane.
  std::vector<std::uint64_t> scratch(roots_.size() * kLanes + 8);
  auto* sets = reinterpret_cast<std::uint64_t*>(
      (reinterpret_cast<std::uintptr_t>(scratch.data()) + 63) &
      ~std::uintptr_t{63});
  const ScanArgs args{scan_splits_.data(),
                      scan_begin_.data(),
                      scan_leaves_.data(),
                      leaf_base_.data(),
                      roots_.size(),
                      divisor_,
                      static_cast<std::size_t>(num_features_)};
  scan_groups(args, xs.data(), out.data(), out.size() / kLanes, sets);
#else
  (void)xs;
  (void)out;
#endif
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
  if (scan_splits_.empty()) return;

  const std::size_t members = roots_.size();
  HDD_ASSERT_MSG(scan_splits_.size() == splits_.size() &&
                     scan_leaves_.size() == leaves_.size() &&
                     leaf_base_.size() == members &&
                     scan_begin_.size() ==
                         static_cast<std::size_t>(num_features_) + 1 &&
                     scan_begin_.front() == 0 &&
                     scan_begin_.back() == scan_splits_.size(),
                 "validate: scan tables do not match the packed model");
  // Member m's leaves are scan_leaves_[leaf_base_[m], leaf_base_[m + 1]).
  const auto leaf_count = [&](std::size_t m) {
    const std::int64_t end =
        m + 1 < members ? leaf_base_[m + 1]
                        : static_cast<std::int64_t>(scan_leaves_.size());
    return end - leaf_base_[m];
  };
  HDD_ASSERT_MSG(leaf_base_.front() == 0, "validate: scan leaves start late");
  for (std::size_t m = 0; m < members; ++m) {
    const std::int64_t n = leaf_count(m);
    HDD_ASSERT_MSG(n >= 1 && n <= static_cast<std::int64_t>(kMaxLeaves),
                   "validate: scan member needs 1 to 64 leaves");
  }
  for (std::size_t f = 0; f + 1 < scan_begin_.size(); ++f) {
    HDD_ASSERT_MSG(scan_begin_[f] <= scan_begin_[f + 1],
                   "validate: scan feature ranges overlap");
    for (std::uint32_t i = scan_begin_[f]; i < scan_begin_[f + 1]; ++i) {
      const ScanSplit& s = scan_splits_[i];
      HDD_ASSERT_MSG(s.member >= 0 &&
                         static_cast<std::size_t>(s.member) < members,
                     "validate: scan split member out of range");
      HDD_ASSERT_MSG(i == scan_begin_[f] ||
                         scan_splits_[i - 1].threshold <= s.threshold,
                     "validate: scan thresholds must ascend per feature");
      // The cleared leaves: one non-empty run that stops before the
      // member's last leaf, so every lane keeps a leaf of its member.
      const std::uint64_t cleared = ~s.mask;
      const int lo = std::countr_zero(cleared);
      const std::uint64_t run = cleared == 0 ? 0 : cleared >> lo;
      HDD_ASSERT_MSG(cleared != 0 && (run & (run + 1)) == 0 &&
                         lo + std::popcount(run) <
                             leaf_count(static_cast<std::size_t>(s.member)),
                     "validate: scan mask must clear a contiguous run of "
                     "the member's leaves");
    }
  }
}

}  // namespace hdd::tree
