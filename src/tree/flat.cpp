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

constexpr std::size_t kLanes = 16;         // rows per scan group
constexpr std::uint32_t kSlotLeaves = 32;  // leaves per leaf-set slot
constexpr std::size_t kMaxLeaves = 64;     // two slots

bool have_scan_isa() {
#ifdef HDD_FLAT_SCAN
  static const bool yes = __builtin_cpu_supports("avx512f") &&
                          __builtin_cpu_supports("avx512cd");
  return yes;
#else
  return false;
#endif
}

// The bits of leaves [lo, lo + n) of a slot, 0 < n <= 32.
std::uint32_t run_bits(std::uint32_t lo, std::uint32_t n) {
  return static_cast<std::uint32_t>(((std::uint64_t{1} << n) - 1) << lo);
}

// The length of a member's leaf row: a one-slot member's is zero-padded
// to the 16 or 32 leaves its permute reads.
std::size_t row_size(std::uint32_t leaves) {
  return leaves <= 16 ? 16 : leaves <= kSlotLeaves ? kSlotLeaves : leaves;
}

#ifdef HDD_FLAT_SCAN
struct ScanArgs {
  const FlatEnsemble::ScanSplit* splits;
  const std::uint32_t* begin;  // num_features + 1 offsets into splits
  std::span<const FlatEnsemble::ScanMember> members;
  const double* leaves;
  std::size_t num_features;
  std::size_t slots;
  double divisor;
};

// The exit leaf of each lane: the lowest set bit of its slot,
// 31 - lzcnt(set & -set).
__attribute__((target("avx512f,avx512cd"))) inline __m512i lowest_leaf(
    __m512i set) {
  const __m512i low =
      _mm512_and_si512(set, _mm512_sub_epi32(_mm512_setzero_si512(), set));
  return _mm512_sub_epi32(_mm512_set1_epi32(31), _mm512_lzcnt_epi32(low));
}

// The leaf values of 8 lanes, from 64-bit leaf indices `at` into a
// member's leaves. A one-slot member reads its zero-padded row from
// registers: one two-register permute for up to 16 leaves, two and a
// blend on index bit 4 for up to 32. A two-slot member gathers.
__attribute__((target("avx512f,avx512cd"))) inline __m512d leaf_values(
    const double* row, std::uint32_t leaves, __m512i at) {
  if (leaves > kSlotLeaves) {
    return _mm512_mask_i64gather_pd(_mm512_setzero_pd(), 0xFF, at, row, 8);
  }
  const __m512d lo = _mm512_permutex2var_pd(_mm512_loadu_pd(row), at,
                                            _mm512_loadu_pd(row + 8));
  if (leaves <= 16) return lo;
  const __m512d hi = _mm512_permutex2var_pd(_mm512_loadu_pd(row + 16), at,
                                            _mm512_loadu_pd(row + 24));
  return _mm512_mask_blend_pd(
      _mm512_test_epi64_mask(at, _mm512_set1_epi64(16)), lo, hi);
}

// Scores `groups` groups of 16 row-major rows from x into out. `sets` is
// 64-byte aligned scratch for the 16 lanes of every leaf-set slot.
__attribute__((target("avx512f,avx512cd"))) void scan_groups(
    const ScanArgs& a, const float* x, double* out, std::size_t groups,
    std::uint32_t* sets) {
  const auto nf = static_cast<int>(a.num_features);
  // Lane r reads row r of the group: x[r * nf + feature].
  const __m512i row_at = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(nf));
  const __m512i all_leaves = _mm512_set1_epi32(-1);
  // Even dwords take lanes 0-7 (8-15) of a leaf index vector, odd ones are
  // zeroed: the lanes' indices zero-extended to 64 bits.
  const __m512i lanes_lo =
      _mm512_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7);
  const __m512i lanes_hi = _mm512_add_epi32(lanes_lo, _mm512_set1_epi32(8));
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t k = 0; k < a.slots; ++k) {
      _mm512_store_si512(sets + k * kLanes, all_leaves);
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
        std::uint32_t* set = sets + s->slot * kLanes;
        const __m512i v = _mm512_load_si512(set);
        _mm512_store_si512(
            set, _mm512_mask_and_epi32(
                     v, right, v,
                     _mm512_set1_epi32(static_cast<int>(s->mask))));
      }
    }
    // Members in order, from +0.0 like the walk's ensemble sum.
    __m512d sum_lo = _mm512_setzero_pd();
    __m512d sum_hi = _mm512_setzero_pd();
    for (const FlatEnsemble::ScanMember& m : a.members) {
      const std::uint32_t* set = sets + m.slot * kLanes;
      const __m512i slot0 = _mm512_load_si512(set);
      __m512i at = lowest_leaf(slot0);
      if (m.leaves > kSlotLeaves) {
        // Lanes whose first slot is empty exit in the second.
        at = _mm512_mask_add_epi32(
            at, _mm512_testn_epi32_mask(slot0, slot0),
            lowest_leaf(_mm512_load_si512(set + kLanes)),
            _mm512_set1_epi32(static_cast<int>(kSlotLeaves)));
      }
      const double* leaves = a.leaves + m.leaf_base;
      sum_lo = _mm512_add_pd(
          sum_lo, leaf_values(leaves, m.leaves,
                              _mm512_maskz_permutexvar_epi32(0x5555, lanes_lo,
                                                             at)));
      sum_hi = _mm512_add_pd(
          sum_hi, leaf_values(leaves, m.leaves,
                              _mm512_maskz_permutexvar_epi32(0x5555, lanes_hi,
                                                             at)));
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
  // Slots and leaf rows in member order.
  std::vector<ScanMember> scan_members(members);
  std::uint32_t slots = 0;
  std::size_t row = 0;
  for (std::size_t m = 0; m < members; ++m) {
    const std::uint32_t n = under(count, roots_[m]);
    if (n > kMaxLeaves) return;
    scan_members[m] = {slots, n, row};
    slots += n > kSlotLeaves ? 2 : 1;
    row += row_size(n);
  }

  // Number every member's leaves left to right: a split's left subtree
  // starts at its own first leaf, its right one after the left's leaves.
  std::vector<double> ordered(row, 0.0);
  std::vector<std::uint32_t> first(splits_.size());
  std::vector<std::int32_t> member_of(splits_.size());
  const auto place = [&](std::int32_t ref, std::int32_t m, std::uint32_t at) {
    if (ref < 0) {
      ordered[scan_members[static_cast<std::size_t>(m)].leaf_base + at] =
          leaves_[static_cast<std::size_t>(~ref)];
    } else {
      first[static_cast<std::size_t>(ref)] = at;
      member_of[static_cast<std::size_t>(ref)] = m;
    }
  };
  for (std::size_t m = 0; m < members; ++m) {
    place(roots_[m], static_cast<std::int32_t>(m), 0);
  }
  struct Entry {
    std::int32_t feature;
    ScanSplit split;
  };
  std::vector<Entry> entries;
  entries.reserve(splits_.size());
  for (std::size_t i = 0; i < splits_.size(); ++i) {
    const Split& s = splits_[i];
    place(s.left, member_of[i], first[i]);
    place(s.right, member_of[i], first[i] + under(count, s.left));
    // The left subtree is leaves [lo, hi), with hi below the member's
    // last leaf since the right subtree has one. One entry per slot the
    // run touches.
    const std::uint32_t lo = first[i];
    const std::uint32_t hi = lo + under(count, s.left);
    const std::uint32_t slot =
        scan_members[static_cast<std::size_t>(member_of[i])].slot;
    for (std::uint32_t k = lo / kSlotLeaves; k * kSlotLeaves < hi; ++k) {
      const std::uint32_t a = std::max(lo, k * kSlotLeaves) - k * kSlotLeaves;
      const std::uint32_t b =
          std::min(hi, (k + 1) * kSlotLeaves) - k * kSlotLeaves;
      entries.push_back(
          {s.feature, {s.threshold, slot + k, ~run_bits(a, b - a)}});
    }
  }

  // Group by feature, each group in ascending threshold order.
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.feature != b.feature
                                ? a.feature < b.feature
                                : a.split.threshold < b.split.threshold;
                   });
  std::vector<std::uint32_t> begin(static_cast<std::size_t>(num_features_) + 1);
  scan_splits_.reserve(entries.size());
  for (const Entry& e : entries) {
    ++begin[static_cast<std::size_t>(e.feature) + 1];
    scan_splits_.push_back(e.split);
  }
  for (std::size_t f = 0; f + 1 < begin.size(); ++f) begin[f + 1] += begin[f];
  scan_begin_ = std::move(begin);
  scan_members_ = std::move(scan_members);
  scan_leaves_ = std::move(ordered);
  scan_slots_ = slots;
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
  // One 64-byte aligned 16-lane slot per leaf-set slot, reused by every
  // call on this thread.
  thread_local std::vector<std::uint32_t> scratch;
  scratch.resize(scan_slots_ * kLanes + kLanes);
  auto* sets = reinterpret_cast<std::uint32_t*>(
      (reinterpret_cast<std::uintptr_t>(scratch.data()) + 63) &
      ~std::uintptr_t{63});
  const ScanArgs args{scan_splits_.data(),
                      scan_begin_.data(),
                      scan_members_,
                      scan_leaves_.data(),
                      static_cast<std::size_t>(num_features_),
                      scan_slots_,
                      divisor_};
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
  HDD_ASSERT_MSG(scan_members_.size() == members &&
                     scan_begin_.size() ==
                         static_cast<std::size_t>(num_features_) + 1 &&
                     scan_begin_.front() == 0 &&
                     scan_begin_.back() == scan_splits_.size(),
                 "validate: scan tables do not match the packed model");
  // Per slot: its member's leaves in it, and whether it is the member's
  // last slot (which holds the member's last leaf).
  struct SlotInfo {
    std::uint32_t leaves = 0;
    bool last = false;
  };
  std::vector<SlotInfo> slot_info;
  std::size_t row_end = 0;
  for (const ScanMember& m : scan_members_) {
    HDD_ASSERT_MSG(m.leaves >= 1 && m.leaves <= kMaxLeaves,
                   "validate: scan member needs 1 to 64 leaves");
    HDD_ASSERT_MSG(m.slot == slot_info.size() && m.leaf_base == row_end,
                   "validate: scan members must own consecutive slots and "
                   "leaf rows");
    row_end += row_size(m.leaves);
    if (m.leaves <= kSlotLeaves) {
      slot_info.push_back({m.leaves, true});
    } else {
      slot_info.push_back({kSlotLeaves, false});
      slot_info.push_back({m.leaves - kSlotLeaves, true});
    }
  }
  HDD_ASSERT_MSG(slot_info.size() == scan_slots_ &&
                     row_end == scan_leaves_.size(),
                 "validate: scan slots or leaf rows do not match the members");
  for (std::size_t f = 0; f + 1 < scan_begin_.size(); ++f) {
    HDD_ASSERT_MSG(scan_begin_[f] <= scan_begin_[f + 1],
                   "validate: scan feature ranges overlap");
    for (std::uint32_t i = scan_begin_[f]; i < scan_begin_[f + 1]; ++i) {
      const ScanSplit& s = scan_splits_[i];
      HDD_ASSERT_MSG(s.slot < scan_slots_,
                     "validate: scan split slot out of range");
      HDD_ASSERT_MSG(i == scan_begin_[f] ||
                         scan_splits_[i - 1].threshold <= s.threshold,
                     "validate: scan thresholds must ascend per feature");
      // The cleared leaves: one non-empty run inside the slot's leaves,
      // stopping before the member's last leaf, so every lane keeps a
      // leaf of its member and the exit stays inside the member.
      const SlotInfo& slot = slot_info[s.slot];
      const std::uint32_t cleared = ~s.mask;
      const int lo = std::countr_zero(cleared);
      const std::uint32_t run = cleared == 0 ? 0 : cleared >> lo;
      const auto end = static_cast<std::uint32_t>(lo + std::popcount(run));
      HDD_ASSERT_MSG(cleared != 0 && (run & (run + 1)) == 0 &&
                         (slot.last ? end < slot.leaves : end <= slot.leaves),
                     "validate: scan mask must clear a contiguous run of "
                     "the slot's leaves");
    }
  }
}

}  // namespace hdd::tree
