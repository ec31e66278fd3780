#include "smart/drive.h"

#include <algorithm>
#include <cmath>

namespace hdd::smart {

const char* sample_fault_name(SampleFault f) {
  switch (f) {
    case SampleFault::kNone: return "none";
    case SampleFault::kNonFinite: return "non_finite";
    case SampleFault::kOutOfDomain: return "out_of_domain";
  }
  return "unknown";
}

SampleFault classify_sample(const Sample& s, bool domain_check) {
  for (int i = 0; i < kNumAttributes; ++i) {
    if (!std::isfinite(s.attrs[static_cast<std::size_t>(i)])) {
      return SampleFault::kNonFinite;
    }
  }
  if (domain_check) {
    for (int i = 0; i < kNumAttributes; ++i) {
      const auto r = attribute_range(static_cast<Attr>(i));
      const double v = s.attrs[static_cast<std::size_t>(i)];
      if (v < r.lo || v > r.hi) return SampleFault::kOutOfDomain;
    }
  }
  return SampleFault::kNone;
}

std::int64_t DriveRecord::last_sample_at_or_before(std::int64_t h) const {
  auto it = std::upper_bound(
      samples.begin(), samples.end(), h,
      [](std::int64_t hour, const Sample& s) { return hour < s.hour; });
  if (it == samples.begin()) return -1;
  return static_cast<std::int64_t>(std::distance(samples.begin(), it)) - 1;
}

std::pair<std::size_t, std::size_t> DriveRecord::samples_between(
    std::int64_t from, std::int64_t to) const {
  const auto first =
      static_cast<std::size_t>(last_sample_at_or_before(from - 1) + 1);
  const auto last =
      static_cast<std::size_t>(last_sample_at_or_before(to) + 1);
  return {first, std::max(first, last)};
}

}  // namespace hdd::smart
