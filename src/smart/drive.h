// Core telemetry records: one SMART sample, one drive's observation history.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "smart/attributes.h"

namespace hdd::smart {

// One SMART reading. `hour` is hours since the observation epoch (the start
// of data collection); samples are stored in chronological order.
struct Sample {
  std::int64_t hour = 0;
  std::array<float, kNumAttributes> attrs{};

  float value(Attr a) const { return attrs[static_cast<std::size_t>(index_of(a))]; }
  void set(Attr a, float v) { attrs[static_cast<std::size_t>(index_of(a))] = v; }
};

// A drive's full observation record, as collected by the telemetry system.
//
// Good drives carry samples over the whole observation period; failed drives
// carry samples from a window before the actual failure (20 days in the
// paper, truncated if the drive failed early in the collection period).
struct DriveRecord {
  std::string serial;
  int family = 0;               // index into DriveDataset::family_names
  bool failed = false;
  std::int64_t fail_hour = -1;  // hour of actual failure; -1 for good drives
  std::vector<Sample> samples;  // chronological, possibly with gaps

  bool empty() const { return samples.empty(); }
  std::int64_t first_hour() const { return samples.front().hour; }
  std::int64_t last_hour() const { return samples.back().hour; }

  // Index of the last sample with hour <= h, or -1 if none.
  // O(log n) binary search over the chronological samples.
  std::int64_t last_sample_at_or_before(std::int64_t h) const;

  // Index range [first, second) of the samples with hour in [from, to].
  std::pair<std::size_t, std::size_t> samples_between(std::int64_t from,
                                                      std::int64_t to) const;
};

// Ingest-time validity of one sample. kNonFinite means some attribute is
// NaN/Inf (always garbage — no finite arithmetic downstream can use it);
// kOutOfDomain means every value is finite but at least one falls outside
// its declared attribute_range() (vendor 1–253 scale for normalized
// attributes, non-negative for raw counters).
enum class SampleFault { kNone, kNonFinite, kOutOfDomain };

const char* sample_fault_name(SampleFault f);

// Classifies a sample for quarantine decisions. `domain_check` additionally
// applies the attribute_range() bounds — callers scoring synthetic or
// pre-normalized values keep it off and quarantine only non-finite input.
SampleFault classify_sample(const Sample& s, bool domain_check = true);

}  // namespace hdd::smart
