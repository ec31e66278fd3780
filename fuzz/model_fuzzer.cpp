// model_fuzzer — hostile bytes as a persisted model file.
//
// The header-sniffing AnyModel loader under VerifyMode::kStrict: malformed
// text must throw DataError (ParseError for declared-size violations —
// *before* any allocation sized by the header), whatever parses must
// survive the full analysis:: static verifier, and a tree model's packed
// inference form must pass tree::FlatEnsemble::validate() in every build,
// and its two kernels (the 16-row scan of predict_batch and the per-row
// walk of predict) must return the same bits on probe rows built from the
// model's own thresholds. A std::logic_error (HDD_ASSERT) or sanitizer
// report here means a parser, packing or kernel invariant broke.
#include "fuzz/harness.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "common/error.h"
#include "core/model_io.h"

namespace hdd::fuzz {

namespace {

// 33 probe rows: two 16-row groups for the scan and a one-row tail. Each
// starts as a mix of NaN, ±inf and ±0; split i then puts its threshold, or
// the float just below or above it, into row i mod 33 at its feature.
template <typename Model>
void expect_kernels_agree(const Model& model) {
  constexpr std::size_t kRows = 33;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kSpecial[] = {std::numeric_limits<float>::quiet_NaN(), kInf,
                                -kInf, 0.0f, -0.0f};
  const auto nf = static_cast<std::size_t>(model.num_features());
  std::vector<float> rows(kRows * nf);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i] = kSpecial[(i / nf + i % nf) % std::size(kSpecial)];
  }
  const auto splits = model.flat().splits();
  for (std::size_t i = 0; i < splits.size(); ++i) {
    const float t = splits[i].threshold;
    rows[i % kRows * nf + static_cast<std::size_t>(splits[i].feature)] =
        i % 3 == 0 ? t : std::nextafter(t, i % 3 == 1 ? -kInf : kInf);
  }
  std::vector<double> batch(kRows);
  model.predict_batch(rows, batch);
  for (std::size_t r = 0; r < kRows; ++r) {
    const double one = model.predict(std::span(rows).subspan(r * nf, nf));
    HDD_ASSERT_MSG(std::bit_cast<std::uint64_t>(batch[r]) ==
                       std::bit_cast<std::uint64_t>(one),
                   "predict_batch and predict disagree");
  }
}

}  // namespace

int fuzz_model(const std::uint8_t* data, std::size_t size) {
  // A real model file the daemon would load tops out well under the store's
  // 1 MiB generation-record cap; larger inputs only slow the fuzzer down.
  constexpr std::size_t kMaxInput = 1u << 20;
  if (size > kMaxInput) size = kMaxInput;
  std::istringstream is(
      std::string(reinterpret_cast<const char*>(data), size));
  core::LoadOptions opt;
  opt.verify = core::VerifyMode::kStrict;
  try {
    const core::AnyModel model = core::load_model(is, opt);
    if (const auto* t = std::get_if<tree::DecisionTree>(&model)) {
      t->flat().validate();
      expect_kernels_agree(*t);
    } else if (const auto* f = std::get_if<forest::RandomForest>(&model)) {
      f->flat().validate();
      expect_kernels_agree(*f);
    }
  } catch (const DataError&) {
    // Malformed or verifier-rejected input: the expected outcome.
  } catch (const ConfigError&) {
    // Structurally impossible parameters: also a structured rejection.
  }
  return 0;
}

}  // namespace hdd::fuzz

#ifdef HDD_FUZZ_TARGET
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return hdd::fuzz::fuzz_model(data, size);
}
#endif
