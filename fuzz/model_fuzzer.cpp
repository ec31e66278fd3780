// model_fuzzer — hostile bytes as a persisted model file.
//
// The header-sniffing AnyModel loader under VerifyMode::kStrict: malformed
// text must throw DataError (ParseError for declared-size violations —
// *before* any allocation sized by the header), whatever parses must
// survive the full analysis:: static verifier, and a tree model's packed
// inference form must pass tree::FlatEnsemble::validate() in every build.
// A std::logic_error (HDD_ASSERT) or sanitizer report here means a parser
// or packing invariant broke.
#include "fuzz/harness.h"

#include <sstream>
#include <string>
#include <variant>

#include "common/error.h"
#include "core/model_io.h"

namespace hdd::fuzz {

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
    } else if (const auto* f = std::get_if<forest::RandomForest>(&model)) {
      f->flat().validate();
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
