// frame_fuzzer — hostile bytes against the serve wire layer.
//
// Two surfaces in one harness, because they guard each other: the
// incremental FrameParser (which must bound memory *before* trusting a
// length prefix) and the op/status payload decoders (which must return
// nullopt, never throw, on any byte salad — including the optional
// trailing trace-id u64 that only an exactly-8-bytes surplus may claim —
// and must decode every ingest payload they accept into well-formed runs).
#include "fuzz/harness.h"

#include <optional>
#include <string>
#include <string_view>

#include "serve/wire.h"
#include "store/format.h"

namespace hdd::fuzz {

namespace {

// The decoded run form of an ingest request: runs cover the samples in
// order, none is empty or unnamed, and adjacent runs name different drives.
void check_runs(const std::optional<serve::Request>& req) {
  if (!req || req->op != serve::Op::kIngest) return;
  const serve::IngestRuns& in = req->ingest;
  std::size_t next = 0;
  for (std::size_t r = 0; r < in.runs.size(); ++r) {
    const serve::IngestRun& run = in.runs[r];
    if (run.first != next || run.count == 0 || run.serial.empty() ||
        (r > 0 && run.serial == in.runs[r - 1].serial)) {
      __builtin_trap();
    }
    next += run.count;
  }
  if (next != in.samples.size()) __builtin_trap();
}

}  // namespace

int fuzz_frame(const std::uint8_t* data, std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);

  // Incremental path: the first byte picks the feed pattern so the fuzzer
  // controls where TCP read() boundaries land relative to frame headers.
  if (!bytes.empty()) {
    serve::FrameParser parser;
    const std::size_t chunk = 1 + (bytes[0] & 0x3f);
    std::string payload;
    for (std::size_t at = 1; at < bytes.size(); at += chunk) {
      parser.feed(bytes.substr(at, chunk));
      // Drain after every feed, like the server's read loop.
      for (;;) {
        const auto r = parser.next(payload);
        if (r != serve::FrameParser::Result::kFrame) break;
        check_runs(serve::decode_request(payload));
      }
    }
    // The feed()-time cap: the parser may never hold more than one max
    // frame plus one feed chunk, no matter what the length prefixes said.
    if (parser.buffered() > store::kFrameHeaderBytes +
                                serve::kMaxWirePayloadBytes + chunk) {
      __builtin_trap();
    }
  }

  // Direct path: the raw bytes as one unframed payload through every
  // decoder. All of them return optionals; none may throw or crash.
  check_runs(serve::decode_request(bytes));
  (void)serve::decode_status(bytes);
  (void)serve::decode_ingest_response(bytes);
  (void)serve::decode_query_response(bytes);
  (void)serve::decode_stats_response(bytes);
  (void)serve::decode_error_message(bytes);
  return 0;
}

}  // namespace hdd::fuzz

#ifdef HDD_FUZZ_TARGET
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return hdd::fuzz::fuzz_frame(data, size);
}
#endif
