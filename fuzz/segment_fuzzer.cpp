// segment_fuzzer — hostile bytes as an on-disk telemetry segment.
//
// Layer 1 drives the store::format decoders directly (segment header,
// manual frame walk, record decode). Layer 2 writes the same bytes to a
// scratch directory as seg-1.log and opens a real TelemetryStore over it:
// the recovery taxonomy (torn tail, CRC drop, header skip, bad reference)
// must classify anything without throwing for corrupt *data* — only
// environment failures may surface as DataError.
#include "fuzz/harness.h"

#include <unistd.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "io/env.h"
#include "store/format.h"
#include "store/telemetry_store.h"

namespace hdd::fuzz {

namespace {

// One scratch directory per process, reused across inputs (the segment
// file is rewritten each run; recovery may truncate or delete it).
const std::string& scratch_dir() {
  static const std::string dir = [] {
    std::string d = "/tmp/hdd_segment_fuzz." + std::to_string(getpid());
    (void)io::Env::posix().create_dirs(d);
    return d;
  }();
  return dir;
}

void walk_frames(std::string_view bytes) {
  (void)store::decode_segment_header(bytes);
  std::size_t pos = store::kSegmentHeaderBytes;
  while (pos < bytes.size()) {
    const std::size_t remaining = bytes.size() - pos;
    if (remaining < store::kFrameHeaderBytes) break;
    const std::uint32_t len = store::load_le<std::uint32_t>(bytes.data() + pos);
    const std::uint32_t crc =
        store::load_le<std::uint32_t>(bytes.data() + pos + 4);
    if (len == 0 || len > store::kMaxPayloadBytes ||
        len > remaining - store::kFrameHeaderBytes) {
      break;
    }
    const std::string_view payload =
        bytes.substr(pos + store::kFrameHeaderBytes, len);
    if (store::crc32(payload.data(), payload.size()) == crc) {
      (void)store::decode_record(payload);
    }
    pos += store::kFrameHeaderBytes + len;
  }
}

}  // namespace

int fuzz_segment(const std::uint8_t* data, std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  if (bytes.size() >= store::kSegmentHeaderBytes) walk_frames(bytes);

  // Full recovery over the same bytes. Leftovers from the previous input
  // (compacted outputs, rotated segments) are cleared first so each run
  // recovers exactly one hostile segment.
  io::Env& env = io::Env::posix();
  const std::string& dir = scratch_dir();
  std::vector<std::string> names;
  if (!env.list_dir(dir, names).ok()) return 0;
  for (const std::string& name : names) {
    (void)env.remove_file(dir + "/" + name);
  }
  if (!env.write_file(dir + "/seg-1.log", bytes, /*sync=*/false).ok()) {
    return 0;
  }
  try {
    store::TelemetryStore store(dir);
    // Exercise the index the scan built: every recovered record must be
    // readable back without throwing.
    for (std::uint32_t id = 0; id < store.drive_count(); ++id) {
      (void)store.drive(id);
      (void)store.read_drive(id);
    }
    (void)store.sample_count();
    (void)store.last_hour();
    (void)store.latest_generation();
  } catch (const DataError&) {
    // Environment-level failure (unreadable dir, I/O): legal rejection.
  }
  return 0;
}

}  // namespace hdd::fuzz

#ifdef HDD_FUZZ_TARGET
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return hdd::fuzz::fuzz_segment(data, size);
}
#endif
