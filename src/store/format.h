// On-disk format of the durable telemetry store (README "Durable telemetry
// store" has the diagram).
//
// A store is a directory of segment files "seg-<seq>.log":
//
//   segment  = header | frame*
//   header   = magic "HDDTLG1\n" (8B) | version u32 | sequence u64 |
//              flags u32 | crc u32           -- CRC-32 of the first 24 bytes
//   frame    = length u32 | crc u32 | payload  -- CRC-32 of the payload
//   payload  = type u8 | body
//     type 1 (drive registration): id u32 | serial_len u16 | serial bytes
//     type 2 (SMART sample):       drive u32 | hour i64 | 12 x f32 attrs
//     type 3 (model generation):   generation u64 | model_len u32 | model
//                                  bytes (core/model_io text serialization)
//
// All integers are little-endian; floats are IEEE-754 bit patterns. The
// codec lives in its own header so tests can craft corrupt segments
// byte-for-byte and the recovery rules stay pinned by the format, not by
// store internals.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "smart/drive.h"

namespace hdd::store {

inline constexpr char kSegmentMagic[8] = {'H', 'D', 'D', 'T', 'L', 'G',
                                          '1', '\n'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kSegmentHeaderBytes = 28;
inline constexpr std::size_t kFrameHeaderBytes = 8;
// A frame whose declared payload length exceeds this is treated as
// corruption, not as a huge record.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;

// Segment header flag: this segment is a compaction output and supersedes
// every segment with a lower sequence number (crash-safe replacement — old
// segments may still be on disk if the process died before unlinking them).
inline constexpr std::uint32_t kSegCompacted = 1u << 0;

enum class RecordType : std::uint8_t {
  kDrive = 1,
  kSample = 2,
  kGeneration = 3,
};

// CRC-32 (IEEE 802.3, reflected 0xEDB88320), the checksum of zlib/gzip.
// Computed slice-by-8 (eight table lookups per 8 input bytes); the values
// are identical to the classic byte-at-a-time loop, so every on-disk CRC
// and every test-crafted corrupt segment keeps meaning the same thing.
std::uint32_t crc32(const void* data, std::size_t n);

// --- Little-endian codec ----------------------------------------------------
// Shared by the segment codec and the serve wire codec (serve/wire.h), which
// reuses this framing idiom over TCP. store_le/load_le are the only place
// either format deals with the host byte order; every other encoder and
// decoder writes and reads fixed-width fields through them, a whole block
// at a time where the layout allows (one bounds check, no per-byte
// appends).

template <class T>
inline void store_le(char* p, T v) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      p[i] = static_cast<char>(v >> (8 * i));
    }
  }
}

template <class T>
[[nodiscard]] inline T load_le(const char* p) {
  static_assert(std::is_unsigned_v<T>);
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      v |= static_cast<T>(static_cast<T>(static_cast<unsigned char>(p[i]))
                          << (8 * i));
    }
  }
  return v;
}

template <class T>
inline void put_le(std::string& out, T v) {
  char b[sizeof v];
  store_le(b, v);
  out.append(b, sizeof v);
}
inline void put_u8(std::string& out, std::uint8_t v) { put_le(out, v); }
inline void put_u16(std::string& out, std::uint16_t v) { put_le(out, v); }
inline void put_u32(std::string& out, std::uint32_t v) { put_le(out, v); }
inline void put_u64(std::string& out, std::uint64_t v) { put_le(out, v); }

// A SMART sample's body as both formats carry it: hour u64 | 12 x f32.
inline constexpr std::size_t kSampleBodyBytes = 8 + 4 * smart::kNumAttributes;

inline void store_sample_body(char* p, const smart::Sample& s) {
  store_le(p, static_cast<std::uint64_t>(s.hour));
  for (std::size_t i = 0; i < s.attrs.size(); ++i) {
    store_le(p + 8 + 4 * i, std::bit_cast<std::uint32_t>(s.attrs[i]));
  }
}

// Bounds-checked little-endian cursor over a payload. Every accessor's
// return value is the bounds check — ignoring one reads garbage, hence
// [[nodiscard]] throughout.
struct Reader {
  std::string_view bytes;
  std::size_t pos = 0;

  [[nodiscard]] bool remaining(std::size_t n) const {
    return bytes.size() - pos >= n;
  }

  template <class T>
  [[nodiscard]] bool le(T& v) {
    if (!remaining(sizeof v)) return false;
    v = load_le<T>(bytes.data() + pos);
    pos += sizeof v;
    return true;
  }
  [[nodiscard]] bool u8(std::uint8_t& v) { return le(v); }
  [[nodiscard]] bool u16(std::uint16_t& v) { return le(v); }
  [[nodiscard]] bool u32(std::uint32_t& v) { return le(v); }
  [[nodiscard]] bool u64(std::uint64_t& v) { return le(v); }

  // The next n bytes, uncopied.
  [[nodiscard]] bool view(std::size_t n, std::string_view& v) {
    if (!remaining(n)) return false;
    v = bytes.substr(pos, n);
    pos += n;
    return true;
  }

  // One sample body (store_sample_body's layout): a single bounds check,
  // then one block read.
  [[nodiscard]] bool sample(smart::Sample& s) {
    if (!remaining(kSampleBodyBytes)) return false;
    const char* p = bytes.data() + pos;
    s.hour = static_cast<std::int64_t>(load_le<std::uint64_t>(p));
    for (std::size_t i = 0; i < s.attrs.size(); ++i) {
      s.attrs[i] = std::bit_cast<float>(load_le<std::uint32_t>(p + 8 + 4 * i));
    }
    pos += kSampleBodyBytes;
    return true;
  }
};

struct SegmentHeader {
  std::uint64_t sequence = 0;
  std::uint32_t flags = 0;
};

std::string encode_segment_header(std::uint64_t sequence, std::uint32_t flags);
// nullopt when the bytes are short, the magic/version is wrong, or the
// header checksum fails.
std::optional<SegmentHeader> decode_segment_header(std::string_view bytes);

// Record payloads (unframed).
std::string encode_drive_record(std::uint32_t id, std::string_view serial);
std::string encode_sample_record(std::uint32_t drive,
                                 const smart::Sample& sample);
// A promoted model: its generation number plus its full serialized text.
// The update pipeline journals one of these atomically with each hot-swap
// so kill -> resume restores the promoted model byte-identically.
std::string encode_generation_record(std::uint64_t generation,
                                     std::string_view model_text);

// Wraps a payload in a length + CRC frame.
std::string frame_record(std::string_view payload);

// Appends a complete frame (header + sample payload) to `out` in place —
// no intermediate strings. The batched append path encodes thousands of
// these into one reused buffer per write syscall.
void append_sample_frame(std::string& out, std::uint32_t drive,
                         const smart::Sample& sample);

// Bytes one sample occupies on disk: frame header + type/drive/hour/attrs.
inline constexpr std::size_t kSampleFrameBytes =
    kFrameHeaderBytes + 1 + 4 + kSampleBodyBytes;

struct DecodedRecord {
  RecordType type = RecordType::kSample;
  std::uint32_t drive = 0;
  std::string serial;       // kDrive only
  smart::Sample sample;     // kSample only
  std::uint64_t generation = 0;  // kGeneration only
  std::string model_text;        // kGeneration only
};

// nullopt on an unknown type or a body that does not match its type's
// layout (the payload is assumed to have passed its CRC already).
std::optional<DecodedRecord> decode_record(std::string_view payload);

}  // namespace hdd::store
