#include "store/format.h"

#include <cstring>

namespace hdd::store {

namespace {

// Eight CRC tables: table[0] is the classic byte-at-a-time table; table[k]
// advances a byte through k additional zero bytes, which is what lets the
// slice-by-8 loop fold 8 input bytes with 8 independent lookups.
struct CrcTables {
  std::uint32_t t[8][256];
};

CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables.t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tables.t[0][i];
    for (int k = 1; k < 8; ++k) {
      c = tables.t[0][c & 0xFFu] ^ (c >> 8);
      tables.t[k][i] = c;
    }
  }
  return tables;
}

const CrcTables& crc_tables() {
  static const CrcTables tables = make_crc_tables();
  return tables;
}

// Writes a sample record's payload (type u8 | drive u32 | sample body,
// kSampleFrameBytes - kFrameHeaderBytes bytes) at p.
void store_sample_payload(char* p, std::uint32_t drive,
                          const smart::Sample& sample) {
  p[0] = static_cast<char>(RecordType::kSample);
  store_le(p + 1, drive);
  store_sample_body(p + 5, sample);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n) {
  const CrcTables& tb = crc_tables();
  const auto* p = static_cast<const char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  while (n >= 8) {
    const std::uint32_t lo = load_le<std::uint32_t>(p) ^ c;
    const std::uint32_t hi = load_le<std::uint32_t>(p + 4);
    c = tb.t[7][lo & 0xFFu] ^ tb.t[6][(lo >> 8) & 0xFFu] ^
        tb.t[5][(lo >> 16) & 0xFFu] ^ tb.t[4][lo >> 24] ^
        tb.t[3][hi & 0xFFu] ^ tb.t[2][(hi >> 8) & 0xFFu] ^
        tb.t[1][(hi >> 16) & 0xFFu] ^ tb.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = tb.t[0][(c ^ static_cast<unsigned char>(*p++)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string encode_segment_header(std::uint64_t sequence,
                                  std::uint32_t flags) {
  std::string out;
  out.reserve(kSegmentHeaderBytes);
  out.append(kSegmentMagic, sizeof kSegmentMagic);
  put_u32(out, kFormatVersion);
  put_u64(out, sequence);
  put_u32(out, flags);
  put_u32(out, crc32(out.data(), out.size()));
  return out;
}

std::optional<SegmentHeader> decode_segment_header(std::string_view bytes) {
  if (bytes.size() < kSegmentHeaderBytes) return std::nullopt;
  if (std::memcmp(bytes.data(), kSegmentMagic, sizeof kSegmentMagic) != 0) {
    return std::nullopt;
  }
  Reader r{bytes, sizeof kSegmentMagic};
  std::uint32_t version = 0, flags = 0, crc = 0;
  std::uint64_t sequence = 0;
  if (!r.u32(version) || !r.u64(sequence) || !r.u32(flags) || !r.u32(crc)) {
    return std::nullopt;
  }
  if (version != kFormatVersion) return std::nullopt;
  if (crc != crc32(bytes.data(), kSegmentHeaderBytes - 4)) return std::nullopt;
  return SegmentHeader{sequence, flags};
}

std::string encode_drive_record(std::uint32_t id, std::string_view serial) {
  std::string out;
  out.reserve(1 + 4 + 2 + serial.size());
  put_u8(out, static_cast<std::uint8_t>(RecordType::kDrive));
  put_u32(out, id);
  put_u16(out, static_cast<std::uint16_t>(serial.size()));
  out.append(serial);
  return out;
}

std::string encode_sample_record(std::uint32_t drive,
                                 const smart::Sample& sample) {
  std::string out(kSampleFrameBytes - kFrameHeaderBytes, '\0');
  store_sample_payload(out.data(), drive, sample);
  return out;
}

std::string encode_generation_record(std::uint64_t generation,
                                     std::string_view model_text) {
  std::string out;
  out.reserve(1 + 8 + 4 + model_text.size());
  put_u8(out, static_cast<std::uint8_t>(RecordType::kGeneration));
  put_u64(out, generation);
  put_u32(out, static_cast<std::uint32_t>(model_text.size()));
  out.append(model_text);
  return out;
}

std::string frame_record(std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload.data(), payload.size()));
  out.append(payload);
  return out;
}

void append_sample_frame(std::string& out, std::uint32_t drive,
                         const smart::Sample& sample) {
  constexpr std::uint32_t kPayload =
      static_cast<std::uint32_t>(kSampleFrameBytes - kFrameHeaderBytes);
  const std::size_t at = out.size();
  out.resize(at + kSampleFrameBytes);
  char* p = out.data() + at;
  store_le(p, kPayload);
  store_sample_payload(p + kFrameHeaderBytes, drive, sample);
  store_le(p + 4, crc32(p + kFrameHeaderBytes, kPayload));
}

std::optional<DecodedRecord> decode_record(std::string_view payload) {
  Reader r{payload};
  std::uint8_t type = 0;
  if (!r.u8(type)) return std::nullopt;
  DecodedRecord rec;
  if (type == static_cast<std::uint8_t>(RecordType::kDrive)) {
    rec.type = RecordType::kDrive;
    std::uint16_t len = 0;
    std::string_view serial;
    if (!r.u32(rec.drive) || !r.u16(len) || !r.view(len, serial)) {
      return std::nullopt;
    }
    rec.serial.assign(serial);
    return rec;
  }
  if (type == static_cast<std::uint8_t>(RecordType::kSample)) {
    rec.type = RecordType::kSample;
    if (!r.u32(rec.drive) || !r.sample(rec.sample)) return std::nullopt;
    return rec;
  }
  if (type == static_cast<std::uint8_t>(RecordType::kGeneration)) {
    rec.type = RecordType::kGeneration;
    std::uint32_t len = 0;
    std::string_view text;
    if (!r.u64(rec.generation) || !r.u32(len) || !r.view(len, text) ||
        r.pos != payload.size()) {
      return std::nullopt;
    }
    rec.model_text.assign(text);
    return rec;
  }
  return std::nullopt;
}

}  // namespace hdd::store
