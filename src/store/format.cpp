#include "store/format.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HDD_CRC32_CLMUL 1
#include <immintrin.h>
#endif

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

#ifdef HDD_CRC32_CLMUL
// The carry-less-multiply kernel of Gopal et al. (see kCrc32Fold). Its
// functions are compiled for PCLMULQDQ + SSE4.1 only, so the rest of the
// binary keeps the baseline ISA.

__m128i load16(const char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

__m128i pair(std::uint64_t lo, std::uint64_t hi) {
  return _mm_set_epi64x(static_cast<long long>(hi), static_cast<long long>(lo));
}

// x's low half times k's low constant plus x's high half times k's high
// one: moves x ahead by the distance k encodes.
__attribute__((target("pclmul,sse4.1"))) __m128i fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

// 128 bits of folded message down to its 32-bit CRC state.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t reduce128(__m128i x) {
  const Crc32FoldConstants& kc = kCrc32Fold;
  // 128 -> 64 bits: the low half times x^(128-32) onto the high half ...
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8),
                    _mm_clmulepi64_si128(x, pair(kc.k3, kc.k4), 0x10));
  // ... then its low 32 bits times x^64 onto the rest.
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32),
                                         pair(kc.k5, 0), 0x00));
  // Barrett: q = floor(x / P) from mu, and x - q * P leaves the remainder
  // in bits 32..63.
  const __m128i barrett = pair(kc.poly, kc.mu);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

// Over n >= 64 bytes, n a multiple of 16; takes and returns the running
// (pre-inversion) CRC state c, like one pass of the table loop. Four
// 128-bit lanes fold 64 bytes per step; the lanes then fold into one,
// further 16-byte blocks fold into it, and reduce128 brings the 128 bits
// down to the 32-bit remainder.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_clmul(
    const char* p, std::size_t n, std::uint32_t c) {
  const Crc32FoldConstants& kc = kCrc32Fold;

  __m128i x0 = _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load16(p + 16);
  __m128i x2 = load16(p + 32);
  __m128i x3 = load16(p + 48);
  p += 64;
  n -= 64;
  const __m128i k12 = pair(kc.k1, kc.k2);
  while (n >= 64) {
    x0 = _mm_xor_si128(fold(x0, k12), load16(p));
    x1 = _mm_xor_si128(fold(x1, k12), load16(p + 16));
    x2 = _mm_xor_si128(fold(x2, k12), load16(p + 32));
    x3 = _mm_xor_si128(fold(x3, k12), load16(p + 48));
    p += 64;
    n -= 64;
  }
  const __m128i k34 = pair(kc.k3, kc.k4);
  x0 = _mm_xor_si128(fold(x0, k34), x1);
  x0 = _mm_xor_si128(fold(x0, k34), x2);
  x0 = _mm_xor_si128(fold(x0, k34), x3);
  while (n >= 16) {
    x0 = _mm_xor_si128(fold(x0, k34), load16(p));
    p += 16;
    n -= 16;
  }
  return reduce128(x0);
}

// CRC-32 of n zero bytes, one bit step at a time.
constexpr std::uint32_t crc32_of_zeros(std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < 8 * n; ++i) {
    c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

// The sample-frame kernel (format.h, seal_sample_frames_clmul): per frame,
// the 64-byte window that ends at the payload's end, its header bytes
// masked off, three 16-byte folds, reduce128, and the zero-prefix term.
__attribute__((target("pclmul,sse4.1"))) void seal_frames_clmul(
    char* f, std::size_t k) {
  constexpr std::size_t kLead = 64 - kSamplePayloadBytes;
  static_assert(kSamplePayloadBytes >= 48 && kSamplePayloadBytes < 64,
                "the masked header bytes must sit in the window's first "
                "16-byte block");
  static_assert(kFrameHeaderBytes >= kLead,
                "the window must start inside the frame's own header");
  constexpr std::uint32_t kZeros = crc32_of_zeros(kSamplePayloadBytes);
  const __m128i k34 = pair(kCrc32Fold.k3, kCrc32Fold.k4);
  const __m128i payload_only = _mm_slli_si128(_mm_set1_epi8(-1), kLead);
  for (std::size_t i = 0; i < k; ++i, f += kSampleFrameBytes) {
    const char* w = f + kSampleFrameBytes - 64;
    __m128i x = _mm_and_si128(load16(w), payload_only);
    x = _mm_xor_si128(fold(x, k34), load16(w + 16));
    x = _mm_xor_si128(fold(x, k34), load16(w + 32));
    x = _mm_xor_si128(fold(x, k34), load16(w + 48));
    store_le(f + 4, reduce128(x) ^ kZeros);
  }
}

bool have_clmul() {
  static const bool yes = __builtin_cpu_supports("pclmul") &&
                          __builtin_cpu_supports("sse4.1");
  return yes;
}
#endif

// Writes a sample record's payload (type u8 | drive u32 | sample body,
// kSamplePayloadBytes bytes) at p.
void store_sample_payload(char* p, std::uint32_t drive,
                          const smart::Sample& sample) {
  p[0] = static_cast<char>(RecordType::kSample);
  store_le(p + 1, drive);
  store_sample_body(p + 5, sample);
}

void put_drive_payload(std::string& out, std::uint32_t id,
                       std::string_view serial) {
  put_u8(out, static_cast<std::uint8_t>(RecordType::kDrive));
  put_u32(out, id);
  put_u16(out, static_cast<std::uint16_t>(serial.size()));
  out.append(serial);
}

void put_generation_payload(std::string& out, std::uint64_t generation,
                            std::string_view model_text) {
  put_u8(out, static_cast<std::uint8_t>(RecordType::kGeneration));
  put_u64(out, generation);
  put_u32(out, static_cast<std::uint32_t>(model_text.size()));
  out.append(model_text);
}

// A frame is built in place: open_frame appends a blank header and
// returns its offset, the payload is appended after it, and seal_frame
// fills in the header's length and CRC over everything that follows.
std::size_t open_frame(std::string& out) {
  out.append(kFrameHeaderBytes, '\0');
  return out.size() - kFrameHeaderBytes;
}

void seal_frame(std::string& out, std::size_t at) {
  char* p = out.data() + at;
  const auto len =
      static_cast<std::uint32_t>(out.size() - at - kFrameHeaderBytes);
  store_le(p, len);
  store_le(p + 4, crc32(p + kFrameHeaderBytes, len));
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n) {
  const CrcTables& tb = crc_tables();
  const auto* p = static_cast<const char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
#ifdef HDD_CRC32_CLMUL
  if (n >= 64 && have_clmul()) {
    const std::size_t whole = n & ~std::size_t{15};
    c = crc32_clmul(p, whole, c);
    p += whole;
    n -= whole;
  }
#endif
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

std::string frame_record(std::string_view payload) {
  std::string out;
  const std::size_t at = open_frame(out);
  out.append(payload);
  seal_frame(out, at);
  return out;
}

void append_drive_frame(std::string& out, std::uint32_t id,
                        std::string_view serial) {
  const std::size_t at = open_frame(out);
  put_drive_payload(out, id, serial);
  seal_frame(out, at);
}

void append_sample_frames(std::string& out, std::uint32_t drive,
                          const smart::Sample* samples, std::size_t k) {
  const std::size_t at = out.size();
  out.resize(at + k * kSampleFrameBytes);
  char* f = out.data() + at;
  for (std::size_t i = 0; i < k; ++i, f += kSampleFrameBytes) {
    store_le(f, static_cast<std::uint32_t>(kSamplePayloadBytes));
    store_sample_payload(f + kFrameHeaderBytes, drive, samples[i]);
  }
  seal_sample_frames(out.data() + at, k);
}

bool seal_sample_frames_clmul([[maybe_unused]] char* frames,
                              [[maybe_unused]] std::size_t k) {
#ifdef HDD_CRC32_CLMUL
  if (have_clmul()) {
    seal_frames_clmul(frames, k);
    return true;
  }
#endif
  return false;
}

void seal_sample_frames_table(char* frames, std::size_t k) {
  for (std::size_t i = 0; i < k; ++i, frames += kSampleFrameBytes) {
    store_le(frames + 4,
             crc32(frames + kFrameHeaderBytes, kSamplePayloadBytes));
  }
}

void append_generation_frame(std::string& out, std::uint64_t generation,
                             std::string_view model_text) {
  const std::size_t at = open_frame(out);
  put_generation_payload(out, generation, model_text);
  seal_frame(out, at);
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
