// Tests for src/store: on-disk format codec round trips, append/reopen,
// rotation, retention, and — the point of the subsystem — deterministic
// recovery from every corruption class: torn tail, flipped payload bit,
// empty segment, unreadable header, and crash-interrupted compaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "hex_bytes.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "store/format.h"
#include "store/telemetry_store.h"

namespace hdd::store {
namespace {

namespace fs = std::filesystem;

smart::Sample make_sample(std::int64_t hour, float base = 0.0f) {
  smart::Sample s;
  s.hour = hour;
  for (std::size_t a = 0; a < s.attrs.size(); ++a) {
    s.attrs[a] = base + static_cast<float>(a) + 0.25f * static_cast<float>(hour);
  }
  return s;
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("hdd_store_test_") + info->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  std::vector<fs::path> segment_files() const {
    std::vector<fs::path> out;
    for (const auto& e : fs::directory_iterator(dir_)) {
      if (e.path().filename().string().rfind("seg-", 0) == 0) {
        out.push_back(e.path());
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  static std::string read_bytes(const fs::path& p) {
    std::ifstream is(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
  }

  static void write_bytes(const fs::path& p, const std::string& bytes) {
    std::ofstream os(p, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
};

// --- Format codec ----------------------------------------------------------

TEST(Format, SegmentHeaderRoundTrip) {
  const auto bytes = encode_segment_header(42, kSegCompacted);
  ASSERT_EQ(bytes.size(), kSegmentHeaderBytes);
  const auto h = decode_segment_header(bytes);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->sequence, 42u);
  EXPECT_EQ(h->flags, kSegCompacted);
}

TEST(Format, SegmentHeaderRejectsCorruption) {
  auto bytes = encode_segment_header(7, 0);
  EXPECT_FALSE(decode_segment_header(bytes.substr(0, 10)).has_value());
  bytes[3] ^= 0x01;  // damage the magic
  EXPECT_FALSE(decode_segment_header(bytes).has_value());
  bytes[3] ^= 0x01;
  bytes[12] ^= 0x40;  // damage the sequence -> checksum mismatch
  EXPECT_FALSE(decode_segment_header(bytes).has_value());
}

TEST(Format, DriveRecordRoundTrip) {
  const auto payload = encode_drive_record(3, "WD-XYZ-001");
  const auto rec = decode_record(payload);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->type, RecordType::kDrive);
  EXPECT_EQ(rec->drive, 3u);
  EXPECT_EQ(rec->serial, "WD-XYZ-001");
}

TEST(Format, SampleRecordRoundTripsBitExact) {
  const auto s = make_sample(1234, 0.875f);
  const auto payload = encode_sample_record(9, s);
  const auto rec = decode_record(payload);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->type, RecordType::kSample);
  EXPECT_EQ(rec->drive, 9u);
  EXPECT_EQ(rec->sample.hour, 1234);
  for (std::size_t a = 0; a < s.attrs.size(); ++a) {
    EXPECT_EQ(rec->sample.attrs[a], s.attrs[a]);  // exact bits, not approx
  }
}

TEST(Format, DecodeRejectsMalformedPayloads) {
  EXPECT_FALSE(decode_record("").has_value());
  EXPECT_FALSE(decode_record("\x07junk").has_value());  // unknown type
  const auto payload = encode_sample_record(1, make_sample(5));
  EXPECT_FALSE(decode_record(payload.substr(0, payload.size() - 3)));
}

TEST(Format, FrameCarriesPayloadCrc) {
  const auto payload = encode_drive_record(0, "S");
  const auto framed = frame_record(payload);
  ASSERT_EQ(framed.size(), kFrameHeaderBytes + payload.size());
  const auto crc = crc32(payload.data(), payload.size());
  std::uint32_t stored = 0;
  std::memcpy(&stored, framed.data() + 4, 4);
  EXPECT_EQ(stored, crc);
}

// --- Golden bytes ------------------------------------------------------------
// The layouts above written out by hand. Round trips cannot catch a change
// that is symmetric between encoder and decoder (a field-order swap, a
// byte-order flip); these can.

using test::hex_bytes;

std::uint32_t bits_of(float f) { return std::bit_cast<std::uint32_t>(f); }

// Attrs chosen to survive only a bit-exact codec: a NaN with a payload, a
// negative zero, an infinity and a denormal, then distinct patterns.
smart::Sample golden_sample() {
  smart::Sample s;
  s.hour = 0x0102030405060708;
  const std::uint32_t bits[] = {0x7FC00001u, 0x80000000u, 0x7F800000u,
                                0x00000001u, 0x3F800000u, 0xC0200000u};
  for (std::size_t a = 0; a < s.attrs.size(); ++a) {
    s.attrs[a] = std::bit_cast<float>(
        a < 6 ? bits[a] : 0x40000000u + static_cast<std::uint32_t>(a - 6));
  }
  return s;
}

TEST(Format, Crc32MatchesTheStandardCheckValue) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

// The byte-at-a-time CRC-32 straight from its table: the definition every
// faster path (slice-by-8, the carry-less-multiply fold) must reproduce.
std::uint32_t crc32_bytewise(const char* p, std::size_t n,
                             std::uint32_t c = 0xFFFFFFFFu) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t v = i;
      for (int k = 0; k < 8; ++k) {
        v = (v & 1u) ? 0xEDB88320u ^ (v >> 1) : v >> 1;
      }
      t[i] = v;
    }
    return t;
  }();
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ static_cast<unsigned char>(p[i])) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

std::string pseudo_random_bytes(std::size_t n, std::uint32_t seed) {
  std::string out(n, '\0');
  std::uint32_t x = seed;
  for (char& ch : out) {
    x = x * 1664525u + 1013904223u;
    ch = static_cast<char>(x >> 24);
  }
  return out;
}

// Every length across the table-loop/fold boundary (64) and every 16-byte
// tail, at every start alignment: unaligned loads, the <16-byte tail and
// the short-buffer path all agree with the bytewise definition.
TEST(Format, Crc32MatchesBytewiseAtEveryLengthAndOffset) {
  const std::string buf = pseudo_random_bytes(4096 + 16, 7);
  for (std::size_t off = 0; off < 16; ++off) {
    const char* p = buf.data() + off;
    std::uint32_t state = 0xFFFFFFFFu;  // bytewise state over p[0, n)
    for (std::size_t n = 0; n <= 4096; ++n) {
      ASSERT_EQ(crc32(p, n), state ^ 0xFFFFFFFFu)
          << "length " << n << " offset " << off;
      state = crc32_bytewise(p + n, 1, state);
    }
  }
}

// Whole wire frames: a ~380 KB ingest request and the 4 MiB frame cap.
TEST(Format, Crc32MatchesBytewiseOnLargeBuffers) {
  for (const std::size_t n : {std::size_t{384} << 10, std::size_t{4} << 20}) {
    const std::string buf = pseudo_random_bytes(n + 3, 11);
    for (const std::size_t off : {0, 3}) {
      EXPECT_EQ(crc32(buf.data() + off, n),
                crc32_bytewise(buf.data() + off, n) ^ 0xFFFFFFFFu)
          << "length " << n << " offset " << off;
    }
  }
}

// The standard check value, reached through the folding path: "123456789"
// repeated past 64 bytes agrees with the bytewise loop, and the bytewise
// loop itself still yields 0xCBF43926 on the 9-byte string.
TEST(Format, Crc32CheckValueHoldsOnTheFoldingPath) {
  EXPECT_EQ(crc32_bytewise("123456789", 9) ^ 0xFFFFFFFFu, 0xCBF43926u);
  std::string s;
  for (int i = 0; i < 15; ++i) s += "123456789";  // 135 bytes
  ASSERT_GE(s.size(), 64u);
  EXPECT_EQ(crc32(s.data(), s.size()),
            crc32_bytewise(s.data(), s.size()) ^ 0xFFFFFFFFu);
  // The first 9 bytes of a longer buffer, as a frame's prefix would be.
  EXPECT_EQ(crc32(s.data(), 9), 0xCBF43926u);
}

// x^e mod P with plain shift-and-xor polynomial arithmetic over GF(2).
std::uint64_t xpow_mod_p(int e) {
  constexpr std::uint64_t kP = 0x104C11DB7;
  std::uint64_t r = 1;
  for (int i = 0; i < e; ++i) {
    r <<= 1;
    if ((r >> 32) & 1u) r ^= kP;
  }
  return r;
}

std::uint64_t reflect(std::uint64_t v, int bits) {
  std::uint64_t out = 0;
  for (int i = 0; i < bits; ++i) out |= ((v >> i) & 1u) << (bits - 1 - i);
  return out;
}

// No unexplained constant: each fold constant is reflect32(x^e mod P) << 1
// for its documented exponent, mu is the reflected quotient x^64 / P and
// poly is P reflected.
TEST(Format, Crc32FoldConstantsDeriveFromThePolynomial) {
  const auto k = [](int e) { return reflect(xpow_mod_p(e), 32) << 1; };
  EXPECT_EQ(kCrc32Fold.k1, k(4 * 128 + 32));
  EXPECT_EQ(kCrc32Fold.k2, k(4 * 128 - 32));
  EXPECT_EQ(kCrc32Fold.k3, k(128 + 32));
  EXPECT_EQ(kCrc32Fold.k4, k(128 - 32));
  EXPECT_EQ(kCrc32Fold.k5, k(64));

  // floor(x^64 / P) by long division. The first step (x^64) subtracts
  // P * x^32, which cancels the x^64 term and leaves a 64-bit remainder.
  constexpr std::uint64_t kP = 0x104C11DB7;
  std::uint64_t rem = kP << 32;
  std::uint64_t quotient = std::uint64_t{1} << 32;
  for (int i = 63; i >= 32; --i) {
    if ((rem >> i) & 1u) {
      rem ^= kP << (i - 32);
      quotient |= std::uint64_t{1} << (i - 32);
    }
  }
  EXPECT_EQ(kCrc32Fold.mu, reflect(quotient, 33));
  EXPECT_EQ(kCrc32Fold.poly, reflect(kP, 33));
}

TEST(Format, SampleFrameMatchesGoldenBytes) {
  const std::string payload = hex_bytes(
      "02"                       // type: sample
      "0d 0c 0b 0a"              // drive 0x0a0b0c0d
      "08 07 06 05 04 03 02 01"  // hour 0x0102030405060708
      "01 00 c0 7f"              // NaN, payload bit 0
      "00 00 00 80"              // -0.0
      "00 00 80 7f"              // +inf
      "01 00 00 00"              // smallest denormal
      "00 00 80 3f"              // 1.0
      "00 00 20 c0"              // -2.5
      "00 00 00 40 01 00 00 40 02 00 00 40"
      "03 00 00 40 04 00 00 40 05 00 00 40");
  const std::string frame = hex_bytes(
      "3d 00 00 00"   // payload length 61
      "f9 c3 c1 2e"   // CRC-32 of the payload
  ) + payload;
  const smart::Sample s = golden_sample();
  EXPECT_EQ(encode_sample_record(0x0a0b0c0du, s), payload);
  EXPECT_EQ(frame_record(payload), frame);
  std::string out = "prefix";  // frames append after existing bytes
  append_sample_frame(out, 0x0a0b0c0du, s);
  EXPECT_EQ(out, "prefix" + frame);

  const auto rec = decode_record(payload);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->type, RecordType::kSample);
  EXPECT_EQ(rec->drive, 0x0a0b0c0du);
  EXPECT_EQ(rec->sample.hour, s.hour);
  for (std::size_t a = 0; a < s.attrs.size(); ++a) {
    EXPECT_EQ(bits_of(rec->sample.attrs[a]), bits_of(s.attrs[a])) << a;
  }
}

TEST(Format, DriveRecordMatchesGoldenBytes) {
  const std::string payload = hex_bytes(
      "01"           // type: drive
      "04 03 02 01"  // id 0x01020304
      "04 00"        // serial length
  ) + "SN-7";
  EXPECT_EQ(encode_drive_record(0x01020304u, "SN-7"), payload);
  const auto rec = decode_record(payload);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->type, RecordType::kDrive);
  EXPECT_EQ(rec->drive, 0x01020304u);
  EXPECT_EQ(rec->serial, "SN-7");
}

TEST(Format, EveryStrictPrefixOfARecordIsRejected) {
  const std::string records[] = {
      encode_sample_record(9, golden_sample()),
      encode_drive_record(3, "WD-XYZ-001"),
      encode_generation_record(5, "model text"),
  };
  for (const std::string& full : records) {
    ASSERT_TRUE(decode_record(full).has_value());
    for (std::size_t n = 0; n < full.size(); ++n) {
      EXPECT_FALSE(decode_record(full.substr(0, n)).has_value())
          << "type " << static_cast<int>(full[0]) << ", prefix " << n;
    }
  }
}

// --- Basic store behaviour -------------------------------------------------

TEST_F(StoreTest, AppendReopenRoundTrip) {
  {
    TelemetryStore store(dir());
    const auto a = store.register_drive("drive-A");
    const auto b = store.register_drive("drive-B");
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(store.register_drive("drive-A"), a);  // idempotent
    for (std::int64_t h = 0; h < 48; h += 2) {
      store.append(a, make_sample(h, 1.0f));
      store.append(b, make_sample(h, 2.0f));
    }
    store.flush();
    EXPECT_EQ(store.sample_count(), 48u);
    EXPECT_EQ(store.last_hour(), 46);
  }
  TelemetryStore store(dir());
  EXPECT_EQ(store.drive_count(), 2u);
  EXPECT_EQ(store.recovery().records_recovered, 50u);  // 2 reg + 48 samples
  EXPECT_EQ(store.recovery().records_dropped, 0u);
  EXPECT_FALSE(store.recovery().tail_truncated);
  EXPECT_EQ(store.find_drive("drive-B"), std::optional<std::uint32_t>(1u));
  EXPECT_FALSE(store.find_drive("drive-C").has_value());
  EXPECT_EQ(store.drive(0).serial, "drive-A");
  EXPECT_EQ(store.drive(0).n_samples, 24u);
  EXPECT_EQ(store.drive(0).first_hour, 0);
  EXPECT_EQ(store.drive(0).last_hour, 46);

  const auto window = store.read_drive(1, 10, 20);
  ASSERT_EQ(window.size(), 6u);  // hours 10..20 step 2
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].hour, 10 + 2 * static_cast<std::int64_t>(i));
    EXPECT_EQ(window[i].attrs[3], make_sample(window[i].hour, 2.0f).attrs[3]);
  }
}

TEST_F(StoreTest, RegisterDriveValidatesSerial) {
  TelemetryStore store(dir());
  EXPECT_THROW(store.register_drive(""), ConfigError);
  EXPECT_THROW(store.append(0, make_sample(0)), ConfigError);  // unknown id
}

TEST_F(StoreTest, RotationSpreadsSegmentsAndScanPreservesOrder) {
  StoreOptions opt;
  opt.segment_bytes = 512;  // force many rotations
  {
    TelemetryStore store(dir(), opt);
    const auto id = store.register_drive("D");
    for (std::int64_t h = 0; h < 100; ++h) store.append(id, make_sample(h));
    store.flush();
    EXPECT_GT(store.segment_count(), 3u);
  }
  TelemetryStore store(dir(), opt);
  EXPECT_EQ(store.sample_count(), 100u);
  std::vector<std::int64_t> hours;
  store.scan([&](std::uint32_t drive, const smart::Sample& s) {
    EXPECT_EQ(drive, 0u);
    hours.push_back(s.hour);
  });
  ASSERT_EQ(hours.size(), 100u);
  for (std::int64_t h = 0; h < 100; ++h) EXPECT_EQ(hours[h], h);
  // read_drive prunes by the per-drive segment index but returns the same.
  EXPECT_EQ(store.read_drive(0).size(), 100u);
  EXPECT_EQ(store.read_drive(0, 90).size(), 10u);
}

// --- Corruption recovery ---------------------------------------------------

TEST_F(StoreTest, TornTailIsTruncatedAndStoreStaysAppendable) {
  {
    TelemetryStore store(dir());
    const auto id = store.register_drive("D");
    for (std::int64_t h = 0; h < 10; ++h) store.append(id, make_sample(h));
    store.flush();
  }
  const auto segs = segment_files();
  ASSERT_EQ(segs.size(), 1u);
  const auto full = fs::file_size(segs[0]);
  // One sample frame is 8B header + 61B payload (type + drive + hour +
  // 12 attrs); cutting 7 bytes tears the final record mid-payload.
  const std::uintmax_t frame = kFrameHeaderBytes + 1 + 4 + 8 + 12 * 4;
  fs::resize_file(segs[0], full - 7);

  {
    TelemetryStore store(dir());
    EXPECT_TRUE(store.recovery().tail_truncated);
    EXPECT_EQ(store.recovery().torn_bytes_truncated, frame - 7);
    EXPECT_EQ(store.recovery().records_recovered, 10u);  // 1 reg + 9 samples
    EXPECT_EQ(store.recovery().records_dropped, 0u);
    EXPECT_EQ(store.drive(0).n_samples, 9u);
    EXPECT_EQ(store.drive(0).last_hour, 8);
    // The file shrank to the last complete record...
    EXPECT_EQ(fs::file_size(segment_files()[0]), full - frame);
    // ...and the store accepts the re-written sample plus new ones.
    store.append(0, make_sample(9));
    store.append(0, make_sample(10));
    store.flush();
  }
  TelemetryStore store(dir());
  EXPECT_EQ(store.drive(0).n_samples, 11u);
  EXPECT_EQ(store.drive(0).last_hour, 10);
  EXPECT_FALSE(store.recovery().tail_truncated);
  EXPECT_EQ(store.segment_count(), 1u);  // appends went to the same segment
}

// An Env whose Nth File::append tears (0 = never): a byte-count prefix
// reaches the real file, then a transient error is reported — the shape
// of a batched write dying partway with whole frames already on disk.
class TearingEnv final : public io::EnvWrapper {
 public:
  TearingEnv(io::Env& target, int fail_on_append, std::size_t landed_bytes)
      : EnvWrapper(target),
        fail_on_append_(fail_on_append),
        landed_bytes_(landed_bytes) {}

  io::IoStatus new_append_file(const std::string& path, bool truncate,
                               std::unique_ptr<io::File>& out) override {
    std::unique_ptr<io::File> real;
    if (auto s = EnvWrapper::new_append_file(path, truncate, real); !s.ok()) {
      return s;
    }
    out = std::make_unique<TearingFile>(std::move(real), this);
    return io::IoStatus::success();
  }

 private:
  class TearingFile final : public io::File {
   public:
    TearingFile(std::unique_ptr<io::File> real, TearingEnv* env)
        : real_(std::move(real)), env_(env) {}
    io::IoStatus append(std::string_view data) override {
      if (++env_->appends_ == env_->fail_on_append_) {
        const auto landed = std::min(env_->landed_bytes_, data.size());
        (void)real_->append(data.substr(0, landed));
        return io::IoStatus::transient_error("injected torn append");
      }
      return real_->append(data);
    }
    io::IoStatus sync() override { return real_->sync(); }
    io::IoStatus close() override { return real_->close(); }

   private:
    std::unique_ptr<io::File> real_;
    TearingEnv* env_;
  };

  int appends_ = 0;
  const int fail_on_append_;

 public:
  int appends() const { return appends_; }

 private:
  const std::size_t landed_bytes_;
};

TEST_F(StoreTest, TornBatchPrefixIsNotReplayedWhenTheBatchIsResent) {
  std::vector<smart::Sample> batch;
  for (std::int64_t h = 0; h < 6; ++h) batch.push_back(make_sample(h));
  // Dry run: the buffered batch reaches the file in one append at
  // flush_to_os, the first after the registration's write-through.
  int batch_append = 0;
  {
    const std::string dry = dir() + "-dry";
    TearingEnv env(io::Env::posix(), /*fail_on_append=*/0, 0);
    StoreOptions opt;
    opt.env = &env;
    {
      TelemetryStore store(dry, opt);
      const auto id = store.register_drive("D");
      batch_append = env.appends() + 1;
      store.append_batch(id, batch.data(), batch.size());
      store.flush_to_os();
      ASSERT_EQ(env.appends(), batch_append);
    }
    fs::remove_all(dry);
  }
  // The batch's write tears after exactly two complete frames have landed.
  TearingEnv env(io::Env::posix(), batch_append,
                 /*landed_bytes=*/2 * kSampleFrameBytes);
  StoreOptions opt;
  opt.env = &env;
  {
    TelemetryStore store(dir(), opt);
    const auto id = store.register_drive("D");
    store.append_batch(id, batch.data(), batch.size());
    EXPECT_EQ(store.drive(id).n_samples, 6u);  // indexed while buffered
    EXPECT_THROW(store.flush_to_os(), DataError);
    EXPECT_EQ(store.drive(id).n_samples, 0u);  // none of the batch indexed
    // The producer's contract after a journal failure: re-send the whole
    // batch. The two frames that landed before the tear must not turn
    // into duplicates, in this store or any recovered one.
    store.append_batch(id, batch.data(), batch.size());
    EXPECT_EQ(store.drive(id).n_samples, 6u);
    store.flush();
  }
  TelemetryStore reopened(dir());
  EXPECT_EQ(reopened.drive(0).n_samples, 6u);
  const auto got = reopened.read_drive(0);
  ASSERT_EQ(got.size(), 6u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].hour, static_cast<std::int64_t>(i));
  }
}

TEST_F(StoreTest, FailedRegistrationIsNeverRecoveredAsAnotherDrive) {
  // Dry run: a registration is written through, in one append with the
  // buffered header of the segment it opens.
  int reg_append = 0;
  {
    const std::string dry = dir() + "-dry";
    TearingEnv env(io::Env::posix(), /*fail_on_append=*/0, 0);
    StoreOptions opt;
    opt.env = &env;
    {
      TelemetryStore store(dry, opt);
      reg_append = env.appends() + 1;
      (void)store.register_drive("A");
      ASSERT_EQ(env.appends(), reg_append);
    }
    fs::remove_all(dry);
  }
  // Whole: header and frame land and the write still fails; partial: it
  // tears mid-frame.
  for (const bool whole : {true, false}) {
    SCOPED_TRACE(whole ? "whole frame landed" : "partial frame landed");
    fs::remove_all(dir_);
    TearingEnv env(io::Env::posix(), reg_append,
                   /*landed_bytes=*/whole ? 1024 : kSegmentHeaderBytes + 5);
    StoreOptions opt;
    opt.env = &env;
    {
      TelemetryStore store(dir(), opt);
      EXPECT_THROW(store.register_drive("A"), DataError);
      EXPECT_EQ(store.drive_count(), 0u);
      // The failed id is free again: B takes 0, in a fresh segment.
      ASSERT_EQ(store.register_drive("B"), 0u);
      store.append(0, make_sample(7));
      store.flush();
    }
    TelemetryStore reopened(dir());
    EXPECT_FALSE(reopened.recovery().tail_truncated);
    EXPECT_EQ(reopened.recovery().records_dropped, 0u);
    ASSERT_EQ(reopened.drive_count(), 1u);
    EXPECT_EQ(reopened.drive(0).serial, "B");
    EXPECT_FALSE(reopened.find_drive("A").has_value());
    const auto got = reopened.read_drive(0);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].hour, 7);
  }
}

TEST_F(StoreTest, FirstWriteAfterReopenRespectsSegmentBytes) {
  StoreOptions opt;
  opt.segment_bytes = 4096;
  const auto largest_segment = [this] {
    std::uintmax_t largest = 0;
    for (const auto& p : segment_files()) {
      largest = std::max(largest, fs::file_size(p));
    }
    return largest;
  };
  std::vector<smart::Sample> batch;
  for (std::int64_t h = 0; h < 58; ++h) batch.push_back(make_sample(h));
  {
    TelemetryStore store(dir(), opt);
    const auto id = store.register_drive("D");
    store.append_batch(id, batch.data(), batch.size());
  }
  ASSERT_EQ(segment_files().size(), 1u);  // 4046 bytes: no room for 2 KB more
  {
    TelemetryStore store(dir(), opt);
    store.append_generation(1, std::string(2000, 'm'));
  }
  EXPECT_EQ(segment_files().size(), 2u);
  EXPECT_LE(largest_segment(), opt.segment_bytes);
  {
    TelemetryStore store(dir(), opt);
    // Segment 2 holds the generation record (2049 bytes); a 2100-byte
    // serial no longer fits after it.
    (void)store.register_drive(std::string(2100, 's'));
  }
  EXPECT_EQ(segment_files().size(), 3u);
  EXPECT_LE(largest_segment(), opt.segment_bytes);

  // One frame larger than a segment still goes alone into a fresh one.
  {
    TelemetryStore store(dir(), opt);
    store.append_generation(2, std::string(5000, 'g'));
    store.append(0, make_sample(100));
  }
  const auto segs = segment_files();
  ASSERT_EQ(segs.size(), 5u);
  EXPECT_EQ(fs::file_size(segs[3]),
            kSegmentHeaderBytes + kFrameHeaderBytes + 1 + 8 + 4 + 5000);
  EXPECT_EQ(fs::file_size(segs[4]), kSegmentHeaderBytes + kSampleFrameBytes);
  TelemetryStore reopened(dir(), opt);
  EXPECT_EQ(reopened.drive_count(), 2u);
  EXPECT_EQ(reopened.drive(0).n_samples, 59u);
  ASSERT_TRUE(reopened.latest_generation().has_value());
  EXPECT_EQ(reopened.latest_generation()->generation, 2u);
}

TEST_F(StoreTest, FlippedPayloadBitSkipsRecordAndStopsTheSegment) {
  {
    TelemetryStore store(dir());
    const auto id = store.register_drive("D");
    for (std::int64_t h = 0; h < 10; ++h) store.append(id, make_sample(h));
    store.flush();
  }
  const auto segs = segment_files();
  ASSERT_EQ(segs.size(), 1u);
  auto bytes = read_bytes(segs[0]);
  // Flip one bit inside the payload of a mid-file record: CRC must catch it,
  // the record is dropped, and scanning of this segment stops there (we
  // cannot trust framing after a corrupt region).
  const std::size_t flip = bytes.size() / 2;
  bytes[flip] = static_cast<char>(bytes[flip] ^ 0x10);
  write_bytes(segs[0], bytes);

  TelemetryStore store(dir());
  EXPECT_EQ(store.recovery().records_dropped, 1u);
  EXPECT_FALSE(store.recovery().tail_truncated);
  EXPECT_GT(store.recovery().records_recovered, 0u);
  EXPECT_LT(store.drive(0).n_samples, 10u);  // prefix only
  // The file itself is preserved (only the tail-torn case truncates).
  EXPECT_EQ(read_bytes(segment_files()[0]).size(), bytes.size());
  // New appends go to a fresh segment, never after a corrupt region.
  store.append(0, make_sample(99));
  store.flush();
  EXPECT_EQ(store.segment_count(), 2u);
  // The salvage plus the new sample survive another reopen.
  const auto n_after = store.drive(0).n_samples;
  TelemetryStore reopened(dir());
  EXPECT_EQ(reopened.drive(0).n_samples, n_after);
  EXPECT_EQ(reopened.drive(0).last_hour, 99);
}

TEST_F(StoreTest, CorruptionInOneSegmentLeavesLaterSegmentsReadable) {
  StoreOptions opt;
  opt.segment_bytes = 512;
  {
    TelemetryStore store(dir(), opt);
    const auto id = store.register_drive("D");
    for (std::int64_t h = 0; h < 60; ++h) store.append(id, make_sample(h));
    store.flush();
    ASSERT_GT(store.segment_count(), 2u);
  }
  const auto segs = segment_files();
  // Corrupt a record in the middle of the SECOND segment.
  auto bytes = read_bytes(segs[1]);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  write_bytes(segs[1], bytes);

  TelemetryStore store(dir(), opt);
  EXPECT_EQ(store.recovery().records_dropped, 1u);
  // Samples from segment 1, the prefix of segment 2, and ALL later segments
  // are present: the failure is contained to one segment's suffix.
  EXPECT_LT(store.drive(0).n_samples, 60u);
  EXPECT_EQ(store.drive(0).last_hour, 59);
  std::vector<std::int64_t> hours;
  store.scan([&](std::uint32_t, const smart::Sample& s) {
    hours.push_back(s.hour);
  });
  EXPECT_FALSE(hours.empty());
  EXPECT_TRUE(std::is_sorted(hours.begin(), hours.end()));
}

TEST_F(StoreTest, EmptySegmentFileIsDeletedOnOpen) {
  {
    TelemetryStore store(dir());
    const auto id = store.register_drive("D");
    store.append(id, make_sample(0));
    store.flush();
  }
  // A crash after fopen but before the header write leaves a 0-byte file.
  write_bytes(dir_ / "seg-00000099.log", "");
  TelemetryStore store(dir());
  EXPECT_EQ(store.drive(0).n_samples, 1u);
  EXPECT_FALSE(fs::exists(dir_ / "seg-00000099.log"));
}

TEST_F(StoreTest, UnreadableHeaderSkipsSegmentButKeepsTheRest) {
  StoreOptions opt;
  opt.segment_bytes = 512;
  {
    TelemetryStore store(dir(), opt);
    const auto id = store.register_drive("D");
    for (std::int64_t h = 0; h < 60; ++h) store.append(id, make_sample(h));
    store.flush();
    ASSERT_GT(store.segment_count(), 2u);
  }
  const auto segs = segment_files();
  auto bytes = read_bytes(segs[1]);
  bytes[0] = 'X';  // destroy the magic
  write_bytes(segs[1], bytes);

  TelemetryStore store(dir(), opt);
  EXPECT_EQ(store.recovery().segments_skipped, 1u);
  EXPECT_GT(store.recovery().records_recovered, 0u);
  EXPECT_EQ(store.drive(0).last_hour, 59);  // later segments still loaded
}

TEST_F(StoreTest, LeftoverTmpFilesAreRemoved) {
  {
    TelemetryStore store(dir());
    const auto id = store.register_drive("D");
    store.append(id, make_sample(0));
    store.flush();
  }
  write_bytes(dir_ / "seg-00000042.log.tmp", "half-written compaction");
  TelemetryStore store(dir());
  EXPECT_FALSE(fs::exists(dir_ / "seg-00000042.log.tmp"));
  EXPECT_EQ(store.drive(0).n_samples, 1u);
}

// --- Retention -------------------------------------------------------------

TEST_F(StoreTest, CompactionDropsOldSamplesAndSurvivesReopen) {
  StoreOptions opt;
  opt.segment_bytes = 512;
  {
    TelemetryStore store(dir(), opt);
    const auto a = store.register_drive("A");
    const auto b = store.register_drive("B");
    for (std::int64_t h = 0; h < 50; ++h) {
      store.append(a, make_sample(h, 1.0f));
      store.append(b, make_sample(h, 2.0f));
    }
    store.flush();
    const auto before_segments = store.segment_count();
    ASSERT_GT(before_segments, 2u);

    const auto r = store.compact(30);
    EXPECT_EQ(r.kept, 40u);     // hours 30..49 for both drives
    EXPECT_EQ(r.dropped, 60u);  // hours 0..29 for both drives
    EXPECT_EQ(store.segment_count(), 1u);
    EXPECT_EQ(store.sample_count(), 40u);
    EXPECT_EQ(store.drive(0).first_hour, 30);
    EXPECT_EQ(store.drive(1).serial, "B");  // ids stable across compaction

    // The store stays appendable after compaction.
    store.append(a, make_sample(50, 1.0f));
    store.flush();
  }
  TelemetryStore store(dir(), opt);
  EXPECT_EQ(store.drive_count(), 2u);
  EXPECT_EQ(store.sample_count(), 41u);
  EXPECT_EQ(store.drive(0).first_hour, 30);
  EXPECT_EQ(store.drive(0).last_hour, 50);
  const auto readback = store.read_drive(1);
  ASSERT_EQ(readback.size(), 20u);
  EXPECT_EQ(readback.front().hour, 30);
  EXPECT_EQ(readback.front().attrs[5], make_sample(30, 2.0f).attrs[5]);
}

TEST_F(StoreTest, CompactedSegmentSupersedesLeftoverOldSegments) {
  StoreOptions opt;
  opt.segment_bytes = 512;
  {
    TelemetryStore store(dir(), opt);
    const auto id = store.register_drive("D");
    for (std::int64_t h = 0; h < 50; ++h) store.append(id, make_sample(h));
    store.flush();
    store.compact(20);
  }
  // Simulate a crash between compaction-rename and old-segment unlink: put a
  // stale low-sequence segment back. Its sequence is below the compacted
  // segment's, so recovery must ignore and remove it.
  {
    TelemetryStore scratch(dir_.string() + "_stale");
    const auto id = scratch.register_drive("STALE");
    scratch.append(id, make_sample(999));
    scratch.flush();
  }
  fs::copy_file(fs::path(dir_.string() + "_stale") / "seg-00000001.log",
                dir_ / "seg-00000001.log");
  fs::remove_all(dir_.string() + "_stale");

  TelemetryStore store(dir(), opt);
  EXPECT_EQ(store.drive_count(), 1u);
  EXPECT_EQ(store.drive(0).serial, "D");       // not STALE
  EXPECT_EQ(store.sample_count(), 30u);        // hours 20..49
  EXPECT_FALSE(fs::exists(dir_ / "seg-00000001.log"));  // stale file removed
}

TEST_F(StoreTest, SnapshotToProducesIndependentStore) {
  const auto snap_dir = dir_.string() + "_snap";
  fs::remove_all(snap_dir);
  {
    TelemetryStore store(dir());
    const auto a = store.register_drive("A");
    for (std::int64_t h = 0; h < 20; ++h) store.append(a, make_sample(h));
    store.flush();
    const auto r = store.snapshot_to(snap_dir, 10);
    EXPECT_EQ(r.kept, 10u);
    EXPECT_EQ(r.dropped, 10u);
    EXPECT_EQ(store.sample_count(), 20u);  // source untouched
    EXPECT_THROW(store.snapshot_to(snap_dir), ConfigError);  // non-empty dest
  }
  TelemetryStore snap(snap_dir);
  EXPECT_EQ(snap.drive_count(), 1u);
  EXPECT_EQ(snap.sample_count(), 10u);
  EXPECT_EQ(snap.drive(0).first_hour, 10);
  fs::remove_all(snap_dir);
}

// Compaction encodes its frames in place into one buffer; the segment it
// writes is byte for byte the header plus frame_record(encode_*_record())
// of every drive, the generation and each kept sample, in journal order.
// 3 drives x 600 hours of 61-byte frames cross the 64 KiB write chunk.
TEST_F(StoreTest, CompactedSegmentMatchesFramesBuiltOneByOne) {
  const auto snap_dir = dir_.string() + "_bytes";
  fs::remove_all(snap_dir);
  const std::vector<std::string> serials{"A", "WD-LONGER-SERIAL-01", "C"};
  std::string expected = encode_segment_header(1, kSegCompacted);
  for (std::uint32_t id = 0; id < serials.size(); ++id) {
    expected += frame_record(encode_drive_record(id, serials[id]));
  }
  expected += frame_record(encode_generation_record(3, "model text"));
  {
    TelemetryStore store(dir());
    for (const std::string& serial : serials) store.register_drive(serial);
    store.append_generation(3, "model text");
    for (std::int64_t h = 0; h < 600; ++h) {
      for (std::uint32_t id = 0; id < serials.size(); ++id) {
        const auto s = make_sample(h, static_cast<float>(id));
        store.append(id, s);
        if (h >= 100) expected += frame_record(encode_sample_record(id, s));
      }
    }
    store.flush();
    const auto r = store.snapshot_to(snap_dir, 100);
    EXPECT_EQ(r.kept, 1500u);
  }
  EXPECT_GT(expected.size(), std::size_t{1} << 16);
  EXPECT_EQ(read_bytes(fs::path(snap_dir) / "seg-00000001.log"), expected);
  fs::remove_all(snap_dir);
}

// --- One read path: read_window agrees with read_drive --------------------

bool same_samples(const std::vector<smart::Sample>& a,
                  const std::vector<smart::Sample>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const smart::Sample& x, const smart::Sample& y) {
                      return x.hour == y.hour &&
                             std::memcmp(x.attrs.data(), y.attrs.data(),
                                         sizeof x.attrs) == 0;
                    });
}

// read_window(f, t)[id].samples == read_drive(id, f, t) for every drive,
// over an unbounded, a partial, an inverted (empty) and an out-of-range
// (empty) window. Returns the samples of the unbounded window.
std::size_t expect_window_agrees(const TelemetryStore& store,
                                 const char* what) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  const std::array<std::pair<std::int64_t, std::int64_t>, 4> windows{
      {{kMin, kMax}, {10, 24}, {24, 10}, {1000, 2000}}};
  std::size_t unbounded = 0;
  for (const auto& [from, to] : windows) {
    const auto window = store.read_window(from, to);
    EXPECT_EQ(window.size(), store.drive_count()) << what;
    for (std::uint32_t id = 0; id < window.size(); ++id) {
      EXPECT_EQ(window[id].serial, store.drive(id).serial) << what;
      EXPECT_TRUE(same_samples(window[id].samples,
                               store.read_drive(id, from, to)))
          << what << ": drive " << id << " window [" << from << ", " << to
          << "]";
      if (from == kMin) unbounded += window[id].samples.size();
    }
  }
  EXPECT_EQ(unbounded, store.sample_count()) << what;
  return unbounded;
}

TEST_F(StoreTest, ReadWindowMatchesReadDriveOnEveryRecoveredShape) {
  StoreOptions opt;
  opt.segment_bytes = 512;  // a few hours per segment
  // Hour-major, as a fleet journals it: every hour touches every drive,
  // so every segment holds every sampled drive. "idle" never samples.
  {
    TelemetryStore store(dir(), opt);
    for (const char* serial : {"A", "B", "idle", "C"}) {
      store.register_drive(serial);
    }
    for (std::int64_t h = 0; h < 40; ++h) {
      for (const std::uint32_t id : {0u, 1u, 3u}) {
        store.append(id, make_sample(h, static_cast<float>(id)));
      }
    }
    EXPECT_GT(store.segment_count(), 5u);
    EXPECT_EQ(expect_window_agrees(store, "live multi-segment"), 120u);
    EXPECT_TRUE(store.read_window()[2].samples.empty());
    store.flush();
  }
  {
    TelemetryStore store(dir(), opt);
    EXPECT_EQ(expect_window_agrees(store, "reopened multi-segment"), 120u);
  }

  // A CRC-stopped segment: its suffix is dropped, later segments load.
  auto segs = segment_files();
  ASSERT_GT(segs.size(), 3u);
  auto bytes = read_bytes(segs[2]);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  write_bytes(segs[2], bytes);
  // A torn tail on the last segment.
  fs::resize_file(segs.back(), fs::file_size(segs.back()) - 7);
  {
    TelemetryStore store(dir(), opt);
    EXPECT_EQ(store.recovery().records_dropped, 1u);
    EXPECT_TRUE(store.recovery().tail_truncated);
    const auto n = expect_window_agrees(store, "CRC-stopped, torn tail");
    EXPECT_LT(n, 119u);
    EXPECT_GT(n, 0u);
  }

  // Compacted: one fresh segment holding hours 20 and up.
  {
    TelemetryStore store(dir(), opt);
    store.compact(20);
    EXPECT_EQ(store.segment_count(), 1u);
    expect_window_agrees(store, "compacted");
    EXPECT_TRUE(store.read_window(0, 19)[0].samples.empty());
  }
}

TEST_F(StoreTest, SamplesRecoveryDroppedStayOutOfEveryRead) {
  {
    TelemetryStore store(dir());
    const auto id = store.register_drive("A");
    for (std::int64_t h = 0; h < 5; ++h) store.append(id, make_sample(h));
    store.flush();
  }
  // A CRC-valid sample for drive 7, which was never registered: recovery
  // drops it, so no read may hand it out (a drive id past drive_count()
  // would index out of every per-drive table a reader keeps).
  const auto segs = segment_files();
  ASSERT_EQ(segs.size(), 1u);
  write_bytes(segs[0], read_bytes(segs[0]) +
                           frame_record(encode_sample_record(
                               7, make_sample(5))));
  TelemetryStore store(dir());
  EXPECT_EQ(store.recovery().records_dropped, 1u);
  std::size_t scanned = 0;
  store.scan([&](std::uint32_t drive, const smart::Sample&) {
    EXPECT_LT(drive, store.drive_count());
    ++scanned;
  });
  EXPECT_EQ(scanned, 5u);
  EXPECT_EQ(expect_window_agrees(store, "dropped record"), 5u);
}

TEST_F(StoreTest, ASampleAheadOfItsRegistrationIsReadNowhere) {
  // Segment 1 holds a sample for drive 0 before drive 0's registration,
  // which recovery drops; segment 2 holds one more sample, which it keeps.
  fs::create_directories(dir_);
  write_bytes(dir_ / "seg-00000001.log",
              encode_segment_header(1, 0) +
                  frame_record(encode_sample_record(0, make_sample(0))) +
                  frame_record(encode_drive_record(0, "A")));
  write_bytes(dir_ / "seg-00000002.log",
              encode_segment_header(2, 0) +
                  frame_record(encode_sample_record(0, make_sample(1))));
  TelemetryStore store(dir());
  EXPECT_EQ(store.recovery().records_dropped, 1u);
  EXPECT_EQ(store.drive(0).n_samples, 1u);
  EXPECT_EQ(expect_window_agrees(store, "sample ahead of registration"), 1u);
  std::vector<std::int64_t> hours;
  store.scan([&](std::uint32_t, const smart::Sample& s) {
    hours.push_back(s.hour);
  });
  EXPECT_EQ(hours, std::vector<std::int64_t>{1});
}

// After any DataError the store throws under an injected fault (short
// writes, ENOSPC, transient write errors, a failed fsync), the live store
// and a clean reopen of its directory agree drive for drive. Small
// segments put rotations among the failing writes; registrations, batch
// appends, flush_to_os and flush all meet the faults.
TEST_F(StoreTest, LiveStoreMatchesReopenAfterEveryInjectedFault) {
  const auto expect_live_matches_reopen = [this](const TelemetryStore& live) {
    const TelemetryStore reopened(dir());
    ASSERT_EQ(reopened.drive_count(), live.drive_count());
    for (std::uint32_t d = 0; d < live.drive_count(); ++d) {
      EXPECT_EQ(live.drive(d).serial, reopened.drive(d).serial);
      EXPECT_EQ(live.drive(d).n_samples, reopened.drive(d).n_samples);
      EXPECT_EQ(live.drive(d).last_hour, reopened.drive(d).last_hour);
      const auto got = live.read_drive(d);
      const auto want = reopened.read_drive(d);
      ASSERT_EQ(got.size(), want.size()) << "drive " << d;
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].hour, want[k].hour);
        EXPECT_EQ(got[k].attrs, want[k].attrs);
      }
    }
  };
  for (const char* kind : {"short", "enospc", "eio", "fsync"}) {
    std::size_t failures = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(std::string(kind) + " seed " + std::to_string(seed));
      fs::remove_all(dir_);
      io::FaultPlan plan;
      plan.seed = seed;
      if (std::string_view(kind) == "short") plan.short_write_prob = 0.3;
      if (std::string_view(kind) == "enospc") {
        plan.enospc_after_bytes = 400 * seed;
      }
      if (std::string_view(kind) == "eio") plan.write_error_prob = 0.3;
      if (std::string_view(kind) == "fsync") {
        plan.fail_fsync_n = seed;
        plan.fsync_error = io::ErrorClass::kPermanent;
      }
      io::FaultEnv env(io::Env::posix(), plan);
      StoreOptions opt;
      opt.env = &env;
      opt.segment_bytes = 1024;
      opt.retry.sleep = false;
      TelemetryStore store(dir(), opt);
      for (std::int64_t step = 0; step < 24; ++step) {
        try {
          for (const char* serial : {"A", "B", "C"}) {
            (void)store.register_drive(serial);
          }
          for (std::uint32_t d = 0; d < store.drive_count(); ++d) {
            const std::array<smart::Sample, 3> run = {
                make_sample(3 * step, 1.0f * d),
                make_sample(3 * step + 1, 1.0f * d),
                make_sample(3 * step + 2, 1.0f * d)};
            store.append_batch(d, run.data(), run.size());
          }
          if (step % 3 == 2) store.flush_to_os();
          if (step % 5 == 4) store.flush();
        } catch (const DataError&) {
          ++failures;
          expect_live_matches_reopen(store);
        }
      }
      try {
        store.flush_to_os();  // a reopen sees only what reached the OS
      } catch (const DataError&) {
        ++failures;
      }
      expect_live_matches_reopen(store);
    }
    EXPECT_GT(failures, 0u) << kind;
  }
}

}  // namespace
}  // namespace hdd::store
