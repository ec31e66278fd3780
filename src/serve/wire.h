// Wire codec for the hddpredict serve daemon.
//
// The TCP protocol reuses the telemetry store's framing idiom
// (store/format.h): every message is one CRC-framed record,
//
//   frame    = length u32 | crc u32 | payload     -- CRC-32 of the payload
//   request  = op u8 | body [| trace_id u64]
//     op 1 (ingest):   count u32, then per sample:
//                      serial_len u16 | serial | hour i64 | 12 x f32 attrs
//     op 2 (query):    serial_len u16 | serial
//     op 3 (stats):    (empty)
//     op 4 (shutdown): (empty)
//
// The trailing trace_id is optional: a tracing client appends its current
// span's trace id (never 0) after the body so the daemon's spans join the
// caller's trace; an old client simply omits it and decodes exactly as
// before — the decoder treats "exactly 8 bytes past the body" as a trace
// id and any other surplus as the protocol error it always was. Old
// servers reject the field (trailing bytes), so clients only attach it
// when tracing is actually recording.
//   response = status u8 | body
//     status 0 (ok):          body is op-specific (below)
//     status 1 (bad request) |
//     status 2 (error):       message_len u16 | message
//
//   ingest ok body: accepted u64 | stale u64 | quarantined u64 |
//                   journal_failed u64 | degraded u8
//   query  ok body: known u8 [| alarmed u8 | alarm_hour i64 |
//                   samples_seen i64 | last_hour i64]
//   stats  ok body: drives u64 | samples u64 | alarms u64 | degraded u8 |
//                   generation u64 | shadow_samples u64 |
//                   shadow_divergence u64 | last_outcome u8
//   shutdown ok body: (empty)
//
// All integers little-endian, floats IEEE-754 bit patterns — identical
// conventions to the on-disk format, so one codec (store/format.h:
// store_le/load_le, Reader, and the 56-byte hour + attrs sample body an
// ingest entry shares with a journal record) encodes and decodes both. A frame that fails its CRC, declares a payload over
// kMaxWirePayloadBytes, or holds a body its op cannot parse is a protocol
// error: the server answers kBadRequest (when it can) and closes the
// connection; it never crashes on hostile bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "smart/drive.h"

namespace hdd::serve {

// TCP frames carry whole ingest batches; 4 MiB bounds per-connection
// buffering (~60k samples a frame) without capping useful batch sizes.
inline constexpr std::uint32_t kMaxWirePayloadBytes = 4u << 20;

enum class Op : std::uint8_t {
  kIngest = 1,
  kQuery = 2,
  kStats = 3,
  kShutdown = 4,
};

enum class Status : std::uint8_t { kOk = 0, kBadRequest = 1, kError = 2 };

// --- Requests ---------------------------------------------------------------

// One ingest batch: samples[i] belongs to the drive named serials[i].
// Encoders keep (serial, sample) pairs adjacent so the shard engine can
// ingest consecutive same-drive runs as single batches.
struct IngestBatch {
  std::vector<std::string> serials;
  std::vector<smart::Sample> samples;
};

struct Request {
  Op op = Op::kStats;
  IngestBatch ingest;  // kIngest
  std::string serial;  // kQuery
  std::uint64_t trace_id = 0;  // 0 = request arrived untraced
};

// Payload encoders (unframed — wrap with frame_payload to put on the wire).
// A nonzero trace_id appends the optional trailing field.
std::string encode_ingest_request(const IngestBatch& batch,
                                  std::uint64_t trace_id = 0);
std::string encode_query_request(std::string_view serial,
                                 std::uint64_t trace_id = 0);
std::string encode_stats_request(std::uint64_t trace_id = 0);
std::string encode_shutdown_request(std::uint64_t trace_id = 0);

// nullopt on an unknown op or a body that does not match its op's layout.
std::optional<Request> decode_request(std::string_view payload);

// --- Responses --------------------------------------------------------------

struct IngestResponse {
  std::uint64_t accepted = 0;
  std::uint64_t stale = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t journal_failed = 0;
  bool degraded = false;
};

struct QueryResponse {
  bool known = false;
  bool alarmed = false;
  std::int64_t alarm_hour = -1;
  std::int64_t samples_seen = 0;
  std::int64_t last_hour = -1;
};

struct StatsResponse {
  std::uint64_t drives = 0;
  std::uint64_t samples = 0;
  std::uint64_t alarms = 0;
  bool degraded = false;
  // Update-pipeline status: the live model generation (max across shards;
  // 0 = the seed model), shadow-scoring progress, and the last retrain
  // cycle's pipeline::Outcome code (0 = no cycle has run).
  std::uint64_t generation = 0;
  std::uint64_t shadow_samples = 0;
  std::uint64_t shadow_divergence = 0;
  std::uint8_t last_outcome = 0;
};

std::string encode_ingest_response(const IngestResponse& r);
std::string encode_query_response(const QueryResponse& r);
std::string encode_stats_response(const StatsResponse& r);
std::string encode_shutdown_response();
std::string encode_error_response(Status status, std::string_view message);

// The decoded status byte plus whichever body matches it; `error` holds
// the message for kBadRequest/kError.
std::optional<Status> decode_status(std::string_view payload);
std::optional<IngestResponse> decode_ingest_response(std::string_view payload);
std::optional<QueryResponse> decode_query_response(std::string_view payload);
std::optional<StatsResponse> decode_stats_response(std::string_view payload);
std::optional<std::string> decode_error_message(std::string_view payload);

// --- Framing ----------------------------------------------------------------

// Wraps a payload in the length+CRC frame (store::frame_record).
std::string frame_payload(std::string_view payload);

// Incremental frame extractor over a TCP byte stream. feed() bytes as they
// arrive; next() yields complete, CRC-verified payloads. kCorrupt is
// sticky — framing can't be trusted past a bad frame, so the connection
// must be dropped.
//
// Length prefixes are validated at feed() time, as soon as the 8 header
// bytes of each frame are buffered: a hostile "4 GiB follows" prefix trips
// kCorrupt immediately and releases the buffer, so a peer can never make
// the parser hold more than one valid frame's worth of unparsed bytes. A
// corrupt parser also stops buffering further input.
class FrameParser {
 public:
  enum class Result { kNeedMore, kFrame, kCorrupt };

  void feed(std::string_view bytes);
  Result next(std::string& payload);

  // Bytes currently buffered. With a caller that drains next() after each
  // feed (the server does), this is bounded by kMaxWirePayloadBytes +
  // header + one read() chunk.
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;   // start of the next undrained frame
  std::size_t scan_ = 0;  // start of the next length-unvalidated header
  bool corrupt_ = false;
};

}  // namespace hdd::serve
