#include "serve/wire.h"

#include <cstring>

#include "store/format.h"

namespace hdd::serve {

using store::load_le;
using store::put_u8;
using store::put_u16;
using store::put_u64;
using store::Reader;
using store::store_le;

namespace {

// Smallest possible per-sample ingest entry (empty serial), used to bound
// attacker-controlled counts before any reserve().
constexpr std::size_t kMinIngestEntryBytes = 2 + store::kSampleBodyBytes;

// len u16 | bytes: how serials and error messages travel.
void put_str16(std::string& out, std::string_view s) {
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  out.append(s);
}

bool read_str16(Reader& r, std::string_view& out) {
  std::uint16_t len = 0;
  return r.u16(len) && r.view(len, out);
}

// Consumes the optional trailing trace id: exactly 8 bytes past the body
// is the field, zero bytes is an untraced (old-client) request, anything
// else is the trailing-garbage protocol error it always was.
bool read_trace_id(Reader& r, std::string_view payload,
                   std::uint64_t& trace_id) {
  if (r.pos == payload.size()) return true;
  if (payload.size() - r.pos != 8) return false;
  return r.u64(trace_id);
}

}  // namespace

std::string encode_ingest_request(const IngestBatch& batch,
                                  std::uint64_t trace_id) {
  std::size_t bytes = 1 + 4 + (trace_id != 0 ? 8 : 0);
  for (std::size_t i = 0; i < batch.samples.size(); ++i) {
    bytes += 2 + batch.serials[i].size() + store::kSampleBodyBytes;
  }
  std::string out(bytes, '\0');
  char* p = out.data();
  *p++ = static_cast<char>(Op::kIngest);
  store_le(p, static_cast<std::uint32_t>(batch.samples.size()));
  p += 4;
  for (std::size_t i = 0; i < batch.samples.size(); ++i) {
    const std::string& serial = batch.serials[i];
    store_le(p, static_cast<std::uint16_t>(serial.size()));
    std::memcpy(p + 2, serial.data(), serial.size());
    p += 2 + serial.size();
    store::store_sample_body(p, batch.samples[i]);
    p += store::kSampleBodyBytes;
  }
  if (trace_id != 0) store_le(p, trace_id);
  return out;
}

std::string encode_query_request(std::string_view serial,
                                 std::uint64_t trace_id) {
  std::string out;
  out.reserve(1 + 2 + serial.size() + (trace_id != 0 ? 8 : 0));
  put_u8(out, static_cast<std::uint8_t>(Op::kQuery));
  put_str16(out, serial);
  if (trace_id != 0) put_u64(out, trace_id);
  return out;
}

std::string encode_stats_request(std::uint64_t trace_id) {
  std::string out(1, static_cast<char>(Op::kStats));
  if (trace_id != 0) put_u64(out, trace_id);
  return out;
}

std::string encode_shutdown_request(std::uint64_t trace_id) {
  std::string out(1, static_cast<char>(Op::kShutdown));
  if (trace_id != 0) put_u64(out, trace_id);
  return out;
}

std::optional<Request> decode_request(std::string_view payload) {
  Reader r{payload};
  std::uint8_t op = 0;
  if (!r.u8(op)) return std::nullopt;
  Request req;
  switch (static_cast<Op>(op)) {
    case Op::kIngest: {
      req.op = Op::kIngest;
      std::uint32_t count = 0;
      if (!r.u32(count)) return std::nullopt;
      if (count > (payload.size() - r.pos) / kMinIngestEntryBytes + 1) {
        return std::nullopt;  // count can't fit the bytes we were given
      }
      std::vector<IngestRun>& runs = req.ingest.runs;
      req.ingest.samples.reserve(count);
      std::string_view prev;
      for (std::uint32_t i = 0; i < count; ++i) {
        std::string_view serial;
        smart::Sample s;
        if (!read_str16(r, serial) || serial.empty() || !r.sample(s)) {
          return std::nullopt;
        }
        if (serial != prev) {
          runs.push_back({std::string(serial), i, 0});
          prev = serial;
        }
        ++runs.back().count;
        req.ingest.samples.push_back(s);
      }
      if (!read_trace_id(r, payload, req.trace_id)) return std::nullopt;
      return req;
    }
    case Op::kQuery: {
      req.op = Op::kQuery;
      std::string_view serial;
      if (!read_str16(r, serial) || serial.empty() ||
          !read_trace_id(r, payload, req.trace_id)) {
        return std::nullopt;
      }
      req.serial.assign(serial);
      return req;
    }
    case Op::kStats:
      req.op = Op::kStats;
      if (!read_trace_id(r, payload, req.trace_id)) return std::nullopt;
      return req;
    case Op::kShutdown:
      req.op = Op::kShutdown;
      if (!read_trace_id(r, payload, req.trace_id)) return std::nullopt;
      return req;
  }
  return std::nullopt;
}

std::string encode_ingest_response(const IngestResponse& r) {
  std::string out;
  out.reserve(1 + 4 * 8 + 1);
  put_u8(out, static_cast<std::uint8_t>(Status::kOk));
  put_u64(out, r.accepted);
  put_u64(out, r.stale);
  put_u64(out, r.quarantined);
  put_u64(out, r.journal_failed);
  put_u8(out, r.degraded ? 1 : 0);
  return out;
}

std::string encode_query_response(const QueryResponse& r) {
  std::string out;
  put_u8(out, static_cast<std::uint8_t>(Status::kOk));
  put_u8(out, r.known ? 1 : 0);
  if (r.known) {
    put_u8(out, r.alarmed ? 1 : 0);
    put_u64(out, static_cast<std::uint64_t>(r.alarm_hour));
    put_u64(out, static_cast<std::uint64_t>(r.samples_seen));
    put_u64(out, static_cast<std::uint64_t>(r.last_hour));
  }
  return out;
}

std::string encode_stats_response(const StatsResponse& r) {
  std::string out;
  out.reserve(1 + 6 * 8 + 2);
  put_u8(out, static_cast<std::uint8_t>(Status::kOk));
  put_u64(out, r.drives);
  put_u64(out, r.samples);
  put_u64(out, r.alarms);
  put_u8(out, r.degraded ? 1 : 0);
  put_u64(out, r.generation);
  put_u64(out, r.shadow_samples);
  put_u64(out, r.shadow_divergence);
  put_u8(out, r.last_outcome);
  return out;
}

std::string encode_shutdown_response() {
  return std::string(1, static_cast<char>(Status::kOk));
}

std::string encode_error_response(Status status, std::string_view message) {
  std::string out;
  if (message.size() > 0xFFFF) message = message.substr(0, 0xFFFF);
  out.reserve(1 + 2 + message.size());
  put_u8(out, static_cast<std::uint8_t>(status));
  put_str16(out, message);
  return out;
}

std::optional<Status> decode_status(std::string_view payload) {
  if (payload.empty()) return std::nullopt;
  const auto s = static_cast<std::uint8_t>(payload[0]);
  if (s > static_cast<std::uint8_t>(Status::kError)) return std::nullopt;
  return static_cast<Status>(s);
}

std::optional<IngestResponse> decode_ingest_response(
    std::string_view payload) {
  Reader r{payload};
  std::uint8_t status = 0, degraded = 0;
  IngestResponse res;
  if (!r.u8(status) || status != static_cast<std::uint8_t>(Status::kOk) ||
      !r.u64(res.accepted) || !r.u64(res.stale) || !r.u64(res.quarantined) ||
      !r.u64(res.journal_failed) || !r.u8(degraded)) {
    return std::nullopt;
  }
  res.degraded = degraded != 0;
  return res;
}

std::optional<QueryResponse> decode_query_response(std::string_view payload) {
  Reader r{payload};
  std::uint8_t status = 0, known = 0;
  QueryResponse res;
  if (!r.u8(status) || status != static_cast<std::uint8_t>(Status::kOk) ||
      !r.u8(known)) {
    return std::nullopt;
  }
  res.known = known != 0;
  if (!res.known) return res;
  std::uint8_t alarmed = 0;
  std::uint64_t alarm_hour = 0, seen = 0, last_hour = 0;
  if (!r.u8(alarmed) || !r.u64(alarm_hour) || !r.u64(seen) ||
      !r.u64(last_hour)) {
    return std::nullopt;
  }
  res.alarmed = alarmed != 0;
  res.alarm_hour = static_cast<std::int64_t>(alarm_hour);
  res.samples_seen = static_cast<std::int64_t>(seen);
  res.last_hour = static_cast<std::int64_t>(last_hour);
  return res;
}

std::optional<StatsResponse> decode_stats_response(std::string_view payload) {
  Reader r{payload};
  std::uint8_t status = 0, degraded = 0;
  StatsResponse res;
  if (!r.u8(status) || status != static_cast<std::uint8_t>(Status::kOk) ||
      !r.u64(res.drives) || !r.u64(res.samples) || !r.u64(res.alarms) ||
      !r.u8(degraded) || !r.u64(res.generation) ||
      !r.u64(res.shadow_samples) || !r.u64(res.shadow_divergence) ||
      !r.u8(res.last_outcome)) {
    return std::nullopt;
  }
  res.degraded = degraded != 0;
  return res;
}

std::optional<std::string> decode_error_message(std::string_view payload) {
  Reader r{payload};
  std::uint8_t status = 0;
  std::string_view message;
  if (!r.u8(status) || status == static_cast<std::uint8_t>(Status::kOk) ||
      !read_str16(r, message)) {
    return std::nullopt;
  }
  return std::string(message);
}

std::string frame_payload(std::string_view payload) {
  return store::frame_record(payload);
}

void FrameParser::feed(std::string_view bytes) {
  if (corrupt_) return;  // framing is untrusted; hold nothing more
  // Compact before growing: pos_ only moves forward within one buffer
  // generation, so this bounds memory at one frame plus one read() worth.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= (64u << 10))) {
    buf_.erase(0, pos_);
    scan_ -= pos_;
    pos_ = 0;
  }
  buf_.append(bytes);
  // Validate every newly complete length prefix *now*, before the bytes it
  // announces are allowed to accumulate: frame boundaries chain through the
  // declared lengths, so headers can be walked without touching payloads.
  for (;;) {
    const auto f = store::parse_frame(buf_, scan_, kMaxWirePayloadBytes);
    if (f.status == store::ParsedFrame::kShort) return;
    if (f.status == store::ParsedFrame::kBadLength) return poison();
    scan_ += store::kFrameHeaderBytes + f.payload.size();
  }
}

FrameParser::Result FrameParser::next(std::string& payload) {
  if (corrupt_) return Result::kCorrupt;
  const auto f = store::parse_frame(buf_, pos_, kMaxWirePayloadBytes);
  if (f.status == store::ParsedFrame::kShort) return Result::kNeedMore;
  if (f.status == store::ParsedFrame::kBadLength ||
      store::crc32(f.payload.data(), f.payload.size()) != f.crc) {
    poison();
    return Result::kCorrupt;
  }
  payload.assign(f.payload);
  pos_ += store::kFrameHeaderBytes + f.payload.size();
  return Result::kFrame;
}

void FrameParser::poison() {
  corrupt_ = true;
  std::string().swap(buf_);  // release, don't just clear
  pos_ = scan_ = 0;
}

}  // namespace hdd::serve
