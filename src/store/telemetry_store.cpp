#include "store/telemetry_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/format.h"

namespace fs = std::filesystem;

namespace hdd::store {

namespace {

constexpr const char* kSegmentPrefix = "seg-";
constexpr const char* kSegmentSuffix = ".log";

// seg-<digits>.log -> sequence number; nullopt for foreign files.
std::optional<std::uint64_t> parse_segment_name(const std::string& name) {
  const std::string prefix = kSegmentPrefix;
  const std::string suffix = kSegmentSuffix;
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.rfind(prefix, 0) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  return std::stoull(digits);
}

}  // namespace

TelemetryStore::TelemetryStore(std::string dir, StoreOptions options)
    : dir_(std::move(dir)),
      options_(options),
      env_(options_.env != nullptr ? options_.env : &io::Env::posix()),
      retryer_(options_.retry, options_.metrics) {
  HDD_REQUIRE(options_.segment_bytes >= kSegmentHeaderBytes + 64,
              "segment_bytes too small to hold any record");
  obs::Registry& reg = options_.metrics != nullptr ? *options_.metrics
                                                   : obs::Registry::global();
  m_appends_ = &reg.counter("hdd_store_appends_total",
                            "Records appended (samples + registrations).");
  m_bytes_ = &reg.counter("hdd_store_bytes_written_total",
                          "Framed bytes written to segment files.");
  m_fsyncs_ = &reg.counter("hdd_store_fsyncs_total",
                           "fsync calls issued on segment files.");
  m_rotations_ = &reg.counter("hdd_store_rotations_total",
                              "Segment rotations at the size threshold.");
  m_sealed_ = &reg.counter("hdd_store_sealed_segments_total",
                           "Segments sealed against further appends.");
  const char* rec_name = "hdd_store_recovery_outcomes_total";
  const char* rec_help = "Recovery scan events by taxonomy outcome.";
  m_rec_torn_tail_ =
      &reg.counter(rec_name, rec_help, {{"outcome", "torn_tail"}});
  m_rec_crc_drop_ = &reg.counter(rec_name, rec_help, {{"outcome", "crc_drop"}});
  m_rec_record_dropped_ =
      &reg.counter(rec_name, rec_help, {{"outcome", "record_dropped"}});
  m_rec_header_skip_ =
      &reg.counter(rec_name, rec_help, {{"outcome", "header_skip"}});
  m_rec_empty_deleted_ =
      &reg.counter(rec_name, rec_help, {{"outcome", "empty_deleted"}});
  m_rec_tmp_deleted_ =
      &reg.counter(rec_name, rec_help, {{"outcome", "tmp_deleted"}});
  recover();
}

TelemetryStore::~TelemetryStore() {
  try {
    close_writer(/*strict=*/false);
  } catch (...) {
    // A simulated crash (CrashPoint) during teardown: nothing to do, the
    // harness owns the aftermath.
  }
}

void TelemetryStore::close_writer(bool strict) {
  if (out_ == nullptr) return;
  const auto s = out_->close();
  out_.reset();
  if (!s.ok()) {
    if (strict) throw DataError("telemetry store: close failed: " + s.message);
    log_message(LogLevel::kWarn,
                "telemetry store: close failed (ignored): " + s.message);
  }
}

std::string TelemetryStore::segment_path(std::uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof name, "%s%08llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(seq), kSegmentSuffix);
  return (fs::path(dir_) / name).string();
}

void TelemetryStore::recover() {
  const obs::ScopedSpan span("store.recover");
  close_writer(/*strict=*/false);
  segments_.clear();
  drives_.clear();
  drive_segments_.clear();
  by_serial_.clear();
  generation_.reset();
  recovery_ = {};
  next_seq_ = 1;

  if (auto s = env_->create_dirs(dir_); !s.ok()) {
    throw DataError("telemetry store: cannot create " + dir_ + ": " +
                    s.message);
  }

  struct Candidate {
    std::uint64_t seq;
    std::string path;
    std::optional<SegmentHeader> header;
  };
  std::vector<Candidate> candidates;
  std::vector<std::string> names;
  if (auto s = env_->list_dir(dir_, names); !s.ok()) {
    throw DataError("telemetry store: cannot list " + dir_ + ": " + s.message);
  }
  for (const std::string& name : names) {
    const std::string path = (fs::path(dir_) / name).string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      (void)env_->remove_file(path);  // interrupted compaction output
      m_rec_tmp_deleted_->inc();
      continue;
    }
    const auto seq = parse_segment_name(name);
    if (!seq) continue;
    std::uint64_t size = 0;
    if (env_->file_size(path, size).ok() && size == 0) {
      (void)env_->remove_file(path);  // crash before the header: nothing durable
      m_rec_empty_deleted_->inc();
      continue;
    }
    next_seq_ = std::max(next_seq_, *seq + 1);
    Candidate c{*seq, path, std::nullopt};
    std::string head;
    if (env_->read_prefix(path, kSegmentHeaderBytes, head).ok() &&
        head.size() == kSegmentHeaderBytes) {
      c.header = decode_segment_header({head.data(), head.size()});
      // The filename is authoritative for ordering; a header naming a
      // different sequence is corruption.
      if (c.header && c.header->sequence != *seq) c.header = std::nullopt;
    }
    candidates.push_back(std::move(c));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.seq < b.seq;
            });

  // A compacted segment supersedes everything before it (crash-safe
  // replacement: the old generation may still be on disk).
  std::uint64_t start_seq = 0;
  for (const Candidate& c : candidates) {
    if (c.header && (c.header->flags & kSegCompacted) != 0) {
      start_seq = c.seq;
    }
  }
  for (const Candidate& c : candidates) {
    if (c.seq < start_seq) {
      // Superseded by the compacted segment; a failed unlink is retried
      // by the next recovery pass.
      (void)env_->remove_file(c.path);
      continue;
    }
    Segment seg;
    seg.seq = c.seq;
    seg.path = c.path;
    ++recovery_.segments_scanned;
    if (!c.header || !scan_segment(seg)) {
      ++recovery_.segments_skipped;
      m_rec_header_skip_->inc();
      continue;  // unreadable header: excluded (file left in place)
    }
    segments_.push_back(std::move(seg));
  }
  // After a skipped segment the safe append point is a brand-new segment
  // numbered above everything on disk, so replay order stays append order.
  if (recovery_.segments_skipped > 0 && !segments_.empty()) {
    segments_.back().clean = false;
    m_sealed_->inc();
  }
}

bool TelemetryStore::scan_segment(Segment& seg) {
  std::string buf;
  if (auto s = env_->read_file(seg.path, buf); !s.ok()) {
    throw DataError("telemetry store: cannot open " + seg.path + ": " +
                    s.message);
  }
  if (buf.size() < kSegmentHeaderBytes ||
      !decode_segment_header({buf.data(), kSegmentHeaderBytes})) {
    return false;
  }
  std::size_t pos = kSegmentHeaderBytes;
  seg.data_end = pos;
  while (pos < buf.size()) {
    const std::size_t remaining = buf.size() - pos;
    if (remaining < kFrameHeaderBytes) break;  // torn frame header
    const std::uint32_t len = load_le<std::uint32_t>(buf.data() + pos);
    const std::uint32_t crc = load_le<std::uint32_t>(buf.data() + pos + 4);
    if (len == 0 || len > kMaxPayloadBytes ||
        len > remaining - kFrameHeaderBytes) {
      break;  // torn tail (or garbage length — indistinguishable)
    }
    const std::string_view payload(buf.data() + pos + kFrameHeaderBytes, len);
    if (crc32(payload.data(), payload.size()) != crc) {
      // A flipped bit mid-log: skip the record and stop trusting this
      // segment — framing beyond it may be off. Later segments still load.
      ++recovery_.records_dropped;
      m_rec_crc_drop_->inc();
      seg.clean = false;
      m_sealed_->inc();
      return true;
    }
    apply_record(payload, seg);
    pos += kFrameHeaderBytes + len;
    seg.data_end = pos;
  }
  if (seg.data_end < buf.size()) {
    // Torn tail record: cut the file back to the last complete record so
    // the segment stays appendable.
    recovery_.torn_bytes_truncated += buf.size() - seg.data_end;
    recovery_.tail_truncated = true;
    m_rec_torn_tail_->inc();
    if (!env_->resize_file(seg.path, seg.data_end).ok()) {
      seg.clean = false;  // cannot repair in place: stop appending here
      m_sealed_->inc();
    }
  }
  return true;
}

void TelemetryStore::apply_record(std::string_view payload, Segment& seg) {
  auto rec = decode_record(payload);
  if (!rec) {
    ++recovery_.records_dropped;  // unknown type / malformed body
    m_rec_record_dropped_->inc();
    return;
  }
  if (rec->type == RecordType::kDrive) {
    const auto it = by_serial_.find(rec->serial);
    if (it == by_serial_.end() && rec->drive == drives_.size()) {
      by_serial_.emplace(rec->serial, rec->drive);
      drives_.push_back(DriveInfo{rec->serial, 0, -1, -1});
      drive_segments_.emplace_back();
      ++recovery_.records_recovered;
    } else if (it != by_serial_.end() && it->second == rec->drive) {
      ++recovery_.records_recovered;  // idempotent re-registration
    } else {
      ++recovery_.records_dropped;  // id/serial mismatch
      m_rec_record_dropped_->inc();
    }
    return;
  }
  if (rec->type == RecordType::kGeneration) {
    // Highest generation wins: promotions are journaled in order, but a
    // compacted segment replays its (single, latest) record first.
    if (!generation_ || rec->generation >= generation_->generation) {
      generation_ = GenerationRecord{rec->generation,
                                     std::move(rec->model_text)};
    }
    ++recovery_.records_recovered;
    return;
  }
  if (rec->drive >= drives_.size()) {
    ++recovery_.records_dropped;  // sample for an unregistered drive
    m_rec_record_dropped_->inc();
    return;
  }
  index_samples(rec->drive, seg.seq, rec->sample.hour, rec->sample.hour, 1);
  ++recovery_.records_recovered;
}

void TelemetryStore::index_samples(std::uint32_t drive, std::uint64_t seq,
                                   std::int64_t first_hour,
                                   std::int64_t last_hour, std::size_t n) {
  DriveInfo& info = drives_[drive];
  if (info.n_samples == 0) info.first_hour = first_hour;
  info.last_hour = last_hour;
  info.n_samples += n;
  auto& segs = drive_segments_[drive];
  if (segs.empty() || segs.back() != seq) segs.push_back(seq);
}

const DriveInfo& TelemetryStore::drive(std::uint32_t id) const {
  HDD_REQUIRE(id < drives_.size(), "drive id out of range");
  return drives_[id];
}

std::optional<std::uint32_t> TelemetryStore::find_drive(
    const std::string& serial) const {
  const auto it = by_serial_.find(serial);
  if (it == by_serial_.end()) return std::nullopt;
  return it->second;
}

std::size_t TelemetryStore::sample_count() const {
  std::size_t n = 0;
  for (const DriveInfo& d : drives_) n += d.n_samples;
  return n;
}

std::int64_t TelemetryStore::last_hour() const {
  std::int64_t h = -1;
  for (const DriveInfo& d : drives_) h = std::max(h, d.last_hour);
  return h;
}

void TelemetryStore::ensure_writer() {
  if (out_ != nullptr) return;
  if (!segments_.empty()) {
    Segment& last = segments_.back();
    if (last.clean && last.data_end >= kSegmentHeaderBytes &&
        last.data_end < options_.segment_bytes) {
      const auto s = retryer_.run("open segment", [&] {
        return env_->new_append_file(last.path, /*truncate=*/false, out_);
      });
      if (!s.ok()) {
        throw DataError("telemetry store: cannot append to " + last.path +
                        ": " + s.message);
      }
      return;
    }
  }
  Segment seg;
  seg.seq = next_seq_++;
  seg.path = segment_path(seg.seq);
  const auto opened = retryer_.run("create segment", [&] {
    return env_->new_append_file(seg.path, /*truncate=*/true, out_);
  });
  if (!opened.ok()) {
    throw DataError("telemetry store: cannot create " + seg.path + ": " +
                    opened.message);
  }
  const std::string header = encode_segment_header(seg.seq, 0);
  if (auto s = out_->append(header); !s.ok()) {
    out_->abandon();
    out_.reset();
    throw DataError("telemetry store: cannot write header to " + seg.path +
                    ": " + s.message);
  }
  seg.data_end = header.size();
  segments_.push_back(std::move(seg));
}

void TelemetryStore::write_frame(std::string_view payload) {
  // Rotate before the write so a record is never split across segments.
  if (out_ != nullptr &&
      segments_.back().data_end + kFrameHeaderBytes + payload.size() >
          options_.segment_bytes &&
      segments_.back().data_end > kSegmentHeaderBytes) {
    close_writer(/*strict=*/true);
    segments_.back().clean = false;  // sealed: rotation point
    m_rotations_->inc();
    m_sealed_->inc();
  }
  ensure_writer();
  const std::string frame = frame_record(payload);
  if (auto s = out_->append(frame); !s.ok()) {
    // The frame may have partially landed (short write / ENOSPC tear):
    // never re-send it — a retried prefix would duplicate bytes. Seal the
    // segment so the next append rotates to a fresh file; recovery will
    // truncate any torn tail this append left behind.
    segments_.back().clean = false;
    m_sealed_->inc();
    (void)out_->flush();  // best effort: earlier complete frames reach the OS
    close_writer(/*strict=*/false);
    throw DataError("telemetry store: append to " + segments_.back().path +
                    " failed: " + s.message);
  }
  segments_.back().data_end += frame.size();
  m_appends_->inc();
  m_bytes_->inc(static_cast<std::uint64_t>(frame.size()));
  if (options_.fsync_appends) {
    const obs::ScopedSpan fsync_span("store.fsync");
    const auto s = retryer_.run("fsync segment", [&] { return out_->sync(); });
    m_fsyncs_->inc();
    if (!s.ok()) {
      throw DataError("telemetry store: fsync of " + segments_.back().path +
                      " failed: " + s.message);
    }
  }
}

std::uint32_t TelemetryStore::register_drive(const std::string& serial) {
  HDD_REQUIRE(!serial.empty(), "drive serial must not be empty");
  HDD_REQUIRE(serial.size() <= 0xFFFF, "drive serial too long");
  const auto it = by_serial_.find(serial);
  if (it != by_serial_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(drives_.size());
  write_frame(encode_drive_record(id, serial));
  by_serial_.emplace(serial, id);
  drives_.push_back(DriveInfo{serial, 0, -1, -1});
  drive_segments_.emplace_back();
  return id;
}

void TelemetryStore::append(std::uint32_t drive, const smart::Sample& sample) {
  HDD_REQUIRE(drive < drives_.size(), "append to an unregistered drive");
  write_frame(encode_sample_record(drive, sample));
  index_samples(drive, segments_.back().seq, sample.hour, sample.hour, 1);
}

void TelemetryStore::append_batch(std::uint32_t drive,
                                  const smart::Sample* samples,
                                  std::size_t n) {
  HDD_REQUIRE(drive < drives_.size(), "append to an unregistered drive");
  const obs::ScopedSpan span("store.append", "samples",
                             static_cast<std::uint64_t>(n));
  std::size_t done = 0;
  while (done < n) {
    ensure_writer();
    Segment* seg = &segments_.back();
    // How many whole frames fit before the rotation threshold. Always at
    // least one: a fresh segment holds just its header and segment_bytes
    // is validated to fit a record past it.
    std::size_t fit = 0;
    if (seg->data_end + kSampleFrameBytes <= options_.segment_bytes ||
        seg->data_end <= kSegmentHeaderBytes) {
      fit = (options_.segment_bytes - seg->data_end) / kSampleFrameBytes;
      if (fit == 0) fit = 1;
    }
    if (fit == 0) {
      // Rotate exactly as write_frame would: seal, then loop to a fresh
      // segment.
      close_writer(/*strict=*/true);
      seg->clean = false;
      m_rotations_->inc();
      m_sealed_->inc();
      continue;
    }
    const std::size_t k = std::min(fit, n - done);
    batch_buf_.clear();
    batch_buf_.reserve(k * kSampleFrameBytes);
    for (std::size_t i = 0; i < k; ++i) {
      append_sample_frame(batch_buf_, drive, samples[done + i]);
    }
    if (auto s = out_->append(batch_buf_); !s.ok()) {
      // Same contract as write_frame: a prefix may have landed, so never
      // re-send — seal and let recovery truncate the torn tail. None of
      // this batch is indexed.
      seg->clean = false;
      m_sealed_->inc();
      (void)out_->flush();  // best effort: earlier complete frames reach the OS
      close_writer(/*strict=*/false);
      // Unlike write_frame's single record, a torn multi-frame buffer can
      // leave *complete* frames of this failed batch on disk. The live
      // store does not index them, so recovery must not either — a
      // re-sent batch would otherwise replay those samples twice. Cut the
      // file back to the last indexed frame; when even that fails
      // (permanent env failure), the segment is sealed and degraded
      // already, and the duplicate-on-resend hazard is the smaller of the
      // node's problems.
      std::uint64_t on_disk = 0;
      if (env_->file_size(seg->path, on_disk).ok() &&
          on_disk > seg->data_end) {
        (void)retryer_.run("truncate torn append", [&] {
          return env_->resize_file(seg->path, seg->data_end);
        });
      }
      throw DataError("telemetry store: append to " + seg->path +
                      " failed: " + s.message);
    }
    seg->data_end += batch_buf_.size();
    m_appends_->inc(static_cast<std::uint64_t>(k));
    m_bytes_->inc(static_cast<std::uint64_t>(batch_buf_.size()));
    index_samples(drive, seg->seq, samples[done].hour,
                  samples[done + k - 1].hour, k);
    done += k;
  }
  if (options_.fsync_appends && out_ != nullptr) {
    const obs::ScopedSpan fsync_span("store.fsync");
    const auto s = retryer_.run("fsync segment", [&] { return out_->sync(); });
    m_fsyncs_->inc();
    if (!s.ok()) {
      throw DataError("telemetry store: fsync of " + segments_.back().path +
                      " failed: " + s.message);
    }
  }
}

void TelemetryStore::append_generation(std::uint64_t generation,
                                       std::string_view model_text) {
  const std::size_t payload_bytes = 1 + 8 + 4 + model_text.size();
  if (payload_bytes > kMaxPayloadBytes) {
    throw DataError("telemetry store: serialized model too large for a "
                    "generation record (" +
                    std::to_string(model_text.size()) + " bytes)");
  }
  write_frame(encode_generation_record(generation, model_text));
  flush();  // a promotion must be durable before the in-memory swap
  generation_ = GenerationRecord{generation, std::string(model_text)};
}

void TelemetryStore::flush() {
  if (out_ == nullptr) return;
  const obs::ScopedSpan span("store.fsync");
  const auto s = retryer_.run("fsync segment", [&] { return out_->sync(); });
  m_fsyncs_->inc();
  if (!s.ok()) {
    throw DataError("telemetry store: fsync of " + segments_.back().path +
                    " failed: " + s.message);
  }
}

void TelemetryStore::flush_to_os() {
  if (out_ == nullptr) return;
  const obs::ScopedSpan span("store.flush_os");
  if (auto s = out_->flush(); !s.ok()) {
    // Buffered bytes may have partially landed: same poisoned state as a
    // failed append, so seal the segment rather than risk duplicates.
    segments_.back().clean = false;
    m_sealed_->inc();
    close_writer(/*strict=*/false);
    throw DataError("telemetry store: flush of " + segments_.back().path +
                    " failed: " + s.message);
  }
}

void TelemetryStore::scan(const SampleFn& fn) const {
  walk_indexed(std::nullopt, std::numeric_limits<std::int64_t>::min(),
               std::numeric_limits<std::int64_t>::max(), fn);
}

void TelemetryStore::walk_indexed(std::optional<std::uint32_t> only,
                                  std::int64_t from_hour,
                                  std::int64_t to_hour,
                                  const SampleFn& fn) const {
  // Best effort: a failed flush means readers see a shorter (still
  // well-formed) log; append paths surface the error.
  if (out_ != nullptr) (void)out_->flush();
  const auto indexed = [this](std::uint32_t drive, std::uint64_t seq) {
    const auto& segs = drive_segments_[drive];
    return std::binary_search(segs.begin(), segs.end(), seq);
  };
  std::string buf;
  for (const Segment& seg : segments_) {
    if (only && !indexed(*only, seg.seq)) continue;
    if (auto s = env_->read_file(seg.path, buf); !s.ok()) {
      throw DataError("telemetry store: cannot open " + seg.path + ": " +
                      s.message);
    }
    // Frames up to the validated end only: recovery vouched for those.
    const std::size_t end = std::min<std::size_t>(
        buf.size(), static_cast<std::size_t>(seg.data_end));
    std::size_t pos = kSegmentHeaderBytes;
    while (pos + kFrameHeaderBytes <= end) {
      const std::uint32_t len = load_le<std::uint32_t>(buf.data() + pos);
      if (len == 0 || pos + kFrameHeaderBytes + len > end) break;
      const auto rec =
          decode_record({buf.data() + pos + kFrameHeaderBytes, len});
      pos += kFrameHeaderBytes + len;
      if (!rec || rec->type != RecordType::kSample) continue;
      const std::uint32_t d = rec->drive;
      if (d < drives_.size() && (!only || d == *only) &&
          rec->sample.hour >= from_hour && rec->sample.hour <= to_hour &&
          indexed(d, seg.seq)) {
        fn(d, rec->sample);
      }
    }
  }
}

std::vector<smart::Sample> TelemetryStore::read_drive(
    std::uint32_t drive, std::int64_t from_hour, std::int64_t to_hour) const {
  HDD_REQUIRE(drive < drives_.size(), "drive id out of range");
  std::vector<smart::Sample> out;
  walk_indexed(drive, from_hour, to_hour,
               [&out](std::uint32_t, const smart::Sample& s) {
                 out.push_back(s);
               });
  return out;
}

std::vector<smart::DriveRecord> TelemetryStore::read_window(
    std::int64_t from_hour, std::int64_t to_hour) const {
  std::vector<smart::DriveRecord> out(drives_.size());
  for (std::size_t id = 0; id < out.size(); ++id) {
    const DriveInfo& info = drives_[id];
    out[id].serial = info.serial;
    // Exact capacity when the window spans all of the drive's samples.
    if (from_hour <= info.first_hour && info.last_hour <= to_hour) {
      out[id].samples.reserve(info.n_samples);
    }
  }
  walk_indexed(std::nullopt, from_hour, to_hour,
               [&out](std::uint32_t drive, const smart::Sample& s) {
                 out[drive].samples.push_back(s);
               });
  return out;
}

TelemetryStore::CompactionResult TelemetryStore::write_compacted(
    const std::string& path_tmp, const std::string& path_final,
    std::uint64_t seq, std::int64_t min_hour) const {
  std::unique_ptr<io::File> f;
  const auto opened = retryer_.run("create compaction tmp", [&] {
    return env_->new_append_file(path_tmp, /*truncate=*/true, f);
  });
  if (!opened.ok()) {
    throw DataError("telemetry store: cannot create " + path_tmp + ": " +
                    opened.message);
  }
  auto put = [&f, &path_tmp](std::string_view bytes) {
    if (auto s = f->append(bytes); !s.ok()) {
      f->abandon();
      throw DataError("telemetry store: write to " + path_tmp +
                      " failed: " + s.message);
    }
  };
  put(encode_segment_header(seq, kSegCompacted));
  for (std::uint32_t id = 0; id < drives_.size(); ++id) {
    put(frame_record(encode_drive_record(id, drives_[id].serial)));
  }
  if (generation_) {
    put(frame_record(encode_generation_record(generation_->generation,
                                              generation_->model_text)));
  }
  CompactionResult res;
  walk_indexed(std::nullopt, std::numeric_limits<std::int64_t>::min(),
               std::numeric_limits<std::int64_t>::max(),
               [&](std::uint32_t drive, const smart::Sample& s) {
                 if (s.hour >= min_hour) {
                   put(frame_record(encode_sample_record(drive, s)));
                   ++res.kept;
                 } else {
                   ++res.dropped;
                 }
               });
  const auto synced = retryer_.run("fsync compaction tmp",
                                   [&] { return f->sync(); });
  m_fsyncs_->inc();
  if (!synced.ok()) {
    f->abandon();
    throw DataError("telemetry store: fsync of " + path_tmp +
                    " failed: " + synced.message);
  }
  if (auto s = f->close(); !s.ok()) {
    throw DataError("telemetry store: close of " + path_tmp +
                    " failed: " + s.message);
  }
  if (auto s = env_->rename_file(path_tmp, path_final); !s.ok()) {
    throw DataError("telemetry store: cannot publish " + path_final + ": " +
                    s.message);
  }
  // Best effort: until the directory entry is durable a crash falls back
  // to the old generation, which stays fully intact — never a mix.
  (void)env_->sync_dir(fs::path(path_final).parent_path().string());
  return res;
}

TelemetryStore::CompactionResult TelemetryStore::compact(
    std::int64_t min_hour) {
  const obs::ScopedSpan span("store.compact");
  flush();
  close_writer(/*strict=*/true);
  const std::uint64_t seq = next_seq_++;
  const std::string path = segment_path(seq);
  const auto res = write_compacted(path + ".tmp", path, seq, min_hour);
  // The flagged segment is durable; unlinking the old generation can now
  // fail/crash at any point without losing the supersede guarantee.
  for (const Segment& seg : segments_) {
    if (seg.seq < seq) (void)env_->remove_file(seg.path);
  }
  recover();  // rebuild the index through the same path open uses
  return res;
}

TelemetryStore::CompactionResult TelemetryStore::snapshot_to(
    const std::string& dest_dir, std::int64_t min_hour) const {
  if (auto s = env_->create_dirs(dest_dir); !s.ok()) {
    throw DataError("telemetry store: cannot create " + dest_dir + ": " +
                    s.message);
  }
  std::vector<std::string> names;
  if (auto s = env_->list_dir(dest_dir, names); !s.ok()) {
    throw DataError("telemetry store: cannot list " + dest_dir + ": " +
                    s.message);
  }
  for (const std::string& name : names) {
    HDD_REQUIRE(!parse_segment_name(name).has_value(),
                "snapshot destination already holds segments");
  }
  const fs::path final = fs::path(dest_dir) / (std::string(kSegmentPrefix) +
                                               "00000001" + kSegmentSuffix);
  return write_compacted(final.string() + ".tmp", final.string(), 1, min_hour);
}

}  // namespace hdd::store
