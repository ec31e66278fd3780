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

// The store's write unit: buffered frames go to the file once they reach
// this many bytes, in the journal and in compaction alike.
constexpr std::size_t kWriteBytes = std::size_t{1} << 16;

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
    close_writer();
  } catch (const DataError& e) {
    log_message(LogLevel::kWarn,
                std::string("telemetry store: close failed (ignored): ") +
                    e.what());
  } catch (...) {
    // A simulated crash (CrashPoint) during teardown: nothing to do, the
    // harness owns the aftermath.
  }
}

void TelemetryStore::close_writer() {
  if (out_ == nullptr) return;
  write_pending();
  const auto s = out_->close();
  out_.reset();
  if (!s.ok()) throw DataError("telemetry store: close failed: " + s.message);
}

std::string TelemetryStore::segment_path(std::uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof name, "%s%08llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(seq), kSegmentSuffix);
  return (fs::path(dir_) / name).string();
}

void TelemetryStore::recover() {
  const obs::ScopedSpan span("store.recover");
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
  for (;;) {
    const ParsedFrame f = parse_frame(buf, pos, kMaxPayloadBytes);
    // Short or bad length: a torn tail (or garbage length — the two are
    // indistinguishable).
    if (f.status != ParsedFrame::kFrame) break;
    if (crc32(f.payload.data(), f.payload.size()) != f.crc) {
      // A flipped bit mid-log: skip the record and stop trusting this
      // segment — framing beyond it may be off. Later segments still load.
      ++recovery_.records_dropped;
      m_rec_crc_drop_->inc();
      seg.clean = false;
      m_sealed_->inc();
      return true;
    }
    apply_record(f.payload, seg);
    pos += kFrameHeaderBytes + f.payload.size();
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
  // The header is buffered like any frame, and cut like one if its write
  // fails (recovery deletes the then-empty file).
  pending_.append(encode_segment_header(seg.seq, 0));
  seg.data_end = pending_.size();
  segments_.push_back(std::move(seg));
}

std::size_t TelemetryStore::room(std::size_t frame_bytes) {
  for (;;) {
    ensure_writer();
    const std::uint64_t end = segments_.back().data_end;
    const std::uint64_t cap = options_.segment_bytes;
    const std::uint64_t fit = end < cap ? (cap - end) / frame_bytes : 0;
    // A fresh segment takes at least one frame, however large, so a
    // record is never split across segments.
    if (fit > 0 || end <= kSegmentHeaderBytes) {
      return static_cast<std::size_t>(std::max<std::uint64_t>(fit, 1));
    }
    close_writer();
    segments_.back().clean = false;  // sealed: rotation point
    m_rotations_->inc();
    m_sealed_->inc();
  }
}

void TelemetryStore::write_pending() {
  if (pending_.empty()) return;
  const auto s = out_->append(pending_);
  if (s.ok()) {
    pending_.clear();
    undo_.clear();
    return;
  }
  // A prefix may have landed (short write / ENOSPC tear), complete frames
  // included, and recovery would apply those. Never re-send it: take the
  // buffered chunks back out of the index, cut the file back to the bytes
  // the OS had acknowledged before this write, and seal the segment so the
  // next write rotates to a fresh file. When even the cut fails (permanent
  // env failure), the segment is sealed and degraded already, and the
  // duplicate-on-resend hazard is the smaller of the node's problems.
  Segment& seg = segments_.back();
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    DriveInfo& info = drives_[it->drive];
    info.n_samples = it->n_samples;
    info.first_hour = it->first_hour;
    info.last_hour = it->last_hour;
    if (it->added_segment) drive_segments_[it->drive].pop_back();
  }
  seg.data_end -= pending_.size();
  pending_.clear();
  undo_.clear();
  seg.clean = false;
  m_sealed_->inc();
  out_.reset();
  std::uint64_t on_disk = 0;
  if (env_->file_size(seg.path, on_disk).ok() && on_disk > seg.data_end) {
    (void)retryer_.run("truncate torn append", [&] {
      return env_->resize_file(seg.path, seg.data_end);
    });
  }
  throw DataError("telemetry store: write to " + seg.path + " failed: " +
                  s.message);
}

void TelemetryStore::write_through(std::string_view frame) {
  (void)room(frame.size());
  pending_.append(frame);
  segments_.back().data_end += frame.size();
  write_pending();
  m_appends_->inc();
  m_bytes_->inc(static_cast<std::uint64_t>(frame.size()));
}

std::uint32_t TelemetryStore::register_drive(const std::string& serial) {
  HDD_REQUIRE(!serial.empty(), "drive serial must not be empty");
  HDD_REQUIRE(serial.size() <= 0xFFFF, "drive serial too long");
  const auto it = by_serial_.find(serial);
  if (it != by_serial_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(drives_.size());
  std::string frame;
  append_drive_frame(frame, id, serial);
  write_through(frame);
  by_serial_.emplace(serial, id);
  drives_.push_back(DriveInfo{serial, 0, -1, -1});
  drive_segments_.emplace_back();
  if (options_.fsync_appends) flush();
  return id;
}

void TelemetryStore::append(std::uint32_t drive, const smart::Sample& sample) {
  append_batch(drive, &sample, 1);
}

void TelemetryStore::append_batch(std::uint32_t drive,
                                  const smart::Sample* samples,
                                  std::size_t n) {
  HDD_REQUIRE(drive < drives_.size(), "append to an unregistered drive");
  const obs::ScopedSpan span("store.append", "samples",
                             static_cast<std::uint64_t>(n));
  for (std::size_t done = 0, k = 0; done < n; done += k) {
    k = std::min(room(kSampleFrameBytes), n - done);
    Segment& seg = segments_.back();
    // What indexing this chunk changes, so a failed write can undo it; a
    // run of chunks for one drive needs only the state before the first.
    if (undo_.empty() || undo_.back().drive != drive) {
      const DriveInfo& info = drives_[drive];
      const auto& segs = drive_segments_[drive];
      undo_.push_back({drive, info.n_samples, info.first_hour, info.last_hour,
                       segs.empty() || segs.back() != seg.seq});
    }
    for (std::size_t i = 0; i < k; ++i) {
      append_sample_frame(pending_, drive, samples[done + i]);
    }
    seg.data_end += k * kSampleFrameBytes;
    m_appends_->inc(static_cast<std::uint64_t>(k));
    m_bytes_->inc(static_cast<std::uint64_t>(k * kSampleFrameBytes));
    index_samples(drive, seg.seq, samples[done].hour,
                  samples[done + k - 1].hour, k);
    if (pending_.size() >= kWriteBytes) write_pending();
  }
  if (options_.fsync_appends) flush();
}

void TelemetryStore::append_generation(std::uint64_t generation,
                                       std::string_view model_text) {
  const std::size_t payload_bytes = 1 + 8 + 4 + model_text.size();
  if (payload_bytes > kMaxPayloadBytes) {
    throw DataError("telemetry store: serialized model too large for a "
                    "generation record (" +
                    std::to_string(model_text.size()) + " bytes)");
  }
  std::string frame;
  append_generation_frame(frame, generation, model_text);
  write_through(frame);
  generation_ = GenerationRecord{generation, std::string(model_text)};
  flush();  // a promotion must be durable before the caller swaps models
}

void TelemetryStore::flush() {
  if (out_ == nullptr) return;
  write_pending();
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
  write_pending();
}

void TelemetryStore::scan(const SampleFn& fn) const {
  walk_indexed(std::nullopt, std::numeric_limits<std::int64_t>::min(),
               std::numeric_limits<std::int64_t>::max(), fn);
}

void TelemetryStore::walk_indexed(std::optional<std::uint32_t> only,
                                  std::int64_t from_hour,
                                  std::int64_t to_hour,
                                  const SampleFn& fn) const {
  const auto indexed = [this](std::uint32_t drive, std::uint64_t seq) {
    const auto& segs = drive_segments_[drive];
    return std::binary_search(segs.begin(), segs.end(), seq);
  };
  std::string buf;
  for (const Segment& seg : segments_) {
    // A segment whose first write failed holds no frame (its empty file
    // may already be gone: recovery deletes those).
    if (seg.data_end <= kSegmentHeaderBytes) continue;
    if (only && !indexed(*only, seg.seq)) continue;
    if (auto s = env_->read_file(seg.path, buf); !s.ok()) {
      throw DataError("telemetry store: cannot open " + seg.path + ": " +
                      s.message);
    }
    if (&seg == &segments_.back() && !pending_.empty()) {
      // The file holds the acknowledged bytes; the rest is still buffered.
      buf.resize(static_cast<std::size_t>(seg.data_end) - pending_.size());
      buf.append(pending_);
    }
    // Frames up to the validated end only: recovery vouched for those, so
    // their CRCs are not checked again.
    const std::string_view valid = std::string_view(buf).substr(
        0, static_cast<std::size_t>(seg.data_end));
    std::size_t pos = kSegmentHeaderBytes;
    for (;;) {
      const ParsedFrame f = parse_frame(valid, pos, kMaxPayloadBytes);
      if (f.status != ParsedFrame::kFrame) break;
      const auto rec = decode_record(f.payload);
      pos += kFrameHeaderBytes + f.payload.size();
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
  // Frames are encoded in place into one buffer, handed to the file
  // whenever it reaches kWriteBytes.
  std::string buf = encode_segment_header(seq, kSegCompacted);
  auto put = [&f, &path_tmp, &buf] {
    if (auto s = f->append(buf); !s.ok()) {
      throw DataError("telemetry store: write to " + path_tmp +
                      " failed: " + s.message);
    }
    buf.clear();
  };
  for (std::uint32_t id = 0; id < drives_.size(); ++id) {
    append_drive_frame(buf, id, drives_[id].serial);
    if (buf.size() >= kWriteBytes) put();
  }
  if (generation_) {
    append_generation_frame(buf, generation_->generation,
                            generation_->model_text);
  }
  CompactionResult res;
  walk_indexed(std::nullopt, std::numeric_limits<std::int64_t>::min(),
               std::numeric_limits<std::int64_t>::max(),
               [&](std::uint32_t drive, const smart::Sample& s) {
                 if (s.hour >= min_hour) {
                   append_sample_frame(buf, drive, s);
                   if (buf.size() >= kWriteBytes) put();
                   ++res.kept;
                 } else {
                   ++res.dropped;
                 }
               });
  put();
  const auto synced = retryer_.run("fsync compaction tmp",
                                   [&] { return f->sync(); });
  m_fsyncs_->inc();
  if (!synced.ok()) {
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
  close_writer();
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
