// TelemetryStore — embedded crash-safe store for SMART telemetry.
//
// The paper's deployment loop (Section V-E) is a monitoring node that
// scores every drive on each SMART interval and periodically retrains from
// accumulated history. This store is the durable substrate for both: an
// append-only log of sample records in CRC-framed segments (format.h),
// with a per-drive in-memory index rebuilt on open.
//
// Guarantees:
//  * Appends are sequential writes to the highest segment; segments rotate
//    at StoreOptions::segment_bytes, also for the first write after a
//    reopen. The store owns the only buffer between a frame and write(2):
//    sample frames reach the OS once 64 KiB are buffered, at flush_to_os()
//    and flush(), at rotation and at close; registration and generation
//    records are written through. flush() also fsyncs (fsync_appends
//    trades throughput for power-loss durability).
//  * The index counts buffered samples at once, and reads see them. A
//    write that throws leaves the live index, the segment file and a
//    reopen in agreement: the file is cut back to the bytes the OS had
//    acknowledged, and the samples buffered since leave the index.
//  * Opening recovers deterministically from a crash: a torn tail record is
//    truncated away (the log ends at the last complete record); a record
//    whose CRC fails is skipped and scanning of that segment stops — later
//    segments still load. Recovery never throws for corrupt record data;
//    RecoveryStats reports what was salvaged.
//  * compact(min_hour) takes a point-in-time snapshot of the samples at or
//    after the retention horizon into one fresh segment flagged
//    kSegCompacted, which supersedes all lower-numbered segments; old files
//    are unlinked afterwards, so a crash at any point leaves either the old
//    or the new generation fully intact, never a mix.
//  * Drive ids are dense, assigned in registration order, and stable across
//    reopen and compaction.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/retry.h"
#include "smart/drive.h"

namespace hdd::obs {
class Counter;
class Registry;
}  // namespace hdd::obs

namespace hdd::store {

struct StoreOptions {
  // Rotation threshold: an append that would grow the current segment past
  // this opens a new one.
  std::uint64_t segment_bytes = 8ull << 20;
  // fsync after every append (otherwise durability is at flush()/OS pace).
  bool fsync_appends = false;
  // Registry for the hdd_store_* metrics (appends, bytes, fsyncs,
  // rotations, recovery-taxonomy outcomes); nullptr =
  // obs::Registry::global(). A non-global registry must outlive the store.
  obs::Registry* metrics = nullptr;
  // All filesystem access goes through this Env; nullptr = io::Env::posix().
  // A FaultEnv here puts the whole store under deterministic fault
  // injection. The env must outlive the store.
  io::Env* env = nullptr;
  // Backoff policy for transiently failing opens and fsyncs. Writes are
  // never retried: a short write may have landed a prefix, and re-sending
  // it would duplicate frames — the file is cut back, the segment sealed,
  // and the next write rotates to a fresh one instead.
  io::RetryPolicy retry{};
};

struct RecoveryStats {
  std::size_t segments_scanned = 0;
  std::size_t segments_skipped = 0;    // unreadable header — excluded wholesale
  std::size_t records_recovered = 0;   // applied to the index
  std::size_t records_dropped = 0;     // CRC mismatch, bad reference, unknown type
  std::uint64_t torn_bytes_truncated = 0;
  bool tail_truncated = false;
};

struct DriveInfo {
  std::string serial;
  std::size_t n_samples = 0;
  std::int64_t first_hour = -1;
  std::int64_t last_hour = -1;
};

// The promoted model the log knows about: generation number + serialized
// model text (core/model_io format). Highest generation wins on recovery.
struct GenerationRecord {
  std::uint64_t generation = 0;
  std::string model_text;
};

// Concurrency contract: externally synchronized, single caller at a time —
// no internal locking, deliberately. Serve pins each store to one shard
// worker thread (ShardEngine), and the retrain loop reaches it only via
// Server::run_on_shard, so every access is already serialized; a mutex here
// would only hide violations of that design. The annotated-capability
// subsystems (common/mutex.h) cover the genuinely shared state around it.
class TelemetryStore {
 public:
  // Opens (creating the directory if needed) and recovers the log.
  // Throws DataError only for environment-level failures (unreadable
  // directory, I/O errors) — never for corrupt record data.
  explicit TelemetryStore(std::string dir, StoreOptions options = {});
  ~TelemetryStore();

  TelemetryStore(const TelemetryStore&) = delete;
  TelemetryStore& operator=(const TelemetryStore&) = delete;

  const std::string& directory() const { return dir_; }
  const StoreOptions& options() const { return options_; }
  // Stats from the most recent recovery scan (open or post-compaction).
  const RecoveryStats& recovery() const { return recovery_; }

  // --- Drive registry -------------------------------------------------------

  // Returns the existing id for a known serial, else appends a registration
  // record and returns the new dense id.
  std::uint32_t register_drive(const std::string& serial);
  std::optional<std::uint32_t> find_drive(const std::string& serial) const;
  std::size_t drive_count() const { return drives_.size(); }
  const DriveInfo& drive(std::uint32_t id) const;

  // --- Append path ----------------------------------------------------------

  // Appends one sample for a registered drive: append_batch of one.
  // Samples for one drive should arrive in chronological order (replay
  // preserves append order).
  void append(std::uint32_t drive, const smart::Sample& sample);

  // Appends a block of samples for one drive, encoding its frames into the
  // store's buffer (the serve ingest hot path). Rotation happens on frame
  // boundaries. A failed write throws DataError with the segment sealed,
  // the file cut back to its acknowledged end, and every sample buffered
  // since that end (this call's and earlier ones') out of the index.
  void append_batch(std::uint32_t drive, const smart::Sample* samples,
                    std::size_t n);

  // Journals a promoted model generation durably (frame written through,
  // then one fsync): the
  // update pipeline writes this record *before* hot-swapping the scorer, so
  // a crash at any promotion step resumes to a well-defined generation.
  // Throws DataError when the serialized model exceeds kMaxPayloadBytes.
  // When only the fsync fails, latest_generation() already names the
  // record, as a reopen would.
  void append_generation(std::uint64_t generation,
                         std::string_view model_text);

  // Highest-generation record recovered or appended; nullopt when the log
  // holds none.
  const std::optional<GenerationRecord>& latest_generation() const {
    return generation_;
  }

  // Durable flush: writes the buffer out, then fsyncs the segment. Also
  // the sync step of every write (fsync_appends, append_generation). A
  // failed fsync throws with the written samples still indexed: they are
  // on the OS, and a reopen sees them.
  void flush();

  // Cheap flush: writes the buffer to the OS without the fsync, so
  // recovery after a process crash sees it. Power-loss durability still
  // requires flush().
  void flush_to_os();

  std::size_t sample_count() const;
  std::size_t segment_count() const { return segments_.size(); }
  // Latest hour across all drives; -1 when the store holds no samples.
  std::int64_t last_hour() const;

  // --- Read path ------------------------------------------------------------

  using SampleFn =
      std::function<void(std::uint32_t drive, const smart::Sample&)>;

  // Streams every indexed sample in append order: the unbounded
  // read_window, not split by drive.
  void scan(const SampleFn& fn) const;

  // One drive's samples with hour in [from_hour, to_hour], in append order.
  std::vector<smart::Sample> read_drive(
      std::uint32_t drive,
      std::int64_t from_hour = std::numeric_limits<std::int64_t>::min(),
      std::int64_t to_hour = std::numeric_limits<std::int64_t>::max()) const;

  // A training window in one pass over the segments: one record per
  // registered drive, in drive-id order (empty when the drive has no
  // samples in the window), each with its serial and exactly what
  // read_drive(id, from_hour, to_hour) returns.
  std::vector<smart::DriveRecord> read_window(
      std::int64_t from_hour = std::numeric_limits<std::int64_t>::min(),
      std::int64_t to_hour = std::numeric_limits<std::int64_t>::max()) const;

  // --- Retention ------------------------------------------------------------

  struct CompactionResult {
    std::size_t kept = 0;
    std::size_t dropped = 0;
  };

  // Drops every sample with hour < min_hour and rewrites the log as a
  // single compacted segment (see class comment for the crash protocol).
  CompactionResult compact(std::int64_t min_hour);

  // Point-in-time snapshot into another directory (which must not already
  // contain segments): a one-segment store holding the live records.
  CompactionResult snapshot_to(
      const std::string& dest_dir,
      std::int64_t min_hour = std::numeric_limits<std::int64_t>::min()) const;

 private:
  struct Segment {
    std::uint64_t seq = 0;
    std::string path;
    std::uint64_t data_end = 0;  // bytes of indexed frames, buffered included
    bool clean = true;           // false after a CRC-stop: never append here
  };

  void recover();
  // Writes the buffer out and closes the current writer; a failure of
  // either throws DataError.
  void close_writer();
  // Scans one segment file, applying records to the index. Returns false
  // when the header was unreadable.
  [[nodiscard]] bool scan_segment(Segment& seg);
  void apply_record(std::string_view payload, Segment& seg);
  // Records n samples of `drive` with hours first_hour..last_hour in
  // segment `seq`: the one update of the per-drive index.
  void index_samples(std::uint32_t drive, std::uint64_t seq,
                     std::int64_t first_hour, std::int64_t last_hour,
                     std::size_t n);
  // Opens the writer on the last segment, or creates a segment whose
  // header is the first buffered frame.
  void ensure_writer();
  // How many frames of frame_bytes fit in the open segment; when none do,
  // writes the buffer out, seals the segment and rotates first. Always at
  // least 1.
  std::size_t room(std::size_t frame_bytes);
  // The one write: hands pending_ to the open segment in one append, and
  // counts its sample frames as appended and written. On failure the
  // buffered chunks leave the index (undo_), the file is cut back to its
  // acknowledged end, the segment is sealed and closed (or forgotten and
  // its file removed, when not even its header had landed), and DataError
  // is thrown.
  void write_pending();
  // Buffers one whole frame in the open segment and writes it through
  // with everything buffered before it.
  void write_through(std::string_view frame);
  std::string segment_path(std::uint64_t seq) const;
  CompactionResult write_compacted(const std::string& path_tmp,
                                   const std::string& path_final,
                                   std::uint64_t seq,
                                   std::int64_t min_hour) const;
  // The read path under scan, read_drive and read_window: streams the
  // samples with hour in [from_hour, to_hour] that the index holds, in
  // append order. A sample counts only when its drive is registered and
  // drive_segments_ lists the segment for that drive, so records recovery
  // dropped stay invisible. `only` restricts the walk to one drive.
  void walk_indexed(std::optional<std::uint32_t> only, std::int64_t from_hour,
                    std::int64_t to_hour, const SampleFn& fn) const;

  std::string dir_;
  StoreOptions options_;
  io::Env* env_;  // resolved from options_.env (never null after construction)
  io::Retryer retryer_;
  // hdd_store_* instruments (resolved from options_.metrics before
  // recover(), so the open-time scan is counted; see DESIGN.md §7). The
  // hdd_store_recovery_outcomes_total counters carry an {outcome=...}
  // label per recovery-taxonomy branch.
  obs::Counter* m_appends_;
  obs::Counter* m_bytes_;
  obs::Counter* m_fsyncs_;
  obs::Counter* m_rotations_;
  obs::Counter* m_sealed_;
  obs::Counter* m_rec_torn_tail_;
  obs::Counter* m_rec_crc_drop_;
  obs::Counter* m_rec_record_dropped_;
  obs::Counter* m_rec_header_skip_;
  obs::Counter* m_rec_empty_deleted_;
  obs::Counter* m_rec_tmp_deleted_;
  RecoveryStats recovery_;
  std::vector<Segment> segments_;
  std::vector<DriveInfo> drives_;
  // Segment seqs holding at least one sample of each drive (ascending).
  std::vector<std::vector<std::uint64_t>> drive_segments_;
  std::unordered_map<std::string, std::uint32_t> by_serial_;
  std::optional<GenerationRecord> generation_;
  std::uint64_t next_seq_ = 1;
  std::unique_ptr<io::File> out_;  // current segment writer (lazy)
  // Frames of the last segment not yet handed to the OS: its acknowledged
  // end is data_end - pending_.size(). Empty whenever out_ is null.
  std::string pending_;
  std::size_t pending_samples_ = 0;  // sample frames in pending_
  // One buffered chunk's index change: the drive's counts before it, and
  // whether it added the segment to drive_segments_. Cleared with pending_.
  struct Undo {
    std::uint32_t drive;
    std::size_t n_samples;
    std::int64_t first_hour;
    std::int64_t last_hour;
    bool added_segment;
  };
  std::vector<Undo> undo_;
};

}  // namespace hdd::store
