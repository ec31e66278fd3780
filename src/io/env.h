// Env — the single doorway for all filesystem access.
//
// A predictor deployed in a data center runs on the same failing hardware
// it monitors: fsync errors, ENOSPC, torn writes and flipped bits are part
// of the workload, not exceptional. Routing every open/read/write/fsync/
// rename/remove/list through one virtual seam makes the whole fault
// surface injectable on demand (io/fault_env.h) while production code uses
// the EINTR-safe PosixEnv. The layering follows CalicoDB's Env pattern:
// a small abstract interface, a production implementation, and decorators.
//
// Error model (DESIGN.md §8): every operation returns an IoStatus carrying
// an ErrorClass —
//   kTransient  — retrying may succeed (EAGAIN, EBUSY, EIO, fd pressure);
//                 io/retry.h bounds the retries with backoff.
//   kPermanent  — retrying cannot help (ENOSPC, EROFS, EACCES, ENOENT);
//                 callers degrade (seal the segment, quarantine, report).
//   kCorrupting — the operation "succeeded" but the data cannot be trusted
//                 (injected read bit-flips); detected by CRC at the store
//                 layer, never reported through IoStatus by PosixEnv.
// The store maps non-ok statuses to DataError at its public boundary;
// FleetScorer's journal path downgrades them to counted, logged skips.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace hdd::io {

enum class ErrorClass { kNone, kTransient, kPermanent, kCorrupting };

// "none" / "transient" / "permanent" / "corrupting".
const char* error_class_name(ErrorClass c);

// [[nodiscard]] on the type: every IoStatus-returning call, present and
// future, warns when the status is dropped. Intentional discards say so
// with a (void) cast at the call site.
struct [[nodiscard]] IoStatus {
  ErrorClass cls = ErrorClass::kNone;
  int sys_errno = 0;       // errno when the failure came from a syscall
  std::string message;     // human-readable context ("fsync seg-01.log: ...")

  bool ok() const { return cls == ErrorClass::kNone; }
  bool transient() const { return cls == ErrorClass::kTransient; }

  static IoStatus success() { return {}; }
  static IoStatus transient_error(std::string msg, int err = 0) {
    return {ErrorClass::kTransient, err, std::move(msg)};
  }
  static IoStatus permanent_error(std::string msg, int err = 0) {
    return {ErrorClass::kPermanent, err, std::move(msg)};
  }
  // Classifies a failed syscall by its errno (see the table in env.cpp).
  static IoStatus from_errno(const std::string& op, const std::string& path,
                             int err);
};

// Thrown by FaultEnv when a FaultPlan crash point fires: the simulated
// process is dead and the stack unwinds out of the I/O path like a kill -9.
// Deliberately NOT derived from std::exception so production catch blocks
// (which downgrade I/O errors to degraded mode) can never swallow a crash;
// only the fault harness catches it.
class CrashPoint {
 public:
  explicit CrashPoint(std::uint64_t op) : op_(op) {}
  std::uint64_t op() const { return op_; }

 private:
  std::uint64_t op_;
};

// A writable, append-oriented file handle with no user-space buffer:
// append() hands its bytes to the OS (write(2) until all have landed or
// one fails; a failure may leave a prefix on the file), sync() is fsync
// and nothing else, close() releases the descriptor. Callers that want
// fewer syscalls batch their own bytes (the telemetry store does; its
// buffer decides when journal bytes reach the OS).
class File {
 public:
  // Closes the file if still open, reporting nothing.
  virtual ~File();

  virtual IoStatus append(std::string_view data) = 0;
  // fsync: makes the appended bytes durable.
  virtual IoStatus sync() = 0;
  // Idempotent. Errors surface here, not in the destructor.
  virtual IoStatus close() = 0;
};

class Env {
 public:
  virtual ~Env();

  // The process-wide production environment (PosixEnv).
  static Env& posix();

  // Opens `path` for appending, creating it if missing; `truncate` starts
  // from an empty file. On success `out` holds the handle.
  virtual IoStatus new_append_file(const std::string& path, bool truncate,
                                   std::unique_ptr<File>& out) = 0;
  // Reads the whole file into `out`.
  virtual IoStatus read_file(const std::string& path,
                             std::string& out) const = 0;
  // Reads at most `n` leading bytes (short files yield fewer).
  virtual IoStatus read_prefix(const std::string& path, std::size_t n,
                               std::string& out) const = 0;
  // Names (not paths) of the regular files directly inside `dir`.
  virtual IoStatus list_dir(const std::string& dir,
                            std::vector<std::string>& names) const = 0;
  virtual IoStatus create_dirs(const std::string& dir) = 0;
  virtual IoStatus rename_file(const std::string& from,
                               const std::string& to) = 0;
  virtual IoStatus remove_file(const std::string& path) = 0;
  virtual IoStatus resize_file(const std::string& path,
                               std::uint64_t size) = 0;
  virtual IoStatus file_size(const std::string& path,
                             std::uint64_t& out) const = 0;
  [[nodiscard]] virtual bool file_exists(const std::string& path) const = 0;
  // fsyncs the directory itself, making renames/creates inside it durable.
  virtual IoStatus sync_dir(const std::string& dir) = 0;

  // Convenience: create/truncate `path`, write `data`, optionally fsync,
  // close — reporting the first failure (model_io's save path).
  IoStatus write_file(const std::string& path, std::string_view data,
                      bool sync);
};

// Forwards everything to a wrapped Env; decorators override what they
// intercept (FaultEnv overrides all mutating paths).
class EnvWrapper : public Env {
 public:
  explicit EnvWrapper(Env& target) : target_(&target) {}
  Env& target() const { return *target_; }

  IoStatus new_append_file(const std::string& path, bool truncate,
                           std::unique_ptr<File>& out) override;
  IoStatus read_file(const std::string& path, std::string& out) const override;
  IoStatus read_prefix(const std::string& path, std::size_t n,
                       std::string& out) const override;
  IoStatus list_dir(const std::string& dir,
                    std::vector<std::string>& names) const override;
  IoStatus create_dirs(const std::string& dir) override;
  IoStatus rename_file(const std::string& from, const std::string& to) override;
  IoStatus remove_file(const std::string& path) override;
  IoStatus resize_file(const std::string& path, std::uint64_t size) override;
  IoStatus file_size(const std::string& path,
                     std::uint64_t& out) const override;
  [[nodiscard]] bool file_exists(const std::string& path) const override;
  IoStatus sync_dir(const std::string& dir) override;

 private:
  Env* target_;
};

}  // namespace hdd::io
