#include "io/fault_env.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hdd::io {

namespace {

// Key salts for the counter-based fault decisions: the decision for op k
// is a pure function of (seed, salt, k), never of wall time or call-site
// address — this is what makes a FaultPlan replayable bit for bit.
enum Salt : std::uint64_t {
  kTearLen = 1,
  kShortDraw = 2,
  kShortLen = 3,
  kWriteErrDraw = 4,
  kReadFlipDraw = 5,
  kReadFlipBit = 6,
};

}  // namespace

FaultPlan FaultPlan::random(std::uint64_t seed, std::uint64_t max_ops) {
  const CounterRng rng(hash_combine(seed, 0x5EEDFA17ULL));
  FaultPlan p;
  p.seed = seed;
  p.crash_at_op = 1 + rng.bits(1) % (max_ops > 0 ? max_ops : 1);
  p.torn_crash = rng.chance(0.7, 2);
  if (rng.chance(0.35, 3)) {
    p.fail_fsync_n = 1 + rng.bits(4) % 8;
    p.fsync_error = rng.chance(0.5, 5) ? ErrorClass::kTransient
                                       : ErrorClass::kPermanent;
  }
  if (rng.chance(0.25, 6)) {
    p.short_write_prob = 0.01 + 0.04 * rng.uniform(7);
  }
  if (rng.chance(0.25, 8)) {
    p.write_error_prob = 0.01 + 0.04 * rng.uniform(9);
  }
  if (rng.chance(0.2, 10)) {
    p.enospc_after_bytes = 2048 + rng.bits(11) % (64 * 1024);
  }
  return p;
}

std::uint64_t FaultEnv::State::tick(const char* what) {
  check_alive();
  const std::uint64_t op = ops.fetch_add(1) + 1;
  // Non-append ops crash before doing anything; appends handle their own
  // crash so a torn prefix can land first.
  if (op == plan.crash_at_op && std::string_view(what) != "append") {
    record_fault(op, std::string("crash before ") + what);
    crash(op);
  }
  return op;
}

void FaultEnv::State::record_fault(std::uint64_t op, const std::string& what) {
  faults.fetch_add(1);
  if (m_faults != nullptr) m_faults->inc();
  const MutexLock lock(&log_mutex);
  log.push_back("op " + std::to_string(op) + ": " + what);
}

void FaultEnv::State::crash(std::uint64_t op) {
  // First crash of this simulated process life flushes the flight
  // recorder: the 200-seed fault harness then has a span timeline next to
  // the store it tore.
  if (!crashed.exchange(true)) obs::dump_flight_recorder("crash-point");
  throw CrashPoint(op);
}

void FaultEnv::State::check_alive() const {
  if (crashed.load()) throw CrashPoint(plan.crash_at_op);
}

namespace {

// Wraps a base file, applying the plan's append/sync faults. A torn
// append hands its prefix to the base file, so the bytes on disk after a
// fault are a pure function of the plan and of the caller's writes.
class FaultFile final : public File {
 public:
  FaultFile(std::unique_ptr<File> base,
            std::shared_ptr<FaultEnv::State> state, std::string path)
      : base_(std::move(base)), state_(std::move(state)),
        path_(std::move(path)) {}

  IoStatus append(std::string_view data) override {
    const auto& plan = state_->plan;
    const std::uint64_t op = state_->tick("append");
    if (op == plan.crash_at_op) {
      if (plan.torn_crash && !data.empty()) {
        const std::size_t keep = static_cast<std::size_t>(
            state_->rng.bits(kTearLen, op) % data.size());
        // Best effort by design: the injected fault *is* the partial
        // landing; the base env's own status is irrelevant here.
        (void)base_->append(data.substr(0, keep));
        state_->record_fault(op, "crash tearing append to " + path_ +
                                     " at " + std::to_string(keep) + "/" +
                                     std::to_string(data.size()) + " bytes");
      } else {
        state_->record_fault(op, "crash dropping append to " + path_);
      }
      state_->crash(op);
    }
    const std::uint64_t written = state_->bytes_appended.load();
    if (written + data.size() > plan.enospc_after_bytes) {
      const std::size_t keep = plan.enospc_after_bytes > written
          ? static_cast<std::size_t>(plan.enospc_after_bytes - written)
          : 0;
      (void)base_->append(data.substr(0, keep));
      state_->bytes_appended.store(plan.enospc_after_bytes);
      state_->record_fault(op, "ENOSPC tearing append to " + path_ + " at " +
                                   std::to_string(keep) + "/" +
                                   std::to_string(data.size()) + " bytes");
      return IoStatus::permanent_error("write " + path_ +
                                           ": no space left on device",
                                       ENOSPC);
    }
    if (plan.write_error_prob > 0.0 &&
        state_->rng.chance(plan.write_error_prob, kWriteErrDraw, op)) {
      state_->record_fault(op, "transient write error on " + path_);
      return IoStatus::transient_error("write " + path_ +
                                           ": injected I/O error",
                                       EIO);
    }
    if (plan.short_write_prob > 0.0 && !data.empty() &&
        state_->rng.chance(plan.short_write_prob, kShortDraw, op)) {
      const std::size_t keep = static_cast<std::size_t>(
          state_->rng.bits(kShortLen, op) % data.size());
      (void)base_->append(data.substr(0, keep));
      state_->bytes_appended.fetch_add(keep);
      state_->record_fault(op, "short write to " + path_ + ": " +
                                   std::to_string(keep) + "/" +
                                   std::to_string(data.size()) + " bytes");
      return IoStatus::transient_error("write " + path_ +
                                           ": injected short write",
                                       EIO);
    }
    if (auto s = base_->append(data); !s.ok()) return s;
    state_->bytes_appended.fetch_add(data.size());
    return IoStatus::success();
  }

  IoStatus sync() override {
    const auto& plan = state_->plan;
    state_->tick("fsync");
    const std::uint64_t n = state_->fsyncs.fetch_add(1) + 1;
    if (plan.fail_fsync_n != FaultPlan::kNever && n == plan.fail_fsync_n) {
      // The appended bytes stay with the OS (this harness does not model
      // page-cache loss); only the durability barrier itself fails.
      state_->record_fault(n, "injected fsync failure (" +
                                  std::string(error_class_name(
                                      plan.fsync_error)) +
                                  ") on " + path_);
      IoStatus s;
      s.cls = plan.fsync_error;
      s.sys_errno = EIO;
      s.message = "fsync " + path_ + ": injected failure";
      return s;
    }
    return base_->sync();
  }

  IoStatus close() override {
    if (state_->crashed.load()) {
      // A dead process reports nothing on the way out.
      (void)base_->close();
      return IoStatus::success();
    }
    return base_->close();
  }

 private:
  std::unique_ptr<File> base_;
  std::shared_ptr<FaultEnv::State> state_;
  std::string path_;
};

}  // namespace

FaultEnv::FaultEnv(Env& base, FaultPlan plan, obs::Registry* metrics)
    : EnvWrapper(base), state_(std::make_shared<State>(plan)), plan_(plan) {
  obs::Registry& reg =
      metrics != nullptr ? *metrics : obs::Registry::global();
  state_->m_faults = &reg.counter("hdd_io_faults_injected_total",
                                  "Faults injected by a FaultEnv plan.");
}

std::vector<std::string> FaultEnv::fault_log() const {
  const MutexLock lock(&state_->log_mutex);
  return state_->log;
}

IoStatus FaultEnv::new_append_file(const std::string& path, bool truncate,
                                   std::unique_ptr<File>& out) {
  state_->tick("open");
  std::unique_ptr<File> base_file;
  if (auto s = EnvWrapper::new_append_file(path, truncate, base_file);
      !s.ok()) {
    return s;
  }
  out = std::make_unique<FaultFile>(std::move(base_file), state_, path);
  return IoStatus::success();
}

IoStatus FaultEnv::read_file(const std::string& path, std::string& out) const {
  state_->check_alive();
  if (auto s = EnvWrapper::read_file(path, out); !s.ok()) return s;
  maybe_flip(path, out);
  return IoStatus::success();
}

IoStatus FaultEnv::read_prefix(const std::string& path, std::size_t n,
                               std::string& out) const {
  state_->check_alive();
  if (auto s = EnvWrapper::read_prefix(path, n, out); !s.ok()) return s;
  maybe_flip(path, out);
  return IoStatus::success();
}

void FaultEnv::maybe_flip(const std::string& path, std::string& data) const {
  const auto& plan = state_->plan;
  if (plan.read_flip_prob <= 0.0 || data.empty()) return;
  const std::uint64_t read_idx = state_->reads.fetch_add(1) + 1;
  if (!state_->rng.chance(plan.read_flip_prob, kReadFlipDraw, read_idx)) {
    return;
  }
  const std::uint64_t bit =
      state_->rng.bits(kReadFlipBit, read_idx) % (8 * data.size());
  data[bit / 8] = static_cast<char>(
      static_cast<unsigned char>(data[bit / 8]) ^ (1u << (bit % 8)));
  state_->record_fault(read_idx, "bit flip in read of " + path + " (bit " +
                                     std::to_string(bit) + ")");
}

IoStatus FaultEnv::create_dirs(const std::string& dir) {
  state_->tick("mkdir");
  return EnvWrapper::create_dirs(dir);
}

IoStatus FaultEnv::rename_file(const std::string& from, const std::string& to) {
  state_->tick("rename");
  return EnvWrapper::rename_file(from, to);
}

IoStatus FaultEnv::remove_file(const std::string& path) {
  state_->tick("remove");
  return EnvWrapper::remove_file(path);
}

IoStatus FaultEnv::resize_file(const std::string& path, std::uint64_t size) {
  state_->tick("resize");
  return EnvWrapper::resize_file(path, size);
}

IoStatus FaultEnv::sync_dir(const std::string& dir) {
  state_->tick("syncdir");
  return EnvWrapper::sync_dir(dir);
}

}  // namespace hdd::io
