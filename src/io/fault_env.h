// FaultEnv — deterministic fault injection behind the Env seam.
//
// A FaultPlan is a seeded, pure-function schedule of faults: the decision
// at mutating operation k is CounterRng(seed).uniform(k, salt), so the
// same plan over the same operation sequence injects byte-identical
// faults — run a scenario twice and the fault log, the recovery taxonomy
// and the post-resume alarms all match (the `fault` ctest label asserts
// exactly this).
//
// Injectable faults:
//   * fail the Nth fsync (transient or permanent),
//   * ENOSPC once cumulative appended bytes cross a budget (the in-flight
//     append is torn at the budget boundary, like a real full disk),
//   * probabilistic short writes (a prefix lands, the rest is lost,
//     transient error reported),
//   * probabilistic transient write errors (nothing lands),
//   * read bit-flips (the read "succeeds", one bit is wrong — the store's
//     CRC taxonomy must catch it),
//   * a crash point: mutating op N throws CrashPoint ("stop the world
//     here"), optionally tearing the in-flight append first. After the
//     crash every subsequent operation throws too, and open files are
//     abandoned, like a kill -9: bytes the caller still held in its own
//     buffers never reach the file.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "io/env.h"

namespace hdd::obs {
class Counter;
class Registry;
}  // namespace hdd::obs

namespace hdd::io {

struct FaultPlan {
  static constexpr std::uint64_t kNever = 0;
  static constexpr std::uint64_t kNoBudget =
      std::numeric_limits<std::uint64_t>::max();

  std::uint64_t seed = 0;

  // Fail the Nth fsync (1-based); kNever disables.
  std::uint64_t fail_fsync_n = kNever;
  ErrorClass fsync_error = ErrorClass::kTransient;

  // Inject ENOSPC once this many appended bytes have been written; the
  // append that crosses the budget lands only its in-budget prefix.
  std::uint64_t enospc_after_bytes = kNoBudget;

  // Per-append probability that only a prefix lands (transient error).
  double short_write_prob = 0.0;
  // Per-append probability of a transient write error (nothing lands).
  double write_error_prob = 0.0;
  // Per-read probability of flipping one bit of the returned data.
  double read_flip_prob = 0.0;

  // Crash (throw CrashPoint) on the Nth mutating op (1-based); kNever
  // disables. When the op is an append and torn_crash is set, a seeded
  // prefix of the in-flight data reaches the file first.
  std::uint64_t crash_at_op = kNever;
  bool torn_crash = true;

  // A randomized schedule for the property harness: mixes a crash point
  // with occasional fsync failures, short writes and read flips, all
  // derived from the seed.
  static FaultPlan random(std::uint64_t seed, std::uint64_t max_ops);
};

class FaultEnv final : public EnvWrapper {
 public:
  // nullptr metrics = obs::Registry::global(). The registry must outlive
  // the env; so must `base`.
  FaultEnv(Env& base, FaultPlan plan, obs::Registry* metrics = nullptr);

  const FaultPlan& plan() const { return plan_; }

  // Mutating operations observed so far (the crash clock).
  std::uint64_t ops() const { return state_->ops.load(); }
  std::uint64_t faults_injected() const { return state_->faults.load(); }
  bool crashed() const { return state_->crashed.load(); }
  // Deterministic record of every injected fault, in op order — the
  // reproducibility acceptance artifact ("same seed, same sequence").
  std::vector<std::string> fault_log() const;

  IoStatus new_append_file(const std::string& path, bool truncate,
                           std::unique_ptr<File>& out) override;
  IoStatus read_file(const std::string& path, std::string& out) const override;
  IoStatus read_prefix(const std::string& path, std::size_t n,
                       std::string& out) const override;
  IoStatus create_dirs(const std::string& dir) override;
  IoStatus rename_file(const std::string& from, const std::string& to) override;
  IoStatus remove_file(const std::string& path) override;
  IoStatus resize_file(const std::string& path, std::uint64_t size) override;
  IoStatus sync_dir(const std::string& dir) override;

  // Shared by the env and every file it opened; files outliving the env
  // (store teardown order) keep the state alive. Public so the FaultFile
  // implementation (internal to fault_env.cpp) can drive it.
  struct State {
    FaultPlan plan;
    CounterRng rng;
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> bytes_appended{0};
    std::atomic<std::uint64_t> fsyncs{0};
    std::atomic<std::uint64_t> faults{0};
    std::atomic<std::uint64_t> reads{0};
    std::atomic<bool> crashed{false};
    obs::Counter* m_faults = nullptr;
    mutable Mutex log_mutex{lock_order::Rank::kFaultLog, "fault-log"};
    std::vector<std::string> log HDD_GUARDED_BY(log_mutex);

    explicit State(FaultPlan p) : plan(p), rng(p.seed) {}

    // Advances the op clock, firing the crash point when due. Returns the
    // op index (1-based).
    std::uint64_t tick(const char* what);
    void record_fault(std::uint64_t op, const std::string& what);
    [[noreturn]] void crash(std::uint64_t op);
    void check_alive() const;
  };

 private:
  void maybe_flip(const std::string& path, std::string& data) const;

  std::shared_ptr<State> state_;
  FaultPlan plan_;
};

}  // namespace hdd::io
