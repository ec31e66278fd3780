// Runtime lock-rank checker — the dynamic half of the concurrency contract.
//
// Clang's -Wthread-safety (common/thread_annotations.h) proves which lock
// guards which field, but only under clang, and it cannot see cross-lock
// *ordering*. This checker covers that blind spot at runtime for every
// build (GCC, sanitizer configs): each capability declares a Rank, a
// thread must only acquire locks in strictly increasing rank order, and a
// violation — out-of-order, same-rank nesting, or re-entrant acquisition —
// prints both acquisition stacks and aborts. Deadlocks that TSan needs a
// lucky interleaving to catch become deterministic failures on the first
// mis-ordered acquisition, even when no second thread is running.
//
// The rank table IS the documented lock hierarchy of the whole system
// (DESIGN.md §11): a thread walks it left to right and never backwards.
// Gaps between values leave room for future locks.
//
// Cost: disabled (the default in plain builds), each lock/unlock pays one
// relaxed atomic load and a branch. Enabled (sanitizer/debug configs — the
// CMake option HDD_LOCK_ORDER, any HDD_SANITIZE build, or the environment
// variable HDD_LOCK_ORDER=1), each acquisition additionally records a
// small backtrace so the abort can show where the conflicting lock was
// taken.
#pragma once

#include <atomic>

namespace hdd::lock_order {

// The global acquisition order, ascending: a thread holding rank R may
// only acquire ranks strictly greater than R. Equal ranks never nest.
enum class Rank : int {
  kServeStop = 10,        // serve::Server::stop_mu_ (outermost: shutdown)
  kRetrainStop = 12,      // serve::RetrainLoop::stop_mu_
  kServeConns = 20,       // serve::Server::conn_mu_ (fd/thread registry)
  kShardQueue = 30,       // serve::Server::ShardWorker::mu (task queues)
  kPoolQueue = 40,        // hdd::ThreadPool::mutex_ (task queue)
  kServeCompletion = 50,  // serve fan-out Completion latches
  kObsRegistry = 60,      // obs::Registry::mutex_ (instrument registration)
  kFaultLog = 70,         // io::FaultEnv::State::log_mutex (fault log)
  kLog = 80,              // common/log.h sink mutex (leaf: logging happens
                          // under any of the above)
  kRcuSpin = 90,          // core::RcuSlot spinlock (terminal leaf: nothing
                          // may be acquired while spinning)
};

// Rank name for diagnostics ("serve-stop", "rcu-spin", ...).
const char* rank_name(Rank r);

namespace detail {
extern std::atomic<bool> g_enabled;
// Validate + record / unrecord one acquisition on this thread's stack.
// acquire_slow aborts (after printing both stacks) on a rank violation.
void acquire_slow(Rank r, const void* lock, const char* name);
void release_slow(Rank r, const void* lock, const char* name);
}  // namespace detail

// Whether the checker is active. Defaults to on when compiled with
// HDD_LOCK_ORDER_CHECKS (sanitizer configs / -DHDD_LOCK_ORDER=ON),
// overridable either way by the environment variable HDD_LOCK_ORDER=0|1.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

// Runtime switch (tests flip it on in plain builds, and off to restore).
// Only toggle while the process is single-threaded or quiescent: per-thread
// held-lock stacks are not rebuilt retroactively.
void set_enabled(bool on);

// Capability hooks: call acquire just before taking the lock (so a real
// inversion aborts instead of deadlocking) and release just before
// dropping it. Both are no-ops while the checker is disabled.
inline void note_acquire(Rank r, const void* lock, const char* name) {
  if (enabled()) detail::acquire_slow(r, lock, name);
}
inline void note_release(Rank r, const void* lock, const char* name) {
  if (enabled()) detail::release_slow(r, lock, name);
}

// Locks this thread currently holds, per the checker's bookkeeping
// (0 when disabled) — lets tests assert the stack drains cleanly.
int held_count();

}  // namespace hdd::lock_order
