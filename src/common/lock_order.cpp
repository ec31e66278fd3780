#include "common/lock_order.h"

#include <execinfo.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/trace.h"

namespace hdd::lock_order {

namespace {

// Frames recorded per held lock so a violation can show where the
// conflicting lock was acquired. Small on purpose: capture runs on every
// enabled acquisition.
constexpr int kStackDepth = 16;
// Deepest legal nesting. The real hierarchy is ~4 deep; hitting this cap
// is itself a discipline violation and aborts.
constexpr int kMaxHeld = 16;

struct HeldLock {
  int rank = 0;
  const void* lock = nullptr;
  const char* name = nullptr;
  void* stack[kStackDepth];
  int depth = 0;
};

struct ThreadState {
  HeldLock held[kMaxHeld];
  int n = 0;
};

thread_local ThreadState t_state;

bool env_default() {
  const char* env = std::getenv("HDD_LOCK_ORDER");
  if (env != nullptr && env[0] != '\0') {
    return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0);
  }
#ifdef HDD_LOCK_ORDER_CHECKS
  return true;
#else
  return false;
#endif
}

void print_stack(const char* label, void* const* stack, int depth) {
  std::fprintf(stderr, "%s\n", label);
  // Async-signal-unsafe allocation is fine here: we are about to abort, and
  // the checker never runs inside a signal handler.
  backtrace_symbols_fd(const_cast<void* const*>(stack), depth, STDERR_FILENO);
}

[[noreturn]] void violation(const char* kind, const HeldLock* blocker,
                            int rank, const char* name) {
  std::fprintf(stderr,
               "lock-rank violation (%s): acquiring \"%s\" (rank %d) while "
               "holding \"%s\" (rank %d)\n",
               kind, name, rank, blocker != nullptr ? blocker->name : "?",
               blocker != nullptr ? blocker->rank : -1);
  if (blocker != nullptr && blocker->depth > 0) {
    print_stack("  held lock was acquired at:", blocker->stack,
                blocker->depth);
  }
  void* here[kStackDepth * 2];
  const int depth = backtrace(here, kStackDepth * 2);
  print_stack("  violating acquisition at:", here, depth);
  std::fflush(stderr);
  // Leave a timeline behind: the rank violation usually implicates a
  // specific request/retrain interleaving that the stacks alone can't show.
  obs::dump_flight_recorder("lock-rank-abort");
  std::abort();
}

}  // namespace

const char* rank_name(Rank r) {
  switch (r) {
    case Rank::kServeStop: return "serve-stop";
    case Rank::kRetrainStop: return "retrain-stop";
    case Rank::kServeConns: return "serve-conns";
    case Rank::kShardQueue: return "shard-queue";
    case Rank::kPoolQueue: return "pool-queue";
    case Rank::kServeCompletion: return "serve-completion";
    case Rank::kObsRegistry: return "obs-registry";
    case Rank::kFaultLog: return "fault-log";
    case Rank::kLog: return "log";
    case Rank::kRcuSpin: return "rcu-spin";
  }
  return "?";
}

namespace detail {

std::atomic<bool> g_enabled{env_default()};

void acquire_slow(Rank r, const void* lock, const char* name) {
  ThreadState& st = t_state;
  const int rank = static_cast<int>(r);
  const HeldLock* worst = nullptr;
  for (int i = 0; i < st.n; ++i) {
    if (st.held[i].lock == lock) {
      violation("re-entrant", &st.held[i], rank, name);
    }
    if (st.held[i].rank >= rank &&
        (worst == nullptr || st.held[i].rank > worst->rank)) {
      worst = &st.held[i];
    }
  }
  if (worst != nullptr) {
    violation(worst->rank == rank ? "same-rank nesting" : "out-of-order",
              worst, rank, name);
  }
  if (st.n >= kMaxHeld) {
    violation("nesting too deep", st.n > 0 ? &st.held[st.n - 1] : nullptr,
              rank, name);
  }
  HeldLock& h = st.held[st.n++];
  h.rank = rank;
  h.lock = lock;
  h.name = name;
  h.depth = backtrace(h.stack, kStackDepth);
}

void release_slow(Rank r, const void* lock, const char* name) {
  (void)r;
  ThreadState& st = t_state;
  // Releases are usually LIFO; search from the top for the odd
  // out-of-order unlock (std::unique_lock-style usage).
  for (int i = st.n - 1; i >= 0; --i) {
    if (st.held[i].lock != lock) continue;
    for (int j = i; j + 1 < st.n; ++j) st.held[j] = st.held[j + 1];
    --st.n;
    return;
  }
  // Releasing a lock the checker never saw acquired: the checker was
  // enabled mid-critical-section (tests toggling the flag). Tolerated —
  // aborting here would make set_enabled unusable.
  (void)name;
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

int held_count() { return t_state.n; }

}  // namespace hdd::lock_order
