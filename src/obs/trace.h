// Span tracing — the per-request complement to the aggregate metrics in
// obs/metrics.h, and an always-on flight recorder.
//
// The registry's counters and histograms say *that* p99 ingest latency
// spiked; spans say *where one request spent it* — queue wait vs. journal
// fsync vs. scoring. Every span carries {trace_id, span_id, parent_id,
// name, start, duration, thread, one optional integer arg}; a request's
// spans share a trace_id that survives the wire protocol (serve/wire.h
// appends it as an optional trailing frame field), so the tree
// accept → parse → queue → score → append → fsync → respond reconstructs
// from the daemon's rings alone.
//
// Design constraints (and how they are met):
//  * Hot-path cost: recording a span is a bump-pointer write of one slot
//    in a lock-free per-thread ring — no locks, no allocation, no
//    syscalls. Timestamps are raw TSC ticks on x86 (converted to
//    nanoseconds only at snapshot time); the budget is <= ~25 ns per
//    enabled span and <= ~2 ns (one relaxed flag load) disabled, measured
//    by BM_Span* in bench/micro_obs.cpp exactly like the PR 4 instrument
//    budget.
//  * TSan-clean: every slot field is a relaxed std::atomic, and every slot
//    (thread ring or slow ring) is a seqlock: a writer marks the slot busy
//    before it stores the fields and publishes the slot's index after, and
//    a reader keeps a copy only when the index reads the same before and
//    after it. Torn slots are therefore logically discarded, never
//    undefined behavior.
//  * Always on: the rings are a flight recorder. dump_flight_recorder()
//    writes them as Chrome trace_event JSON using only async-signal-safe
//    calls (no malloc, no locks), so a fatal signal, a lock-rank abort or
//    an io::CrashPoint leaves <dir>/flight-<pid>.json behind for
//    post-mortem timelines.
//  * Bounded retention: each thread keeps the newest kRingSlots spans.
//    Spans slower than the Tracer's slow threshold are additionally
//    copied to a shared tail-sampling ring (plus a 1-in-N sample of fast
//    spans), so a slow request survives long after steady-state traffic
//    has lapped its thread ring.
//
// Span context is a thread_local {trace_id, span_id}: ScopedSpan makes
// its span the current parent for its scope, WithTraceContext carries a
// captured context onto another thread (shard workers), and
// current_trace_context() is what the wire client sends. Span names and
// arg names MUST be string literals (the rings store the pointers).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define HDD_TRACE_TSC 1
#endif

namespace hdd::obs {

// The ambient trace position of the current thread: which trace we are
// in (0 = none) and which span is the parent of anything recorded next.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

namespace trace_detail {

// Per-thread ring capacity (power of two). 4096 slots x 80 B = 320 KiB
// per recording thread, ~0.4 s of history at 10k spans/s.
inline constexpr std::size_t kRingSlots = 4096;
// Threads that can ever record (rings are registered once and never
// freed, so the flight dump can walk them from a signal handler).
inline constexpr std::size_t kMaxThreads = 256;
// Shared tail-sampling ring for slow (and 1-in-N sampled) spans (power of
// two).
inline constexpr std::size_t kSlowSlots = 1024;

// One recorded span. Every field is a relaxed atomic so a snapshot racing
// the writer reads stale-or-new values, never UB; `seq` is the slot's
// seqlock word: ring index + 1 once the fields hold that index's span,
// kSlotBusy while a writer is filling them, 0 before the first write.
inline constexpr std::uint64_t kSlotBusy = ~0ull;
struct SpanSlot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> trace_id{0};
  std::atomic<std::uint64_t> span_id{0};
  std::atomic<std::uint64_t> parent_id{0};
  std::atomic<std::uint64_t> start_ticks{0};
  std::atomic<std::uint64_t> end_ticks{0};
  std::atomic<std::uint64_t> arg{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<const char*> arg_name{nullptr};
  std::atomic<std::uint32_t> tid{0};  // the recording thread's ring index
};

struct ThreadRing {
  // Next slot index to write; slots [head - kRingSlots, head) hold the
  // newest spans. Only the owning thread writes it; readers use it to
  // bound their walk (each slot's seq validates its own copy).
  std::atomic<std::uint64_t> head{0};
  std::uint32_t index = 0;       // position in the global ring table
  std::uint64_t next_span = 0;   // per-thread span/trace id counter
  std::uint32_t sample_clock = 0;  // 1-in-N fast-span sampling state
  SpanSlot slots[kRingSlots];
};

extern std::atomic<bool> g_enabled;
// Slow-span threshold in ticks; ~0 (all bits set) = slow log off.
extern std::atomic<std::uint64_t> g_slow_ticks;
// Inline definitions (not extern): constant-initialized in every TU, so
// access is a direct TLS load with no TLS-init wrapper call on the hot
// path (gcc's wrapper for extern thread_local also trips UBSan's null
// check on fresh threads).
inline thread_local TraceContext t_context;
inline thread_local ThreadRing* t_ring = nullptr;

// Registers (once per thread) and returns this thread's ring; nullptr
// when more than kMaxThreads threads ever recorded (spans then drop).
ThreadRing* register_ring();

inline ThreadRing* ring() {
  ThreadRing* r = t_ring;
  return r != nullptr ? r : register_ring();
}

inline std::uint64_t now_ticks() {
#ifdef HDD_TRACE_TSC
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

// Slot write against an already-resolved ring (nullptr = drop). The
// ScopedSpan fast path resolves its thread's ring once in begin() and
// reuses it in end(), saving repeated thread-local lookups.
void record_span_on(ThreadRing* r, const char* name, std::uint64_t trace_id,
                    std::uint64_t span_id, std::uint64_t parent_id,
                    std::uint64_t start_ticks, std::uint64_t end_ticks,
                    const char* arg_name, std::uint64_t arg);

// Process-unique, never-zero span/trace id: ring index in the high bits,
// a per-thread counter below. Threads past kMaxThreads fall back to a
// global counter.
std::uint64_t overflow_id();

inline std::uint64_t next_id() {
  ThreadRing* r = ring();
  if (r == nullptr) return overflow_id();
  return (static_cast<std::uint64_t>(r->index) + 1) << 40 | ++r->next_span;
}

}  // namespace trace_detail

// Whether spans record at all. One relaxed load — this is the entire
// disabled-path cost.
inline bool trace_enabled() {
  return trace_detail::g_enabled.load(std::memory_order_relaxed);
}

inline TraceContext current_trace_context() { return trace_detail::t_context; }
inline void set_current_trace_context(TraceContext ctx) {
  trace_detail::t_context = ctx;
}
// The current trace id, 0 outside any span — what common/log.h stamps
// onto JSON log lines so logs correlate with traces.
inline std::uint64_t current_trace_id() {
  return trace_detail::t_context.trace_id;
}

// A fresh trace id (for roots created explicitly, e.g. a retrain cycle).
inline std::uint64_t new_trace_id() { return trace_detail::next_id(); }

// Raw timestamp for explicit-interval spans (queue-wait: captured at
// enqueue on one thread, recorded at dequeue on another). Ticks are
// process-wide comparable (TSC on x86, steady_clock ns elsewhere).
inline std::uint64_t trace_now_ticks() { return trace_detail::now_ticks(); }

// Tick interval -> nanoseconds (lazily calibrated against steady_clock).
double trace_ticks_to_ns(std::uint64_t dticks);

// Records one complete span with every field explicit. `name`/`arg_name`
// must be string literals.
void record_span(const char* name, std::uint64_t trace_id,
                 std::uint64_t span_id, std::uint64_t parent_id,
                 std::uint64_t start_ticks, std::uint64_t end_ticks,
                 const char* arg_name = nullptr, std::uint64_t arg = 0);

// Records [start_ticks, end_ticks) as a child of the current context.
// No-op when tracing is disabled or the thread is outside any trace —
// unlike ScopedSpan it never starts a new trace, so it is safe on paths
// that run with and without an ambient request (queue waits, retries).
void record_child_span(const char* name, std::uint64_t start_ticks,
                       std::uint64_t end_ticks,
                       const char* arg_name = nullptr, std::uint64_t arg = 0);

// RAII span: child of the current context, or the root of a new trace
// when there is none (trace_id taken from the context's trace_id slot if
// pre-seeded via WithTraceContext). Makes itself the current parent for
// its scope and restores the previous context on destruction.
//
// It is also the one scoped timer: given an enabled histogram, the span
// records its scope's duration there in nanoseconds (from the same two
// tick reads), whether or not tracing is on. With tracing off and no
// histogram the constructor is one relaxed load and a pointer test (a
// disabled histogram adds its registry flag load), and no clock is read.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* arg_name = nullptr,
                      std::uint64_t arg = 0)
      : ScopedSpan(name, static_cast<Histogram*>(nullptr), arg_name, arg) {}
  ScopedSpan(const char* name, Histogram* hist,
             const char* arg_name = nullptr, std::uint64_t arg = 0)
      : hist_(hist != nullptr && hist->enabled() ? hist : nullptr) {
    if (trace_enabled()) {
      begin(name, trace_detail::now_ticks(), arg_name, arg);
    } else if (hist_ != nullptr) {
      start_ = trace_detail::now_ticks();
    }
  }
  // Explicit start for intervals that began before the span object could
  // be constructed (e.g. the request root starting at first frame byte).
  ScopedSpan(const char* name, std::uint64_t start_ticks,
             const char* arg_name, std::uint64_t arg) {
    if (!trace_enabled()) return;
    begin(name, start_ticks, arg_name, arg);
  }
  ~ScopedSpan() {
    if (name_ != nullptr || hist_ != nullptr) end();
  }

  // Attaches/overwrites the span's single integer argument mid-scope.
  void set_arg(const char* arg_name, std::uint64_t arg) {
    arg_name_ = arg_name;
    arg_ = arg;
  }

  bool active() const { return name_ != nullptr; }
  std::uint64_t span_id() const { return active() ? span_id_ : 0; }
  std::uint64_t trace_id() const { return active() ? trace_id_ : 0; }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void begin(const char* name, std::uint64_t start_ticks,
             const char* arg_name, std::uint64_t arg);
  void end();

  // Only name_ and hist_ are set on the disabled path (DESIGN.md §7
  // budgets it at ~2 ns); begin() sets the span fields, and start_ is set
  // whenever either pointer is.
  const char* name_ = nullptr;
  Histogram* hist_ = nullptr;  // enabled histogram to time into, if any
  const char* arg_name_;
  std::uint64_t arg_;
  std::uint64_t start_;
  std::uint64_t trace_id_;
  std::uint64_t span_id_;
  trace_detail::ThreadRing* ring_;  // resolved once in begin()
  // The context begin() replaced, restored by end(); its span is our
  // parent. Two words rather than a TraceContext, whose initializers
  // would cost the disabled path two stores.
  std::uint64_t saved_trace_;
  std::uint64_t saved_span_;
};

// Installs a captured context as current for a scope — how a trace
// crosses threads (connection thread -> shard worker) or is reset to
// "none" ({} starts spans as fresh roots).
class WithTraceContext {
 public:
  explicit WithTraceContext(TraceContext ctx)
      : saved_(current_trace_context()) {
    set_current_trace_context(ctx);
  }
  ~WithTraceContext() { set_current_trace_context(saved_); }

  WithTraceContext(const WithTraceContext&) = delete;
  WithTraceContext& operator=(const WithTraceContext&) = delete;

 private:
  TraceContext saved_;
};

// Decoupled copy of one span, timestamps already in nanoseconds (epoch:
// process calibration base — only differences are meaningful).
struct SpanView {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t arg = 0;
  const char* name = nullptr;
  const char* arg_name = nullptr;
  std::uint32_t tid = 0;
  bool slow = false;  // came from the tail-sampling slow ring
};

// Process-wide tracer control + snapshot/rendering. Recording itself goes
// through the free functions above; this object owns the knobs.
class Tracer {
 public:
  static Tracer& global();

  bool enabled() const { return trace_enabled(); }
  void set_enabled(bool on) {
    trace_detail::g_enabled.store(on, std::memory_order_relaxed);
  }

  // Spans with duration >= ns always also land in the shared slow ring;
  // other spans land there 1 in slow_sample_every() times. 0 disables the
  // slow log entirely (the default).
  void set_slow_threshold_ns(std::uint64_t ns);
  std::uint64_t slow_threshold_ns() const;
  void set_slow_sample_every(std::uint32_t n) {
    sample_every_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  }
  std::uint32_t slow_sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  // Directory for crash dumps; "" (the default) disables them. The path
  // is copied into a fixed buffer so the signal-handler path needs no
  // allocation.
  void set_flight_dir(const std::string& dir);

  // Spans ending within the last window_ms (0 = everything recorded),
  // thread rings and slow ring merged and de-duplicated by span id.
  std::vector<SpanView> snapshot(std::uint64_t window_ms) const;

  // The same window rendered as Chrome/Perfetto trace_event JSON
  // ({"traceEvents":[{"ph":"X",...}]}) — what GET /debug/trace serves.
  std::string render_chrome_json(std::uint64_t window_ms) const;

  // Spans dropped because more than kMaxThreads threads recorded, plus
  // slow-ring copies dropped because another writer held their slot.
  std::uint64_t dropped() const;

 private:
  Tracer() = default;
  std::atomic<std::uint32_t> sample_every_{1024};
};

// Writes every ring to <flight_dir>/flight-<pid>.json as trace_event
// JSON, one object per retained slot (a span can appear twice: from its
// thread ring and, with "slow":1, from the slow ring), formatted exactly
// as render_chrome_json() formats it. Async-signal-safe (snprintf of
// integers + write(2) only); no-op when no flight dir is set. `reason`
// lands in the JSON ("crash-point", "lock-rank", a signal name).
void dump_flight_recorder(const char* reason);

// Installs SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT handlers that dump the
// flight recorder, restore the default disposition and re-raise.
void install_flight_signal_handlers();

}  // namespace hdd::obs
