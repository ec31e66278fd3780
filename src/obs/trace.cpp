#include "obs/trace.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <unordered_set>

namespace hdd::obs {
namespace trace_detail {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_slow_ticks{~0ull};

namespace {

// Tick <-> nanosecond calibration. On x86 the rings store raw TSC values;
// a one-time ~200 us spin against steady_clock measures the tick rate so
// snapshots can convert. Elsewhere now_ticks() already returns
// steady_clock nanoseconds and the rate is exactly 1.
struct Calibration {
  std::atomic<bool> ready{false};
  std::uint64_t base_ticks = 0;
  std::uint64_t base_ns = 0;
  double ns_per_tick = 1.0;
};
Calibration g_calib;
std::once_flag g_calib_once;

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void ensure_calibrated() {
  std::call_once(g_calib_once, [] {
#ifdef HDD_TRACE_TSC
    const std::uint64_t ns0 = steady_ns();
    const std::uint64_t t0 = __rdtsc();
    std::uint64_t ns1 = ns0;
    while (ns1 - ns0 < 200'000) ns1 = steady_ns();
    const std::uint64_t t1 = __rdtsc();
    g_calib.base_ticks = t0;
    g_calib.base_ns = ns0;
    g_calib.ns_per_tick =
        t1 > t0 ? static_cast<double>(ns1 - ns0) / static_cast<double>(t1 - t0)
                : 1.0;
#else
    g_calib.base_ticks = steady_ns();
    g_calib.base_ns = g_calib.base_ticks;
    g_calib.ns_per_tick = 1.0;
#endif
    g_calib.ready.store(true, std::memory_order_release);
  });
}

// Nanoseconds the requested slow threshold was set with (for read-back).
std::atomic<std::uint64_t> g_slow_ns{0};

// Global ring table: slot i owned by the i-th thread that ever recorded.
// Registered once, never freed, so the signal-handler dump can walk it.
std::atomic<ThreadRing*> g_rings[kMaxThreads] = {};
std::atomic<std::uint32_t> g_ring_count{0};
std::atomic<std::uint64_t> g_dropped{0};
thread_local bool t_overflowed = false;

// Shared multi-writer tail-sampling ring. Writers claim an index with
// fetch_add on `head`, then claim the index's slot in record_span_on.
struct SlowRing {
  std::atomic<std::uint64_t> head{0};
  SpanSlot slots[kSlowSlots];
};
SlowRing g_slow;

}  // namespace

ThreadRing* register_ring() {
  if (t_overflowed) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  ensure_calibrated();
  const std::uint32_t i = g_ring_count.fetch_add(1, std::memory_order_relaxed);
  if (i >= kMaxThreads) {
    t_overflowed = true;
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  auto* r = new ThreadRing();  // intentionally leaked: flight recorder
  r->index = i;
  t_ring = r;
  g_rings[i].store(r, std::memory_order_release);
  return r;
}

std::uint64_t overflow_id() {
  static std::atomic<std::uint64_t> counter{0};
  return (static_cast<std::uint64_t>(kMaxThreads) + 1) << 40 |
         (counter.fetch_add(1, std::memory_order_relaxed) + 1);
}

}  // namespace trace_detail

namespace {

using trace_detail::g_calib;
using trace_detail::kRingSlots;
using trace_detail::kSlowSlots;
using trace_detail::SpanSlot;
using trace_detail::ThreadRing;

double ns_per_tick() {
  return g_calib.ready.load(std::memory_order_acquire) ? g_calib.ns_per_tick
                                                       : 1.0;
}

std::uint64_t ticks_to_abs_ns(std::uint64_t t) {
  if (!g_calib.ready.load(std::memory_order_acquire)) return t;
  if (t <= g_calib.base_ticks) return g_calib.base_ns;
  return g_calib.base_ns +
         static_cast<std::uint64_t>(
             static_cast<double>(t - g_calib.base_ticks) *
             g_calib.ns_per_tick);
}

}  // namespace

double trace_ticks_to_ns(std::uint64_t dticks) {
  // Every ScopedSpan with a histogram lands here: skip call_once's
  // bookkeeping once the calibration is published.
  if (!g_calib.ready.load(std::memory_order_acquire)) {
    trace_detail::ensure_calibrated();
  }
  return static_cast<double>(dticks) * g_calib.ns_per_tick;
}

namespace trace_detail {

void record_span_on(ThreadRing* r, const char* name, std::uint64_t trace_id,
                    std::uint64_t span_id, std::uint64_t parent_id,
                    std::uint64_t start_ticks, std::uint64_t end_ticks,
                    const char* arg_name, std::uint64_t arg) {
  if (r == nullptr) return;  // > kMaxThreads threads; counted as dropped
  // The writer half of the slot seqlock: the caller has marked `s` busy;
  // the fence orders that mark before every field store, and the release
  // store of idx + 1 publishes the fields.
  auto fill = [&](SpanSlot& s, std::uint64_t idx) {
    std::atomic_thread_fence(std::memory_order_release);
    s.trace_id.store(trace_id, std::memory_order_relaxed);
    s.span_id.store(span_id, std::memory_order_relaxed);
    s.parent_id.store(parent_id, std::memory_order_relaxed);
    s.start_ticks.store(start_ticks, std::memory_order_relaxed);
    s.end_ticks.store(end_ticks, std::memory_order_relaxed);
    s.arg.store(arg, std::memory_order_relaxed);
    s.name.store(name, std::memory_order_relaxed);
    s.arg_name.store(arg_name, std::memory_order_relaxed);
    s.tid.store(r->index, std::memory_order_relaxed);
    s.seq.store(idx + 1, std::memory_order_release);
  };
  const std::uint64_t h = r->head.load(std::memory_order_relaxed);
  SpanSlot& s = r->slots[h & (kRingSlots - 1)];
  s.seq.store(kSlotBusy, std::memory_order_relaxed);  // sole writer
  fill(s, h);
  r->head.store(h + 1, std::memory_order_release);

  const std::uint64_t slow = g_slow_ticks.load(std::memory_order_relaxed);
  if (slow == ~0ull) return;  // slow log off
  if (end_ticks - start_ticks < slow) {
    if (++r->sample_clock < Tracer::global().slow_sample_every()) return;
    r->sample_clock = 0;  // a sampled fast span
  }
  // Writers that lap onto one slow slot race for it: the slot goes to
  // whoever marks it busy first, and is never rewound to an older index.
  // The loser's copy is dropped and counted.
  const std::uint64_t sh = g_slow.head.fetch_add(1, std::memory_order_relaxed);
  SpanSlot& ss = g_slow.slots[sh & (kSlowSlots - 1)];
  std::uint64_t cur = ss.seq.load(std::memory_order_relaxed);
  if (cur > sh || !ss.seq.compare_exchange_strong(
                      cur, kSlotBusy, std::memory_order_relaxed)) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  fill(ss, sh);
}

}  // namespace trace_detail

void record_span(const char* name, std::uint64_t trace_id,
                 std::uint64_t span_id, std::uint64_t parent_id,
                 std::uint64_t start_ticks, std::uint64_t end_ticks,
                 const char* arg_name, std::uint64_t arg) {
  trace_detail::record_span_on(trace_detail::ring(), name, trace_id,
                               span_id, parent_id, start_ticks, end_ticks,
                               arg_name, arg);
}

void record_child_span(const char* name, std::uint64_t start_ticks,
                       std::uint64_t end_ticks, const char* arg_name,
                       std::uint64_t arg) {
  if (!trace_enabled()) return;
  const TraceContext ctx = trace_detail::t_context;
  if (ctx.trace_id == 0) return;  // outside any trace: stay silent
  record_span(name, ctx.trace_id, trace_detail::next_id(), ctx.span_id,
              start_ticks, end_ticks, arg_name, arg);
}

void ScopedSpan::begin(const char* name, std::uint64_t start_ticks,
                       const char* arg_name, std::uint64_t arg) {
  name_ = name;
  arg_name_ = arg_name;
  arg_ = arg;
  start_ = start_ticks;
  saved_trace_ = trace_detail::t_context.trace_id;
  saved_span_ = trace_detail::t_context.span_id;
  // One thread-local ring lookup serves both id draws here and the slot
  // write in end().
  ring_ = trace_detail::ring();
  if (ring_ != nullptr) {
    const std::uint64_t base =
        (static_cast<std::uint64_t>(ring_->index) + 1) << 40;
    span_id_ = base | ++ring_->next_span;
    trace_id_ = saved_trace_ != 0 ? saved_trace_ : (base | ++ring_->next_span);
  } else {
    span_id_ = trace_detail::overflow_id();
    trace_id_ = saved_trace_ != 0 ? saved_trace_ : trace_detail::overflow_id();
  }
  trace_detail::t_context = TraceContext{trace_id_, span_id_};
}

void ScopedSpan::end() {
  const std::uint64_t now = trace_detail::now_ticks();
  if (hist_ != nullptr) {
    hist_->record(trace_ticks_to_ns(now > start_ ? now - start_ : 0));
  }
  if (name_ == nullptr) return;
  trace_detail::t_context = TraceContext{saved_trace_, saved_span_};
  // Record even if tracing was flipped off mid-span: the begin already
  // claimed ids, and a half-open scope would otherwise vanish.
  trace_detail::record_span_on(ring_, name_, trace_id_, span_id_,
                               saved_span_, start_, now, arg_name_, arg_);
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_slow_threshold_ns(std::uint64_t ns) {
  trace_detail::ensure_calibrated();
  trace_detail::g_slow_ns.store(ns, std::memory_order_relaxed);
  if (ns == 0) {
    trace_detail::g_slow_ticks.store(~0ull, std::memory_order_relaxed);
    return;
  }
  const double ticks = static_cast<double>(ns) / g_calib.ns_per_tick;
  trace_detail::g_slow_ticks.store(
      ticks < 1.0 ? 1 : static_cast<std::uint64_t>(ticks),
      std::memory_order_relaxed);
}

std::uint64_t Tracer::slow_threshold_ns() const {
  return trace_detail::g_slow_ns.load(std::memory_order_relaxed);
}

std::uint64_t Tracer::dropped() const {
  return trace_detail::g_dropped.load(std::memory_order_relaxed);
}

namespace {

// The reader half of the slot seqlock, and the only walk over the rings:
// visits every slot of one ring whose copy validated (its seq read idx + 1
// before and after the field loads). Allocation-free, so the flight dump
// can run it from a signal handler.
template <class Fn>
void walk_ring(const SpanSlot* slots, std::uint64_t cap, std::uint64_t head,
               bool slow, Fn& fn) {
  for (std::uint64_t idx = head > cap ? head - cap : 0; idx < head; ++idx) {
    const SpanSlot& s = slots[idx & (cap - 1)];
    const std::uint64_t seq = s.seq.load(std::memory_order_acquire);
    if (seq != idx + 1) continue;
    const std::uint64_t start = s.start_ticks.load(std::memory_order_relaxed);
    const std::uint64_t end = s.end_ticks.load(std::memory_order_relaxed);
    SpanView v;
    v.trace_id = s.trace_id.load(std::memory_order_relaxed);
    v.span_id = s.span_id.load(std::memory_order_relaxed);
    v.parent_id = s.parent_id.load(std::memory_order_relaxed);
    v.arg = s.arg.load(std::memory_order_relaxed);
    v.name = s.name.load(std::memory_order_relaxed);
    v.arg_name = s.arg_name.load(std::memory_order_relaxed);
    v.tid = s.tid.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != seq || v.name == nullptr) {
      continue;
    }
    v.start_ns = ticks_to_abs_ns(start);
    v.dur_ns = end > start ? static_cast<std::uint64_t>(
                                 static_cast<double>(end - start) *
                                 ns_per_tick())
                           : 0;
    v.slow = slow;
    fn(v);
  }
}

// Every validated slot: each thread ring in registration order, then the
// slow ring.
template <class Fn>
void for_each_slot(Fn fn) {
  const std::uint32_t count = std::min<std::uint32_t>(
      trace_detail::g_ring_count.load(std::memory_order_acquire),
      trace_detail::kMaxThreads);
  for (std::uint32_t i = 0; i < count; ++i) {
    const ThreadRing* r =
        trace_detail::g_rings[i].load(std::memory_order_acquire);
    if (r == nullptr) continue;
    walk_ring(r->slots, kRingSlots, r->head.load(std::memory_order_acquire),
              false, fn);
  }
  walk_ring(trace_detail::g_slow.slots, kSlowSlots,
            trace_detail::g_slow.head.load(std::memory_order_acquire), true,
            fn);
}

// The one trace_event formatter: one Chrome "X" event for a span, preceded
// by ",\n" unless it is the first. snprintf only, so the flight dump can
// use it. Returns the bytes formatted; 0 when the event does not fit.
int format_event(char* buf, std::size_t cap, const SpanView& v, int pid,
                 bool first) {
  char arg_field[96] = {};
  if (v.arg_name != nullptr) {
    std::snprintf(arg_field, sizeof arg_field, ",\"%s\":%" PRIu64,
                  v.arg_name, v.arg);
  }
  const int n = std::snprintf(
      buf, cap,
      "%s{\"name\":\"%s\",\"cat\":\"hdd\",\"ph\":\"X\","
      "\"ts\":%" PRIu64 ".%03" PRIu64 ",\"dur\":%" PRIu64 ".%03" PRIu64 ","
      "\"pid\":%d,\"tid\":%u,\"args\":{"
      "\"trace_id\":\"0x%" PRIx64 "\",\"span_id\":\"0x%" PRIx64 "\","
      "\"parent_id\":\"0x%" PRIx64 "\"%s%s}}",
      first ? "" : ",\n", v.name, v.start_ns / 1000, v.start_ns % 1000,
      v.dur_ns / 1000, v.dur_ns % 1000, pid, v.tid, v.trace_id, v.span_id,
      v.parent_id, v.slow ? ",\"slow\":1" : "", arg_field);
  return n > 0 && static_cast<std::size_t>(n) < cap ? n : 0;
}

}  // namespace

std::vector<SpanView> Tracer::snapshot(std::uint64_t window_ms) const {
  trace_detail::ensure_calibrated();
  const double now_ns =
      static_cast<double>(ticks_to_abs_ns(trace_detail::now_ticks()));
  const double window_ns = static_cast<double>(window_ms) * 1e6;
  const std::uint64_t oldest_end =
      window_ms == 0 || window_ns > now_ns
          ? 0
          : static_cast<std::uint64_t>(now_ns - window_ns);

  std::vector<SpanView> out;
  std::unordered_set<std::uint64_t> seen;
  for_each_slot([&](const SpanView& v) {
    if (v.start_ns + v.dur_ns < oldest_end) return;
    if (seen.insert(v.span_id).second) out.push_back(v);
  });
  std::sort(out.begin(), out.end(), [](const SpanView& a, const SpanView& b) {
    return a.start_ns < b.start_ns;
  });
  return out;
}

namespace {

// ---- flight recorder ------------------------------------------------------
// Everything below the dump entry point is async-signal-safe: fixed
// buffers, snprintf of integers/strings only, write(2). No locks, no
// allocation, no floating-point formatting.

char g_flight_dir[256] = {};
std::atomic<bool> g_flight_set{false};
std::atomic<bool> g_dumping{false};

void write_all(int fd, const char* buf, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, buf + off, n - off);
    if (w <= 0) return;
    off += static_cast<std::size_t>(w);
  }
}

}  // namespace

void dump_flight_recorder(const char* reason) {
  if (!g_flight_set.load(std::memory_order_acquire)) return;
  if (g_dumping.exchange(true)) return;

  char path[320];
  const int pid = static_cast<int>(::getpid());
  std::snprintf(path, sizeof path, "%s/flight-%d.json", g_flight_dir, pid);
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    g_dumping.store(false);
    return;
  }

  char buf[768];
  const int n = std::snprintf(buf, sizeof buf,
                              "{\"flightReason\":\"%s\",\"traceEvents\":[\n",
                              reason != nullptr ? reason : "unknown");
  write_all(fd, buf, static_cast<std::size_t>(n));
  bool first = true;
  for_each_slot([&](const SpanView& v) {
    const int len = format_event(buf, sizeof buf, v, pid, first);
    if (len == 0) return;
    write_all(fd, buf, static_cast<std::size_t>(len));
    first = false;
  });
  write_all(fd, "\n]}\n", 4);
  ::close(fd);
  g_dumping.store(false);
}

void Tracer::set_flight_dir(const std::string& dir) {
  if (dir.empty()) {
    g_flight_set.store(false, std::memory_order_release);
    return;
  }
  std::snprintf(g_flight_dir, sizeof g_flight_dir, "%s", dir.c_str());
  g_flight_set.store(true, std::memory_order_release);
}

std::string Tracer::render_chrome_json(std::uint64_t window_ms) const {
  const std::vector<SpanView> spans = snapshot(window_ms);
  const int pid = static_cast<int>(::getpid());
  std::string out = "{\"traceEvents\":[\n";
  char buf[768];
  bool first = true;
  for (const SpanView& v : spans) {
    const int n = format_event(buf, sizeof buf, v, pid, first);
    if (n == 0) continue;
    out.append(buf, static_cast<std::size_t>(n));
    first = false;
  }
  out += "\n]}\n";
  return out;
}

namespace {

void flight_signal_handler(int sig) {
  const char* reason = "signal";
  switch (sig) {
    case SIGSEGV: reason = "SIGSEGV"; break;
    case SIGBUS: reason = "SIGBUS"; break;
    case SIGILL: reason = "SIGILL"; break;
    case SIGFPE: reason = "SIGFPE"; break;
    case SIGABRT: reason = "SIGABRT"; break;
    default: break;
  }
  dump_flight_recorder(reason);
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void install_flight_signal_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = flight_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_NODEFER;
  for (int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT}) {
    ::sigaction(sig, &sa, nullptr);
  }
}

}  // namespace hdd::obs
