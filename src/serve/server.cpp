#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <fstream>
#include <span>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "io/env.h"
#include "io/shutdown.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"
#include "serve/shard_engine.h"

namespace hdd::serve {

namespace {

// Completion latch for a fan-out of tasks onto shard workers. done() must
// run on every path out of a task, including CrashPoint unwinding, so the
// tasks hold it in an RAII guard.
struct Completion {
  Mutex mu{lock_order::Rank::kServeCompletion, "serve-completion"};
  CondVar cv;
  std::size_t pending HDD_GUARDED_BY(mu) = 0;

  void done() {
    MutexLock lock(&mu);
    --pending;
    cv.notify_all();
  }
  void wait() {
    MutexLock lock(&mu);
    while (pending != 0) cv.wait(mu);
  }
};

struct DoneGuard {
  Completion& comp;
  ~DoneGuard() { comp.done(); }
};

void set_cloexec(int fd) { (void)fcntl(fd, F_SETFD, FD_CLOEXEC); }

}  // namespace

Server::Server(ShardEngine& engine, ServeOptions options)
    : engine_(engine), options_(std::move(options)) {
  obs::Registry& reg =
      options_.metrics != nullptr ? *options_.metrics : obs::Registry::global();
  m_connections_ =
      &reg.counter("hdd_serve_connections_total", "TCP connections accepted.");
  m_requests_ =
      &reg.counter("hdd_serve_requests_total", "Wire requests handled.");
  m_ingested_ = &reg.counter("hdd_serve_ingest_samples_total",
                             "Samples accepted by the ingest endpoint.");
  m_http_ = &reg.counter("hdd_serve_http_requests_total",
                         "HTTP requests served (metrics scrapes, healthz).");
  m_conns_rejected_ = &reg.counter(
      "hdd_serve_connections_rejected_total",
      "Connections refused at the --max-conns cap or on idle timeout.");
}

Server::~Server() { stop(); }

void Server::start() {
  io::install_shutdown_handlers();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw DataError("serve: socket(): " + std::string(std::strerror(errno)));
  }
  set_cloexec(listen_fd_);
  const int one = 1;
  (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    throw ConfigError("serve: bad listen address " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw DataError("serve: cannot listen on " + options_.host + ":" +
                    std::to_string(options_.port) + ": " + what);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  if (!options_.port_file.empty()) {
    std::ofstream out(options_.port_file, std::ios::trunc);
    out << port_ << "\n";
    if (!out) {
      throw DataError("serve: cannot write port file " + options_.port_file);
    }
  }

  if (::pipe(wake_pipe_) != 0) {
    throw DataError("serve: pipe(): " + std::string(std::strerror(errno)));
  }
  set_cloexec(wake_pipe_[0]);
  set_cloexec(wake_pipe_[1]);

  workers_.clear();
  for (std::size_t k = 0; k < engine_.shard_count(); ++k) {
    workers_.push_back(std::make_unique<ShardWorker>());
  }
  for (std::size_t k = 0; k < workers_.size(); ++k) {
    workers_[k]->thread = std::thread([this, k] { worker_loop(k); });
  }
  acceptor_ = std::thread([this] { acceptor_loop(); });
  started_ = std::chrono::steady_clock::now();
  log_info() << "serve: listening on " << options_.host << ":" << port_
             << " (" << engine_.shard_count() << " shard(s))";
}

void Server::wait() {
  pollfd fds[1];
  fds[0].fd = io::shutdown_wake_fd();
  fds[0].events = POLLIN;
  while (!stopping_.load(std::memory_order_acquire) &&
         !io::shutdown_requested()) {
    (void)::poll(fds, 1, 200);
  }
  stop();
}

void Server::stop() {
  MutexLock lock(&stop_mu_);
  if (stopped_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);

  if (wake_pipe_[1] >= 0) {
    const char b = 1;
    (void)!::write(wake_pipe_[1], &b, 1);
  }
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Kick every open connection out of recv(); their threads then unwind.
  // The thread handles move out under the lock and join outside it — a
  // connection thread's last act is re-taking conn_mu_ to deregister its
  // fd, so joining under the lock would deadlock.
  std::vector<std::thread> conn_threads;
  {
    MutexLock conn_lock(&conn_mu_);
    for (const int fd : conn_fds_) (void)::shutdown(fd, SHUT_RDWR);
    conn_threads.swap(conn_threads_);
  }
  for (std::thread& t : conn_threads) {
    if (t.joinable()) t.join();
  }

  for (const auto& w : workers_) {
    MutexLock wlock(&w->mu);
    w->closed = true;
    w->cv_pop.notify_all();
    w->cv_push.notify_all();
  }
  for (const auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }

  try {
    engine_.seal();
  } catch (const std::exception& e) {
    log_warn() << "serve: seal on shutdown failed: " << e.what();
  } catch (...) {
    // io::CrashPoint (not a std::exception by design): the fault harness
    // already "killed" the store. stop() runs from destructors, so nothing
    // may escape.
  }

  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  stopped_.store(true, std::memory_order_release);
  log_info() << "serve: stopped";
}

void Server::acceptor_loop() {
  for (;;) {
    pollfd fds[2];
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[1].fd = wake_pipe_[0];
    fds[1].events = POLLIN;
    const int rc = ::poll(fds, 2, 200);
    if (stopping_.load(std::memory_order_acquire) ||
        io::shutdown_requested()) {
      return;
    }
    if (rc <= 0 || (fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    set_cloexec(fd);
    const int one = 1;
    (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    m_connections_->inc();
    {
      MutexLock lock(&conn_mu_);
      if (options_.max_conns > 0 && conn_fds_.size() >= options_.max_conns) {
        // Over the cap: answer with a clean error frame instead of a
        // silent drop, so well-behaved clients can back off and retry.
        m_conns_rejected_->inc();
        (void)send_all(fd, frame_payload(encode_error_response(
                               Status::kError, "connection limit reached")));
        ::close(fd);
        continue;
      }
      conn_fds_.push_back(fd);
      conn_threads_.emplace_back([this, fd] { connection_loop(fd); });
    }
  }
}

ssize_t Server::recv_idle(int fd, char* buf, std::size_t cap) {
  if (options_.idle_timeout_ms > 0) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    const int rc = ::poll(&p, 1, options_.idle_timeout_ms);
    if (rc == 0) {
      m_conns_rejected_->inc();
      return 0;  // idle expiry closes the connection like a peer hangup
    }
    if (rc < 0) return -1;
  }
  return ::recv(fd, buf, cap, 0);
}

void Server::connection_loop(int fd) {
  ConnTrace trace;
  trace.accept_ticks = obs::trace_now_ticks();
  // Sniff the protocol from the first four bytes. "GET " cannot begin a
  // wire frame: as a little-endian length it exceeds kMaxWirePayloadBytes.
  std::string first;
  char buf[4096];
  while (first.size() < 4) {
    const ssize_t n = recv_idle(fd, buf, sizeof(buf));
    if (n <= 0) break;
    if (first.empty()) trace.read_start_ticks = obs::trace_now_ticks();
    first.append(buf, static_cast<std::size_t>(n));
  }
  if (first.size() >= 4) {
    if (first.compare(0, 4, "GET ") == 0) {
      handle_http(fd, first);
    } else {
      handle_wire(fd, first, trace);
    }
  }
  {
    MutexLock lock(&conn_mu_);
    for (std::size_t i = 0; i < conn_fds_.size(); ++i) {
      if (conn_fds_[i] == fd) {
        conn_fds_[i] = conn_fds_.back();
        conn_fds_.pop_back();
        break;
      }
    }
  }
  ::close(fd);
}

void Server::handle_wire(int fd, const std::string& first, ConnTrace& trace) {
  FrameParser parser;
  parser.feed(first);
  // When the buffered bytes last grew: a frame found by next() was
  // complete then.
  std::uint64_t fed_ticks = obs::trace_now_ticks();
  std::string payload;
  char buf[64 << 10];
  for (;;) {
    for (;;) {
      const FrameParser::Result res = parser.next(payload);
      if (res == FrameParser::Result::kNeedMore) break;
      if (res == FrameParser::Result::kCorrupt) {
        (void)send_all(fd, frame_payload(encode_error_response(
                               Status::kBadRequest, "corrupt frame")));
        return;
      }
      trace.read_end_ticks = fed_ticks;
      if (!process_request(fd, payload, trace)) return;
      // Bytes still buffered arrived with the last read and begin the
      // next frame; with none buffered, the next read resets this.
      trace.read_start_ticks = fed_ticks;
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    const ssize_t n = recv_idle(fd, buf, sizeof(buf));
    if (n <= 0) return;
    fed_ticks = obs::trace_now_ticks();
    if (parser.buffered() == 0) trace.read_start_ticks = fed_ticks;
    parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

bool Server::process_request(int fd, std::string& payload, ConnTrace& trace) {
  const std::uint64_t t_parse0 = obs::trace_now_ticks();
  auto req = decode_request(payload);
  if (!req) {
    (void)send_all(fd, frame_payload(encode_error_response(
                           Status::kBadRequest, "malformed request")));
    return false;
  }
  m_requests_->inc();

  // Adopt the client's trace id (0 = untraced client: the root span then
  // starts a fresh server-side trace). The root starts at the frame's
  // first byte; the first request on a connection also absorbs the
  // accept-to-first-byte interval.
  const obs::WithTraceContext adopt(
      obs::TraceContext{req->trace_id, /*span_id=*/0});
  const std::uint64_t root_start =
      trace.first ? trace.accept_ticks : trace.read_start_ticks;
  const obs::ScopedSpan root("serve.request", root_start, "op",
                             static_cast<std::uint64_t>(req->op));
  if (trace.first) {
    trace.first = false;
    obs::record_child_span("serve.accept", trace.accept_ticks,
                           trace.read_start_ticks);
  }
  obs::record_child_span("wire.read", trace.read_start_ticks,
                         trace.read_end_ticks, "bytes",
                         static_cast<std::uint64_t>(payload.size()));
  obs::record_child_span("wire.parse", t_parse0, obs::trace_now_ticks(),
                         "bytes", static_cast<std::uint64_t>(payload.size()));

  switch (req->op) {
    case Op::kIngest: {
      // Route by drive run: one shard_of per run, the run's serial moves
      // into its shard's list, and every shard reads the request's one
      // sample vector in place. Order within a shard holds.
      IngestRuns& in = req->ingest;
      const std::size_t shards = workers_.size();
      std::vector<std::vector<IngestRun>> parts(shards);
      std::vector<std::uint64_t> part_samples(shards, 0);
      for (IngestRun& run : in.runs) {
        const std::size_t k = shards == 1 ? 0 : engine_.shard_of(run.serial);
        part_samples[k] += run.count;
        parts[k].push_back(std::move(run));
      }

      struct Slot {
        IngestResponse r;
        bool failed = false;
        std::string error;
      };
      std::vector<Slot> slots(shards);
      Completion comp;
      for (const std::vector<IngestRun>& p : parts) {
        if (!p.empty()) ++comp.pending;
      }
      // The tasks read `in.samples` and `parts` by reference: this thread
      // waits on `comp` below, so both outlive every task.
      const std::span<const smart::Sample> samples(in.samples);
      for (std::size_t k = 0; k < shards; ++k) {
        if (parts[k].empty()) continue;
        const bool posted =
            post(k, [this, k, samples, &parts, &part_samples, &slots, &comp] {
              DoneGuard g{comp};
              const obs::ScopedSpan span("shard.ingest", "samples",
                                         part_samples[k]);
              try {
                slots[k].r = engine_.ingest(k, parts[k], samples);
              } catch (const std::exception& e) {
                slots[k].failed = true;
                slots[k].error = e.what();
              }
            });
        if (!posted) {
          slots[k].failed = true;
          slots[k].error = "shard " + std::to_string(k) + " unavailable";
          comp.done();
        }
      }
      comp.wait();

      IngestResponse merged;
      std::string error;
      for (const Slot& s : slots) {
        if (s.failed && error.empty()) error = s.error;
        merged.accepted += s.r.accepted;
        merged.stale += s.r.stale;
        merged.quarantined += s.r.quarantined;
        merged.journal_failed += s.r.journal_failed;
        merged.degraded = merged.degraded || s.r.degraded;
      }
      if (!error.empty()) {
        return send_response(fd, encode_error_response(Status::kError, error));
      }
      m_ingested_->inc(merged.accepted);
      return send_response(fd, encode_ingest_response(merged));
    }

    case Op::kQuery: {
      QueryResponse qr;
      bool ok = false;
      try {
        ok = run_on_shard(engine_.shard_of(req->serial), [&] {
          const obs::ScopedSpan span("shard.query");
          qr = engine_.query(req->serial);
        });
      } catch (const std::exception&) {
        // The shard's query threw: answered as a failed query below.
      }
      if (!ok) {
        return send_response(
            fd, encode_error_response(Status::kError, "query failed"));
      }
      return send_response(fd, encode_query_response(qr));
    }

    case Op::kStats:
      return send_response(fd, encode_stats_response(status()));

    case Op::kShutdown: {
      (void)send_response(fd, encode_shutdown_response());
      io::request_shutdown();
      return false;
    }
  }
  (void)send_all(fd, frame_payload(encode_error_response(Status::kBadRequest,
                                                         "unknown op")));
  return false;
}

void Server::handle_http(int fd, const std::string& first) {
  m_http_->inc();
  std::string req = first;
  char buf[4096];
  while (req.find("\r\n\r\n") == std::string::npos && req.size() < (64u << 10)) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    req.append(buf, static_cast<std::size_t>(n));
  }

  std::string path = "/";
  const std::size_t sp1 = req.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : req.find(' ', sp1 + 1);
  if (sp2 != std::string::npos) path = req.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string query;
  if (const std::size_t q = path.find('?'); q != std::string::npos) {
    query = path.substr(q + 1);
    path.erase(q);
  }

  const obs::ScopedSpan span("http.request");
  int code = 200;
  const char* reason = "OK";
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  if (path == "/metrics") {
    obs::Registry& reg = options_.metrics != nullptr ? *options_.metrics
                                                     : obs::Registry::global();
    std::ostringstream os;
    obs::render_prometheus(reg.snapshot(), os);
    body = os.str();
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (path == "/healthz") {
    body = "ok\n";
  } else if (path == "/debug/trace") {
    // ?ms=N bounds the window (default 10 s; ms=0 = everything retained).
    std::uint64_t window_ms = 10'000;
    if (const std::size_t at = query.find("ms="); at != std::string::npos) {
      window_ms = 0;
      for (std::size_t i = at + 3; i < query.size(); ++i) {
        const char c = query[i];
        if (c < '0' || c > '9') break;
        window_ms = window_ms * 10 + static_cast<std::uint64_t>(c - '0');
      }
    }
    body = obs::Tracer::global().render_chrome_json(window_ms);
    content_type = "application/json";
  } else if (path == "/debug/vars") {
    body = debug_vars_json();
    content_type = "application/json";
  } else {
    code = 404;
    reason = "Not Found";
    body = "not found\n";
  }

  std::ostringstream os;
  os << "HTTP/1.1 " << code << ' ' << reason << "\r\n"
     << "Content-Type: " << content_type << "\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << body;
  (void)send_all(fd, os.str());
}

StatsResponse Server::status() {
  StatsResponse s =
      engine_.stats(std::bind_front(&Server::run_on_shard, this));
  s.last_outcome = last_outcome_.load(std::memory_order_relaxed);
  return s;
}

std::string Server::debug_vars_json() {
  std::size_t conns = 0;
  {
    MutexLock lock(&conn_mu_);
    conns = conn_fds_.size();
  }
  const auto uptime_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started_)
          .count();
  const StatsResponse st = status();
  const obs::Tracer& tracer = obs::Tracer::global();
  std::ostringstream os;
  os << "{\"build\":{\"compiler\":\"" << __VERSION__
     << "\",\"cpp\":" << __cplusplus << "}"
     << ",\"pid\":" << ::getpid()
     << ",\"uptime_ms\":" << uptime_ms
     << ",\"shards\":" << engine_.shard_count()
     << ",\"model_generation\":" << st.generation
     << ",\"retrain_outcome\":\""
     << pipeline::outcome_name(static_cast<pipeline::Outcome>(st.last_outcome))
     << "\""
     << ",\"drives\":" << st.drives
     << ",\"samples\":" << st.samples
     << ",\"alarms\":" << st.alarms
     << ",\"degraded\":" << (st.degraded ? 1 : 0)
     << ",\"shadow_samples\":" << st.shadow_samples
     << ",\"shadow_divergence\":" << st.shadow_divergence
     << ",\"connections\":" << conns
     << ",\"tracing\":" << (tracer.enabled() ? 1 : 0)
     << ",\"trace_slow_threshold_ns\":" << tracer.slow_threshold_ns()
     << ",\"trace_dropped\":" << tracer.dropped() << "}\n";
  return os.str();
}

bool Server::run_on_shard(std::size_t k, const std::function<void()>& task) {
  Completion comp;
  comp.pending = 1;
  std::exception_ptr failed;
  const bool posted = post(k, [&task, &comp, &failed] {
    DoneGuard g{comp};
    try {
      task();
    } catch (const std::exception&) {
      failed = std::current_exception();  // rethrown on the caller
    }
  });
  if (!posted) {
    comp.done();
    return false;
  }
  comp.wait();
  if (failed) std::rethrow_exception(failed);
  return true;
}

bool Server::post(std::size_t k, std::function<void()> task) {
  if (obs::trace_enabled()) {
    // Carry the enqueuer's trace context onto the worker thread and
    // surface the time the task sat queued. record_child_span no-ops for
    // untraced enqueuers, so uninstrumented callers stay span-free.
    const obs::TraceContext ctx = obs::current_trace_context();
    const std::uint64_t t_enq = obs::trace_now_ticks();
    task = [k, ctx, t_enq, inner = std::move(task)] {
      const obs::WithTraceContext adopt(ctx);
      obs::record_child_span("shard.queue_wait", t_enq,
                             obs::trace_now_ticks(), "shard",
                             static_cast<std::uint64_t>(k));
      inner();
    };
  }
  ShardWorker& w = *workers_[k];
  MutexLock lock(&w.mu);
  while (!w.closed && !w.crashed && w.queue.size() >= options_.max_queue) {
    w.cv_push.wait(w.mu);
  }
  if (w.closed || w.crashed) return false;
  w.queue.push_back(std::move(task));
  w.cv_pop.notify_one();
  return true;
}

void Server::worker_loop(std::size_t k) {
  ShardWorker& w = *workers_[k];
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&w.mu);
      while (!w.closed && w.queue.empty()) w.cv_pop.wait(w.mu);
      if (w.queue.empty()) return;  // closed and fully drained
      task = std::move(w.queue.front());
      w.queue.pop_front();
      w.cv_push.notify_one();
    }
    try {
      task();
    } catch (const io::CrashPoint&) {
      // The fault plan "killed" this shard mid-write. Real crash-resume is
      // exercised by restarting the engine; here we just fence the shard
      // off so no post-crash writes contaminate its journal.
      MutexLock lock(&w.mu);
      w.crashed = true;
      w.cv_push.notify_all();
      log_warn() << "serve: shard " << k
                 << " hit an injected crash point; fenced until restart";
    }
  }
}

bool Server::send_response(int fd, std::string_view payload) {
  const std::uint64_t t0 = obs::trace_now_ticks();
  const std::string framed = frame_payload(payload);
  const bool ok = send_all(fd, framed);
  obs::record_child_span("wire.respond", t0, obs::trace_now_ticks(), "bytes",
                         static_cast<std::uint64_t>(framed.size()));
  return ok;
}

bool Server::send_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace hdd::serve
