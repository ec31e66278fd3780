// Server — the TCP front end of `hddpredict serve`.
//
// Thread model: one acceptor thread (poll over the listen socket and the
// shared shutdown self-pipe), one thread per connection, and one worker
// thread per shard. Connection threads parse frames and partition work;
// every touch of shard state happens on that shard's worker via a bounded
// task queue (backpressure: enqueue blocks when the queue is full), so
// each ShardEngine shard stays single-threaded exactly as its contract
// requires.
//
// The same port speaks two protocols, sniffed from the first bytes of the
// connection: the CRC-framed wire codec (serve/wire.h), or HTTP GET for
// the observability surface — `GET /metrics` renders the process metrics
// registry (obs/exposition.h), `GET /healthz` answers "ok",
// `GET /debug/trace?ms=N` returns the last N ms of the span flight
// recorder as Chrome trace_event JSON (obs/trace.h), and
// `GET /debug/vars` returns one JSON object: build, pid, uptime_ms,
// shards, model_generation, retrain_outcome, drives, samples, alarms,
// degraded, shadow_samples, shadow_divergence, connections, tracing,
// trace_slow_threshold_ns and trace_dropped. Its fleet and model figures
// come from the same status call as the wire stats op, so the two always
// agree.
//
// Tracing: every wire request runs under a `serve.request` root span
// (adopting the client's trace id when the frame carries one), with
// accept/parse/queue-wait/shard work/respond as child spans; post()
// carries the enqueuer's trace context onto the shard worker.
//
// Shutdown: SIGTERM/SIGINT (io/shutdown.h), the wire shutdown op, or
// stop() all converge on the same sequence — stop accepting, shut down
// open connections, drain and join the shard workers, fsync every shard
// journal (ShardEngine::seal). A crash instead of a shutdown loses only
// un-flushed tail bytes; restart + ShardEngine::resume restores
// byte-identical alarm state.
//
// A worker that hits a simulated crash (io::CrashPoint) marks its shard
// crashed and fails subsequent requests for it, letting the fault harness
// exercise crash-mid-ingest under live concurrent load without taking the
// process down (a real crash takes the process with it; the harness needs
// the daemon to survive so it can be restarted deterministically).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "serve/wire.h"

namespace hdd::obs {
class Counter;
class Registry;
}  // namespace hdd::obs

namespace hdd::serve {

class ShardEngine;

struct ServeOptions {
  std::string host = "127.0.0.1";
  int port = 0;           // 0 = ephemeral (read the bound port with port())
  std::string port_file;  // if set, the bound port is written here on start
  std::size_t max_queue = 64;  // per-shard queued tasks before backpressure
  // Open-connection cap (0 = unlimited). A connection over the cap gets a
  // clean kError frame ("connection limit reached") and is closed — never
  // a silent drop.
  std::size_t max_conns = 0;
  // Per-connection idle timeout (0 = none): a connection that sends no
  // bytes for this long is closed. Bounds fd lifetime under clients that
  // connect and stall.
  int idle_timeout_ms = 0;
  // Registry rendered by GET /metrics; nullptr = obs::Registry::global().
  obs::Registry* metrics = nullptr;
};

class Server {
 public:
  // The engine must outlive the server.
  Server(ShardEngine& engine, ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, spawns the acceptor and shard workers. Throws
  // DataError when the address cannot be bound.
  void start();

  // The bound port (valid after start()).
  int port() const { return port_; }

  // Blocks until shutdown is requested (signal, wire op, or stop() from
  // another thread), then runs the stop sequence.
  void wait();

  // Idempotent graceful stop: close the listener, shut down connections,
  // drain workers, seal the journals.
  void stop();

  // Runs `task` on shard k's worker thread and blocks until it finishes —
  // how the retrain loop touches shard state (stores, training windows)
  // without violating the one-thread-per-shard contract. Returns false
  // (task not run) when the shard is crashed or closed.
  [[nodiscard]] bool run_on_shard(std::size_t k,
                                  const std::function<void()>& task);

  // Pipeline status surfaced in stats responses (set by the retrain loop
  // after each cycle; a pipeline::Outcome code).
  void set_last_outcome(std::uint8_t outcome) {
    last_outcome_.store(outcome, std::memory_order_relaxed);
  }

 private:
  struct ShardWorker {
    std::thread thread;
    Mutex mu{lock_order::Rank::kShardQueue, "shard-queue"};
    CondVar cv_push;  // waiters: enqueuers (backpressure)
    CondVar cv_pop;   // waiters: the worker
    std::deque<std::function<void()>> queue HDD_GUARDED_BY(mu);
    bool closed HDD_GUARDED_BY(mu) = false;
    // A CrashPoint escaped a task on this shard.
    bool crashed HDD_GUARDED_BY(mu) = false;
  };

  // Per-connection trace state: when the connection was accepted, and
  // whether the next request is its first (only that one charges the
  // accept interval to its trace).
  struct ConnTrace {
    std::uint64_t accept_ticks = 0;
    bool first = true;
  };

  void acceptor_loop();
  void connection_loop(int fd);
  void worker_loop(std::size_t k);
  // Enqueues `task` on shard k's worker, blocking while the queue is full
  // (backpressure). Returns false — without running the task — when the
  // shard is crashed or closed. The enqueuer's trace context rides along:
  // the worker runs the task under it, with the queue wait recorded as a
  // "shard.queue_wait" child span.
  [[nodiscard]] bool post(std::size_t k, std::function<void()> task);
  void handle_wire(int fd, const std::string& first, ConnTrace& trace);
  // Handles one decoded request; returns false when the connection must
  // close.
  [[nodiscard]] bool process_request(int fd, std::string& payload,
                                     ConnTrace& trace);
  void handle_http(int fd, const std::string& first);
  // The fleet-wide status behind both the wire stats op and
  // GET /debug/vars: ShardEngine::stats() read on the shard workers, plus
  // the last retrain outcome.
  StatsResponse status();
  // JSON body of GET /debug/vars.
  std::string debug_vars_json();
  [[nodiscard]] bool send_all(int fd, std::string_view bytes);
  // Frames and sends a wire response, recording the encode+send as a
  // "wire.respond" child span of the current request.
  [[nodiscard]] bool send_response(int fd, std::string_view payload);
  // recv() guarded by the idle timeout: returns <= 0 on EOF, error, or
  // idle expiry (like a peer hangup, the connection then closes).
  ssize_t recv_idle(int fd, char* buf, std::size_t cap);

  ShardEngine& engine_;
  ServeOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  int wake_pipe_[2] = {-1, -1};  // stop() -> acceptor poll wakeup
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::thread acceptor_;
  std::vector<std::unique_ptr<ShardWorker>> workers_;
  Mutex conn_mu_{lock_order::Rank::kServeConns, "serve-conns"};
  std::vector<int> conn_fds_ HDD_GUARDED_BY(conn_mu_);
  std::vector<std::thread> conn_threads_ HDD_GUARDED_BY(conn_mu_);
  Mutex stop_mu_{lock_order::Rank::kServeStop, "serve-stop"};
  std::atomic<std::uint8_t> last_outcome_{0};
  std::chrono::steady_clock::time_point started_{};  // set by start()
  obs::Counter* m_connections_;
  obs::Counter* m_requests_;
  obs::Counter* m_ingested_;
  obs::Counter* m_http_;
  obs::Counter* m_conns_rejected_;
};

}  // namespace hdd::serve
