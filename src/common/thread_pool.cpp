#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hdd {

ThreadPool::ThreadPool(std::size_t n_threads, obs::Registry* metrics) {
  // Instruments must exist before the first worker can touch them.
  obs::Registry& reg = metrics != nullptr ? *metrics : obs::Registry::global();
  tasks_total_ = &reg.counter("hdd_pool_tasks_total",
                              "Tasks executed by pool workers.");
  queue_depth_ = &reg.gauge("hdd_pool_queue_depth",
                            "Tasks submitted and not yet dequeued.");
  task_latency_ = &reg.histogram("hdd_pool_task_latency_ns",
                                 "Per-task execution wall time (ns).");
  if (n_threads == 0) {
    n_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    MutexLock lock(&mutex_);
    HDD_ASSERT(!stopping_);
    tasks_.push(std::move(packaged));
  }
  queue_depth_->add(1.0);
  cv_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(&mutex_);
      while (!stopping_ && tasks_.empty()) cv_.wait(mutex_);
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    queue_depth_->sub(1.0);
    {
      const obs::ScopedSpan span("pool.task", task_latency_);
      task();  // packaged_task captures exceptions into the future
    }
    tasks_total_->inc();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  // The caller is one lane and enlists up to size() - 1 workers, so a pool
  // of n keeps n threads busy and the call starts at once instead of
  // waiting for a worker to wake. With no helpers it simply runs inline.
  const std::size_t helpers = std::min(end - begin, size()) - 1;
  if (helpers == 0) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // Chunked dynamic scheduling via a shared atomic cursor. Once any lane
  // throws, the remaining indices are abandoned.
  std::atomic<std::size_t> next{begin};
  std::atomic<bool> failed{false};
  const auto lane = [&next, &failed, end, &fn] {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1);
      if (i >= end) return;
      try {
        fn(i);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        throw;
      }
    }
  };
  std::vector<std::future<void>> futures;
  futures.reserve(helpers);
  for (std::size_t w = 0; w < helpers; ++w) futures.push_back(submit(lane));
  std::exception_ptr first_error;
  try {
    lane();
  } catch (...) {
    first_error = std::current_exception();
  }
  // Every future must be drained before the locals above leave scope, even
  // when one of them holds an exception — so collect first, throw after.
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace hdd
