// Fixed-size thread pool with a parallel_for helper.
//
// Training is embarrassingly parallel across model configurations and ROC
// sweep points; the bench harnesses use parallel_for to keep wall-clock
// times low without per-call thread churn.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace hdd::obs {
class Counter;
class Gauge;
class Histogram;
class Registry;
}  // namespace hdd::obs

namespace hdd {

class ThreadPool {
 public:
  // n_threads == 0 selects hardware_concurrency (at least 1). The pool
  // reports hdd_pool_* metrics (tasks executed, queue depth, task
  // latency) into `metrics`; nullptr selects obs::Registry::global(). A
  // non-global registry must outlive the pool.
  explicit ThreadPool(std::size_t n_threads = 0,
                      obs::Registry* metrics = nullptr);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueues a task; the returned future reports completion/exception.
  std::future<void> submit(std::function<void()> task);

  // Runs fn(i) for i in [begin, end) on the calling thread plus up to
  // size() - 1 workers, and waits for all. Exceptions from any lane are
  // rethrown (the first one encountered).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  // Returns a process-wide shared pool.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_{lock_order::Rank::kPoolQueue, "pool-queue"};
  CondVar cv_;
  std::queue<std::packaged_task<void()>> tasks_ HDD_GUARDED_BY(mutex_);
  bool stopping_ HDD_GUARDED_BY(mutex_) = false;

  obs::Counter* tasks_total_;     // tasks executed by workers
  obs::Gauge* queue_depth_;       // submitted, not yet dequeued
  obs::Histogram* task_latency_;  // per-task execution wall time (ns)
};

}  // namespace hdd
