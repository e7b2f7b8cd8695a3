#include "engine/thread_pool.h"

#include <algorithm>

namespace fdtdmm {

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) throw std::invalid_argument("ThreadPool: workers must be > 0");
  stats_.tasks_per_worker.assign(workers, 0);
  workers_.reserve(workers);
  try {
    for (std::size_t i = 0; i < workers; ++i)
      workers_.emplace_back([this, i] { workerLoop(i); });
  } catch (...) {
    // Thread creation failed partway (e.g. EAGAIN under a pid limit):
    // destroying joinable threads would std::terminate, so shut down the
    // ones that did start before rethrowing.
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::size_t ThreadPool::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

ThreadPoolStats ThreadPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

bool ThreadPool::tryLend(std::function<void()> job) {
  std::lock_guard<std::mutex> lock(mu_);
  // Each accepted job claims one parked worker; the claim is settled when
  // a woken worker pops it, and workers pop lent jobs before queued tasks.
  if (stopping_ || !queue_.empty() || parked_ <= lent_.size()) return false;
  lent_.push_back(std::move(job));
  ++stats_.submitted;
  cv_.notify_one();  // under the lock, as in submit()
  return true;
}

std::size_t ThreadPool::fairShare() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t tasks = std::max<std::size_t>(running_, 1);
  return (workers_.size() + tasks - 1) / tasks;
}

void ThreadPool::setQueueWaitRecorder(obs::HistogramRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  queue_wait_recorder_ = registry;
}

void ThreadPool::workerLoop(std::size_t worker_id) {
  for (;;) {
    std::function<void()> task;
    bool lent = false;
    obs::HistogramRegistry* recorder = nullptr;
    double wait_seconds = 0.0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++parked_;
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty() || !lent_.empty(); });
      --parked_;
      if (!lent_.empty()) {
        task = std::move(lent_.front());
        lent_.pop_front();
        lent = true;
      } else if (!queue_.empty()) {
        QueuedTask qt = std::move(queue_.front());
        queue_.pop();
        // Stats update under the lock we already hold: queue-wait is the
        // time this task spent parked, attributed at dequeue.
        wait_seconds =
            std::chrono::duration<double>(Clock::now() - qt.enqueued).count();
        stats_.queue_wait_seconds += wait_seconds;
        recorder = queue_wait_recorder_;
        ++running_;
        task = std::move(qt.fn);
      } else {
        return;  // stopping_ and drained
      }
      // The completed count is per worker (the body runs outside the lock,
      // so "completed" means "dispatched to this worker" — equal once the
      // future is collected or the lent job has returned).
      ++stats_.tasks_per_worker[worker_id];
    }
    // The histogram sample lands outside the queue lock: the registry has
    // its own per-thread sharding, so recording never stalls submitters.
    if (recorder != nullptr)
      recorder->record("pool.queue_wait_seconds", wait_seconds);
    const Clock::time_point run_begin = Clock::now();
    bool lent_threw = false;
    if (lent) {
      try {
        task();
      } catch (...) {
        lent_threw = true;  // no future to carry it: counted below
      }
    } else {
      WorkerLender::Scope lender(this);
      task();  // packaged_task: exceptions land in the future
    }
    const double run_seconds =
        std::chrono::duration<double>(Clock::now() - run_begin).count();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.busy_seconds += run_seconds;
      if (lent_threw) ++stats_.lent_exceptions;
      if (!lent) --running_;
    }
  }
}

}  // namespace fdtdmm
