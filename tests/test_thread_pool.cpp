// Tests for the sweep engine's execution substrate: FIFO submission with
// futures, exception propagation, thread-count-independent results, and
// lending idle workers to a running task.
#include "engine/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace fdtdmm {
namespace {

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, ReportsWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workerCount(), 3u);
}

TEST(ThreadPool, FuturesReturnResultsInSubmissionSlots) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit([]() -> int { throw std::runtime_error("task failed"); });
  EXPECT_EQ(ok.get(), 7);
  try {
    bad.get();
    FAIL() << "expected the task exception to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task failed");
  }
  // The worker that ran the throwing task must still be alive.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, ResultsIndependentOfWorkerCount) {
  // The same workload collected through futures must give identical
  // results for any pool size, regardless of execution interleaving.
  auto runWith = [](std::size_t workers) {
    ThreadPool pool(workers);
    std::vector<std::future<double>> futures;
    for (int i = 0; i < 40; ++i)
      futures.push_back(pool.submit([i] {
        double acc = 0.0;
        for (int k = 1; k <= 200; ++k) acc += 1.0 / (i + k);
        return acc;
      }));
    std::vector<double> out;
    for (auto& f : futures) out.push_back(f.get());
    return out;
  };
  const auto serial = runWith(1);
  EXPECT_EQ(runWith(2), serial);
  EXPECT_EQ(runWith(4), serial);
  EXPECT_EQ(runWith(8), serial);
}

TEST(ThreadPool, StatsTrackSubmissionsQueueDepthAndPerWorkerCounts) {
  ThreadPool pool(3);

  // Park every worker behind a gate, then pile up a backlog: the
  // high-water mark must see the whole backlog and the queue-wait must be
  // strictly positive once it drains.
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::vector<std::future<void>> blockers;
  for (int i = 0; i < 3; ++i)
    blockers.push_back(pool.submit([open] { open.wait(); }));
  while (pool.queued() != 0) std::this_thread::yield();  // blockers dequeued

  std::vector<std::future<int>> work;
  for (int i = 0; i < 10; ++i) work.push_back(pool.submit([i] { return i; }));
  EXPECT_GE(pool.stats().queue_high_water, 10u);

  gate.set_value();
  for (auto& f : blockers) f.get();
  for (std::size_t i = 0; i < work.size(); ++i)
    EXPECT_EQ(work[i].get(), static_cast<int>(i));

  const ThreadPoolStats st = pool.stats();
  EXPECT_EQ(st.submitted, 13);
  ASSERT_EQ(st.tasks_per_worker.size(), 3u);
  long long dispatched = 0;
  for (long long n : st.tasks_per_worker) dispatched += n;
  EXPECT_EQ(dispatched, st.submitted);
  EXPECT_GT(st.queue_wait_seconds, 0.0);  // the backlog sat behind the gate
}

TEST(ThreadPool, StatsAreZeroInitialized) {
  ThreadPool pool(2);
  const ThreadPoolStats st = pool.stats();
  EXPECT_EQ(st.queue_high_water, 0u);
  EXPECT_EQ(st.submitted, 0);
  ASSERT_EQ(st.tasks_per_worker.size(), 2u);
  EXPECT_EQ(st.tasks_per_worker[0], 0);
  EXPECT_EQ(st.tasks_per_worker[1], 0);
  EXPECT_EQ(st.queue_wait_seconds, 0.0);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i)
      futures.push_back(pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        done.fetch_add(1);
      }));
  }  // ~ThreadPool must finish everything queued, not drop it
  EXPECT_EQ(done.load(), 32);
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

// Fresh workers park asynchronously: retry until one is there to lend.
bool lendWhenParked(ThreadPool& pool, const std::function<void()>& job) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pool.tryLend(job)) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPoolLend, RefusesWhenNoWorkerIsIdleOrTasksAreQueued) {
  ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  auto blocker = pool.submit([open] { open.wait(); });
  while (pool.queued() != 0) std::this_thread::yield();  // the worker is busy
  bool ran = false;
  EXPECT_FALSE(pool.tryLend([&ran] { ran = true; }));
  auto queued = pool.submit([] { return 5; });  // now also a backlog
  EXPECT_FALSE(pool.tryLend([&ran] { ran = true; }));
  gate.set_value();
  blocker.get();
  EXPECT_EQ(queued.get(), 5);
  EXPECT_FALSE(ran);  // a refused job is dropped, never run
  EXPECT_EQ(pool.stats().submitted, 2);
}

TEST(ThreadPoolLend, EachIdleWorkerIsLentOnce) {
  ThreadPool pool(2);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  auto blocker = pool.submit([open] { open.wait(); });
  // The other worker goes to the first lent job; nothing is left to lend.
  std::atomic<int> lent_ran{0};
  ASSERT_TRUE(lendWhenParked(pool, [open, &lent_ran] {
    open.wait();
    lent_ran.fetch_add(1);
  }));
  EXPECT_FALSE(pool.tryLend([&lent_ran] { lent_ran.fetch_add(100); }));
  gate.set_value();
  blocker.get();
  while (lent_ran.load() == 0) std::this_thread::yield();
  EXPECT_EQ(lent_ran.load(), 1);
}

TEST(ThreadPoolLend, LentJobCountsInStats) {
  ThreadPool pool(2);
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  ASSERT_TRUE(lendWhenParked(pool, [&done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    done.set_value();
  }));
  finished.wait();
  // Busy time is booked just after the job returns.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pool.stats().busy_seconds < 0.02 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  const ThreadPoolStats st = pool.stats();
  EXPECT_GE(st.busy_seconds, 0.02);
  EXPECT_EQ(st.submitted, 1);
  long long dispatched = 0;
  for (long long n : st.tasks_per_worker) dispatched += n;
  EXPECT_EQ(dispatched, 1);
  EXPECT_EQ(st.queue_wait_seconds, 0.0);  // a lent job never waits in the queue
}

TEST(ThreadPoolLend, SurvivesALentJobThatThrows) {
  ThreadPool pool(2);
  std::atomic<bool> thrown{false};
  ASSERT_TRUE(lendWhenParked(pool, [&thrown] {
    thrown = true;
    throw std::runtime_error("lent job failed");
  }));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pool.stats().lent_exceptions == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_TRUE(thrown.load());
  EXPECT_EQ(pool.stats().lent_exceptions, 1);
  // Both workers are still alive: two tasks that wait for each other
  // finish only if they run concurrently.
  std::promise<void> a_started;
  std::shared_future<void> a = a_started.get_future().share();
  auto first = pool.submit([&a_started] { a_started.set_value(); });
  auto second = pool.submit([a] { a.wait(); return 3; });
  first.get();
  EXPECT_EQ(second.get(), 3);
  std::atomic<bool> again{false};
  ASSERT_TRUE(lendWhenParked(pool, [&again] { again = true; }));
  while (!again.load()) std::this_thread::yield();
}

TEST(ThreadPoolLend, DestructionFinishesLentJobs) {
  std::atomic<int> finished{0};
  std::atomic<bool> started{false};
  {
    ThreadPool pool(3);
    ASSERT_TRUE(lendWhenParked(pool, [&] {
      started = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      finished.fetch_add(1);
    }));
    while (!started.load()) std::this_thread::yield();
    // A second job may not have started when destruction begins.
    ASSERT_TRUE(lendWhenParked(pool, [&] { finished.fetch_add(1); }));
  }  // ~ThreadPool joins the workers only after both lent jobs return
  EXPECT_EQ(finished.load(), 2);
}

TEST(ThreadPoolLend, LenderIsVisibleToTasksOnly) {
  ThreadPool pool(2);
  EXPECT_EQ(WorkerLender::current(), nullptr);
  EXPECT_EQ(pool.submit([] { return WorkerLender::current(); }).get(), &pool);
  std::promise<WorkerLender*> seen;
  std::future<WorkerLender*> lent_sees = seen.get_future();
  ASSERT_TRUE(lendWhenParked(pool, [&seen] { seen.set_value(WorkerLender::current()); }));
  EXPECT_EQ(lent_sees.get(), nullptr);  // a lent job may not lend further
}

TEST(ThreadPoolLend, FairShareSplitsWorkersAmongRunningTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.fairShare(), 4u);  // nothing running
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::atomic<int> running{0};
  std::vector<std::future<void>> tasks;
  auto start = [&] {
    tasks.push_back(pool.submit([open, &running] {
      running.fetch_add(1);
      open.wait();
    }));
    while (running.load() != static_cast<int>(tasks.size())) std::this_thread::yield();
  };
  start();
  EXPECT_EQ(pool.fairShare(), 4u);
  start();
  EXPECT_EQ(pool.fairShare(), 2u);
  start();
  EXPECT_EQ(pool.fairShare(), 2u);  // ceil(4 / 3)
  start();
  EXPECT_EQ(pool.fairShare(), 1u);
  gate.set_value();
  for (auto& t : tasks) t.get();
}

}  // namespace
}  // namespace fdtdmm
