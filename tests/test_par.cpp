#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(MCMCPAR_HAVE_OPENMP)
#include <omp.h>
#endif

#include "par/concurrency.hpp"
#include "par/omp_support.hpp"
#include "par/task_scheduler.hpp"
#include "par/thread_pool.hpp"
#include "par/virtual_clock.hpp"

namespace mcmcpar::par {
namespace {

TEST(Concurrency, ResolveThreadCountMapsZeroToHardware) {
  EXPECT_EQ(resolveThreadCount(1), 1u);
  EXPECT_EQ(resolveThreadCount(7), 7u);
  const unsigned hardware = resolveThreadCount(0);
  EXPECT_GE(hardware, 1u);
  EXPECT_EQ(hardware, std::max(1u, std::thread::hardware_concurrency()));
}

TEST(PoolBudget, AcquireAndReleaseRoundTrip) {
  PoolBudget budget(4);
  EXPECT_EQ(budget.total(), 4u);
  EXPECT_EQ(budget.available(), 4u);
  EXPECT_EQ(budget.tryAcquire(3), 3u);
  EXPECT_EQ(budget.available(), 1u);
  // Over-asking grants only what is left; an empty budget grants 0.
  EXPECT_EQ(budget.tryAcquire(5), 1u);
  EXPECT_EQ(budget.tryAcquire(1), 0u);
  budget.release(4);
  EXPECT_EQ(budget.available(), 4u);
  // Releasing more than was taken can never exceed the total.
  budget.release(99);
  EXPECT_EQ(budget.available(), 4u);
}

TEST(PoolBudget, ZeroMeansHardwareLikeEveryOtherThreadsKnob) {
  const PoolBudget budget(0);
  EXPECT_EQ(budget.total(), resolveThreadCount(0));
}

TEST(PoolLease, UnbudgetedLeaseIsResolveThreadCount) {
  const PoolLease machine = PoolLease::acquire(nullptr, 0);
  EXPECT_EQ(machine.threads(), resolveThreadCount(0));
  const PoolLease fixed = PoolLease::acquire(nullptr, 6);
  EXPECT_EQ(fixed.threads(), 6u);
}

TEST(PoolLease, BudgetedLeaseGrantsCallerPlusAvailableExtras) {
  PoolBudget budget(4);
  {
    // First job wants 4: the caller is pre-paid, 3 extras leave the budget.
    const PoolLease first = PoolLease::acquire(&budget, 4);
    EXPECT_EQ(first.threads(), 4u);
    EXPECT_EQ(budget.available(), 1u);
    // Second concurrent job wants 4 too but only 1 extra is left.
    const PoolLease second = PoolLease::acquire(&budget, 4);
    EXPECT_EQ(second.threads(), 2u);
    EXPECT_EQ(budget.available(), 0u);
    // A drained budget still grants the calling thread.
    const PoolLease third = PoolLease::acquire(&budget, 4);
    EXPECT_EQ(third.threads(), 1u);
  }
  // RAII: all extras returned on scope exit.
  EXPECT_EQ(budget.available(), 4u);
}

TEST(PoolLease, RequestIsCappedAtBudgetTotal) {
  PoolBudget budget(2);
  const PoolLease lease = PoolLease::acquire(&budget, 16);
  EXPECT_EQ(lease.threads(), 2u);
  EXPECT_EQ(budget.available(), 1u);  // only the one extra was leased
}

TEST(PoolLease, MoveTransfersTheGrant) {
  PoolBudget budget(3);
  PoolLease a = PoolLease::acquire(&budget, 3);
  EXPECT_EQ(a.threads(), 3u);  // caller + the 2 leased extras
  EXPECT_EQ(budget.available(), 1u);
  PoolLease b = std::move(a);
  EXPECT_EQ(b.threads(), 3u);
  EXPECT_EQ(a.threads(), 1u);  // moved-from: an unbudgeted caller-only lease
  b.release();
  EXPECT_EQ(budget.available(), 3u);
  b.release();  // idempotent
  EXPECT_EQ(budget.available(), 3u);
}

/// Threads of this process right now (Linux: one /proc/self/task entry each).
std::size_t osThreads() {
  using std::filesystem::directory_iterator;
  return static_cast<std::size_t>(std::distance(
      directory_iterator("/proc/self/task"), directory_iterator()));
}

TEST(PoolLease, ParallelForOnOneThreadRunsInlineOnTheCaller) {
  PoolLease lease;  // one thread: the caller
  const std::size_t before = osThreads();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  lease.parallelFor(16, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(osThreads(), before);  // no worker was started
}

TEST(PoolLease, ParallelForRunsEachIndexOnceOnAtMostTheLeasedThreads) {
  PoolLease lease = PoolLease::acquire(nullptr, 3);
  ASSERT_EQ(lease.threads(), 3u);
  std::vector<std::atomic<int>> hits(64);
  std::mutex mutex;
  int inFlight = 0;
  int peak = 0;
  lease.parallelFor(hits.size(), [&](std::size_t i) {
    {
      const std::scoped_lock lock(mutex);
      peak = std::max(peak, ++inFlight);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    hits[i].fetch_add(1);
    const std::scoped_lock lock(mutex);
    --inFlight;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GE(peak, 1);
  EXPECT_LE(peak, 3);
}

TEST(PoolLease, ParallelForPropagatesException) {
  const auto throwAtFive = [](std::size_t i) {
    if (i == 5) throw std::runtime_error("boom");
  };
  for (const unsigned threads : {1u, 3u}) {
    PoolLease lease = PoolLease::acquire(nullptr, threads);
    EXPECT_THROW(lease.parallelFor(8, throwAtFive), std::runtime_error);
    // The lease stays usable after a throwing loop.
    std::atomic<int> count{0};
    lease.parallelFor(8, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 8) << threads;
  }
}

TEST(PoolLease, ParallelForWorkersJoinAndExtrasReturnOnRelease) {
  PoolBudget budget(3);
  const std::size_t before = osThreads();
  PoolLease lease = PoolLease::acquire(&budget, 3);
  ASSERT_EQ(lease.threads(), 3u);
  EXPECT_EQ(budget.available(), 1u);
  EXPECT_EQ(osThreads(), before);  // workers start with the first loop
  std::atomic<int> count{0};
  lease.parallelFor(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
  EXPECT_EQ(osThreads(), before + 2);  // threads() - 1 workers
  lease.release();
  // A joined thread's /proc entry can outlive the join by a moment.
  for (int i = 0; i < 200 && osThreads() != before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(osThreads(), before);
  EXPECT_EQ(budget.available(), 3u);
  EXPECT_EQ(lease.threads(), 1u);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallelFor(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallelFor(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallelFor(8,
                       [](std::size_t i) {
                         if (i == 3) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPool, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<long> sum{0};
  pool.parallelFor(100,
                   [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, ReusableAcrossRegions) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.parallelFor(20, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, ParallelForIsReentrant) {
  // A nested parallelFor on the same pool must complete even when every
  // worker is blocked inside the enclosing call (the waiting callers help
  // drain the queue). This deadlocked before the per-call completion latch.
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.parallelFor(4, [&](std::size_t) {
    pool.parallelFor(8, [&](std::size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 32);
}

TEST(ThreadPool, ReentrantOnSingleWorkerPool) {
  ThreadPool pool(1);
  std::atomic<int> inner{0};
  pool.parallelFor(3, [&](std::size_t) {
    pool.parallelFor(5, [&](std::size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 15);
}

TEST(ThreadPool, NestedParallelForPropagatesException) {
  ThreadPool pool(2);
  std::atomic<int> outerRuns{0};
  EXPECT_THROW(
      pool.parallelFor(4,
                       [&](std::size_t) {
                         outerRuns.fetch_add(1);
                         pool.parallelFor(4, [](std::size_t j) {
                           if (j == 2) throw std::runtime_error("inner boom");
                         });
                       }),
      std::runtime_error);
  // Every outer index still ran (exceptions are collected, not aborting).
  EXPECT_EQ(outerRuns.load(), 4);
}

TEST(ThreadPool, StolenSubmittedTaskKeepsAccounting) {
  // The worker is parked in the blocker, so parallelFor's drain loop steals
  // the queued fire-and-forget task and runs it on the caller. The
  // in-flight accounting must stay balanced (or the later wait() hangs).
  ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<int> stolen{0};
  pool.submit([&] {
    started.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (!started.load()) std::this_thread::yield();
  pool.submit([&] { stolen.fetch_add(1); });
  pool.parallelFor(2, [](std::size_t) {});
  EXPECT_EQ(stolen.load(), 1);
  release.store(true);
  pool.wait();
  std::atomic<int> count{0};
  pool.parallelFor(4, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, PoolUsableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallelFor(
                   4, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.parallelFor(16, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 16);
}

TEST(TaskSchedule, MakespanOfKnownSchedule) {
  TaskSchedule s;
  s.perThread = {{0, 1}, {2}};
  const std::vector<double> costs{1.0, 2.0, 2.5};
  EXPECT_NEAR(s.makespan(costs), 3.0, 1e-12);
}

TEST(LptSchedule, BalancesClassicExample) {
  // {7,6,5,4,3} on 2 threads: 7->t0, 6->t1, 5->t1(11), 4->t0(11), 3->14.
  const std::vector<double> costs{7, 6, 5, 4, 3};
  const auto schedule = lptSchedule(costs, 2);
  EXPECT_NEAR(schedule.makespan(costs), 14.0, 1e-12);
}

TEST(LptSchedule, AssignsEveryTaskOnce) {
  const std::vector<double> costs{3, 1, 4, 1, 5, 9, 2, 6};
  const auto schedule = lptSchedule(costs, 3);
  std::vector<int> seen(costs.size(), 0);
  for (const auto& tasks : schedule.perThread) {
    for (std::size_t t : tasks) seen[t]++;
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(LptSchedule, RespectsLowerBoundAndApproximation) {
  const std::vector<double> costs{8, 7, 6, 5, 4, 3, 2, 1, 1, 1};
  for (unsigned threads = 1; threads <= 5; ++threads) {
    const auto schedule = lptSchedule(costs, threads);
    const double lb = makespanLowerBound(costs, threads);
    EXPECT_GE(schedule.makespan(costs) + 1e-12, lb);
    EXPECT_LE(schedule.makespan(costs), lb * 4.0 / 3.0 + 1e-9);
  }
}

TEST(ListSchedule, SingleThreadIsSum) {
  EXPECT_NEAR(listScheduleMakespan(std::vector<double>{1, 2, 3}, 1), 6.0, 1e-12);
}

TEST(ListSchedule, ManyThreadsIsMax) {
  EXPECT_NEAR(listScheduleMakespan(std::vector<double>{1, 2, 3}, 8), 3.0, 1e-12);
}

TEST(ListSchedule, SubmissionOrderMatters) {
  EXPECT_NEAR(listScheduleMakespan(std::vector<double>{4, 1, 1, 1, 1}, 2), 4.0,
              1e-12);
  EXPECT_NEAR(listScheduleMakespan(std::vector<double>{1, 1, 1, 1, 4}, 2), 6.0,
              1e-12);
}

TEST(MakespanLowerBound, MaxOfAverageAndLargest) {
  const std::vector<double> costs{10, 1, 1};
  EXPECT_NEAR(makespanLowerBound(costs, 3), 10.0, 1e-12);
  EXPECT_NEAR(makespanLowerBound(costs, 1), 12.0, 1e-12);
}

TEST(VirtualClock, SerialAdvance) {
  VirtualClock clock;
  clock.advance(1.5);
  clock.advance(0.5);
  EXPECT_NEAR(clock.now(), 2.0, 1e-12);
  clock.reset();
  EXPECT_EQ(clock.now(), 0.0);
}

TEST(VirtualClock, ParallelAdvanceUsesMakespan) {
  VirtualClock clock;
  const std::vector<double> costs{2.0, 1.0, 1.0};
  clock.advanceParallel(costs, 2);
  EXPECT_NEAR(clock.now(), 2.0, 1e-12);
  clock.advanceParallel(costs, 1);
  EXPECT_NEAR(clock.now(), 6.0, 1e-12);
}

TEST(WallTimer, NonNegativeElapsed) {
  const WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.seconds(), 0.0);
}

TEST(OmpSupport, ParallelForCoversIndices) {
  std::vector<std::atomic<int>> hits(64);
  ompParallelFor(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(OmpSupport, ReportsConfiguration) {
#if defined(MCMCPAR_HAVE_OPENMP)
  EXPECT_TRUE(ompAvailable());
  EXPECT_GE(ompMaxThreads(), 1u);
#else
  EXPECT_FALSE(ompAvailable());
  EXPECT_EQ(ompMaxThreads(), 1u);
#endif
}

#if defined(MCMCPAR_HAVE_OPENMP)
// The build claims OpenMP: ompAvailable() must agree, catching regressions
// where the MCMCPAR_HAVE_OPENMP define silently drops out of the build and
// LocalExecutor::InPlaceOmp degrades to serial.
TEST(OmpSupport, BuildDefineImpliesRuntimeAvailability) {
  EXPECT_TRUE(ompAvailable());
}

TEST(OmpSupport, ParallelForRunsInsideOmpRegion) {
  // omp_get_level() > 0 inside the loop proves the pragma engaged instead
  // of the serial fallback. (Unlike omp_in_parallel(), the level also
  // counts regions the runtime made inactive, e.g. under OMP_THREAD_LIMIT=1
  // on constrained machines.)
  std::atomic<int> insideRegion{0};
  ompParallelFor(
      4, [&](std::size_t) { insideRegion.fetch_add(omp_get_level() > 0); },
      2);
  EXPECT_EQ(insideRegion.load(), 4);
}
#endif

TEST(PoolBudgetBlocking, TryAcquireForWakesOnRelease) {
  PoolBudget budget(1);
  ASSERT_EQ(budget.tryAcquire(1), 1u);
  std::atomic<unsigned> granted{0};
  std::jthread waiter([&] {
    granted = budget.tryAcquireFor(1, std::chrono::milliseconds(5000));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  budget.release(1);
  waiter.join();
  EXPECT_EQ(granted.load(), 1u);
  EXPECT_EQ(budget.available(), 0u);  // the waiter holds it now

  // And times out (returning 0) when nothing is ever released.
  EXPECT_EQ(budget.tryAcquireFor(1, std::chrono::milliseconds(20)), 0u);
}

}  // namespace
}  // namespace mcmcpar::par
