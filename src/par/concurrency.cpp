#include "par/concurrency.hpp"

#include <algorithm>
#include <thread>

#include "par/thread_pool.hpp"

namespace mcmcpar::par {

unsigned resolveThreadCount(unsigned requested) noexcept {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

PoolBudget::PoolBudget(unsigned total)
    : total_(resolveThreadCount(total)), available_(total_) {}

unsigned PoolBudget::available() const {
  const std::scoped_lock lock(mutex_);
  return available_;
}

unsigned PoolBudget::tryAcquire(unsigned want) {
  const std::scoped_lock lock(mutex_);
  const unsigned granted = std::min(want, available_);
  available_ -= granted;
  return granted;
}

unsigned PoolBudget::tryAcquireFor(unsigned want,
                                   std::chrono::milliseconds timeout) {
  std::unique_lock lock(mutex_);
  if (want == 0) return 0;
  released_.wait_for(lock, timeout, [this] { return available_ > 0; });
  const unsigned granted = std::min(want, available_);
  available_ -= granted;
  return granted;
}

void PoolBudget::release(unsigned count) noexcept {
  {
    const std::scoped_lock lock(mutex_);
    available_ = std::min(total_, available_ + count);
  }
  released_.notify_all();
}

PoolLease PoolLease::acquire(PoolBudget* budget, unsigned requested) {
  const unsigned want = resolveThreadCount(requested);
  if (budget == nullptr) return PoolLease(nullptr, 0, want);
  // The calling thread is charged to the budget by its owner; lease only
  // the extra workers, and never more than the budget could ever hold.
  const unsigned capped = std::min(want, budget->total());
  const unsigned extras = capped > 1 ? budget->tryAcquire(capped - 1) : 0;
  return PoolLease(budget, extras, 1 + extras);
}

PoolLease::PoolLease() noexcept = default;

PoolLease::PoolLease(PoolBudget* budget, unsigned granted,
                     unsigned threads) noexcept
    : budget_(budget), granted_(granted), threads_(threads) {}

PoolLease::~PoolLease() { release(); }

PoolLease::PoolLease(PoolLease&& other) noexcept
    : budget_(other.budget_),
      granted_(other.granted_),
      threads_(other.threads_),
      pool_(std::move(other.pool_)) {
  other.budget_ = nullptr;
  other.granted_ = 0;
  other.threads_ = 1;
}

PoolLease& PoolLease::operator=(PoolLease&& other) noexcept {
  if (this != &other) {
    release();
    budget_ = other.budget_;
    granted_ = other.granted_;
    threads_ = other.threads_;
    pool_ = std::move(other.pool_);
    other.budget_ = nullptr;
    other.granted_ = 0;
    other.threads_ = 1;
  }
  return *this;
}

void PoolLease::parallelFor(std::size_t n,
                            const std::function<void(std::size_t)>& fn) {
  if (threads_ <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // ThreadPool::parallelFor drains indices on the calling thread too, so
  // threads_ - 1 workers plus the caller are exactly the leased threads.
  if (!pool_) pool_ = std::make_unique<ThreadPool>(threads_ - 1);
  pool_->parallelFor(n, fn);
}

void PoolLease::release() noexcept {
  // Join the workers before their threads go back to the budget.
  pool_.reset();
  if (budget_ != nullptr && granted_ > 0) budget_->release(granted_);
  budget_ = nullptr;
  granted_ = 0;
  threads_ = 1;
}

}  // namespace mcmcpar::par
