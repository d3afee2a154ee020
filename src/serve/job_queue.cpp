#include "serve/job_queue.hpp"

#include <algorithm>
#include <utility>

#include "engine/options.hpp"

namespace mcmcpar::serve {

const char* toString(JobState state) noexcept {
  switch (state) {
    case JobState::Queued:
      return "queued";
    case JobState::Running:
      return "running";
    case JobState::Done:
      return "done";
    case JobState::Failed:
      return "failed";
    case JobState::Cancelled:
      return "cancelled";
  }
  return "unknown";
}

bool isTerminal(JobState state) noexcept {
  return state == JobState::Done || state == JobState::Failed ||
         state == JobState::Cancelled;
}

const char* toString(JobEvent::Type type) noexcept {
  switch (type) {
    case JobEvent::Type::Admitted:
      return "ADMITTED";
    case JobEvent::Type::Started:
      return "STARTED";
    case JobEvent::Type::Progress:
      return "PROGRESS";
    case JobEvent::Type::Frame:
      return "FRAME";
    case JobEvent::Type::Done:
      return "DONE";
    case JobEvent::Type::Failed:
      return "FAILED";
    case JobEvent::Type::Cancelled:
      return "CANCELLED";
  }
  return "UNKNOWN";
}

std::optional<JobState> terminalState(JobEvent::Type type) noexcept {
  switch (type) {
    case JobEvent::Type::Done:
      return JobState::Done;
    case JobEvent::Type::Failed:
      return JobState::Failed;
    case JobEvent::Type::Cancelled:
      return JobState::Cancelled;
    default:
      return std::nullopt;
  }
}

JobQueue::JobQueue(std::size_t retainLimit, std::size_t maxQueued)
    : retainLimit_(retainLimit), maxQueued_(maxQueued) {}

std::uint64_t JobQueue::submit(JobSpec spec, double predictedCostSeconds) {
  std::uint64_t id = 0;
  {
    const std::scoped_lock lock(mutex_);
    if (closed_) {
      throw engine::EngineError("server is shutting down; job rejected");
    }
    if (maxQueued_ != 0 && counts_.queued >= maxQueued_) {
      throw QueueFullError("queue full: " + std::to_string(counts_.queued) +
                           " job(s) already queued (max " +
                           std::to_string(maxQueued_) +
                           "); retry after the backlog drains");
    }
    id = nextId_++;
    Record record;
    record.client = spec.client.empty() ? "default" : spec.client;
    record.predictedCostSeconds = std::max(predictedCostSeconds, 0.0);
    record.admitted = std::chrono::steady_clock::now();
    if (spec.clientWeight) {
      scheduler_.setWeight(record.client, *spec.clientWeight);
    }
    scheduler_.enqueue(record.client, id, record.predictedCostSeconds);
    ClientStats& stats = clients_[record.client];
    stats.client = record.client;
    stats.weight = scheduler_.weight(record.client);
    ++stats.submitted;
    ++stats.queued;
    stats.costQueued += record.predictedCostSeconds;
    record.spec = std::move(spec);
    logLocked(id, records_.emplace(id, std::move(record)).first->second,
              JobEvent::Type::Admitted);
    ++counts_.submitted;
    ++counts_.queued;
  }
  jobReady_.notify_one();
  return id;
}

std::optional<std::uint64_t> JobQueue::waitNext(
    std::chrono::milliseconds timeout) {
  std::unique_lock lock(mutex_);
  jobReady_.wait_for(lock, timeout,
                     [this] { return !scheduler_.empty() || closed_; });
  while (true) {
    const std::optional<DispatchedJob> next = scheduler_.dispatchNext();
    if (!next) return std::nullopt;
    auto& record = records_.at(next->id);
    if (record.state != JobState::Queued) continue;  // defensive
    record.state = JobState::Running;
    record.queueSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      record.admitted)
            .count();
    --counts_.queued;
    ++counts_.running;
    ClientStats& stats = clients_[record.client];
    if (stats.queued > 0) --stats.queued;
    stats.costQueued =
        std::max(0.0, stats.costQueued - record.predictedCostSeconds);
    ++stats.served;
    stats.costServed += record.predictedCostSeconds;
    return next->id;
  }
}

CancelOutcome JobQueue::cancel(std::uint64_t id) {
  std::unique_lock lock(mutex_);
  const auto it = records_.find(id);
  if (it == records_.end()) return CancelOutcome::Unknown;
  Record& record = it->second;
  record.cancelRequested = true;
  if (isTerminal(record.state)) return CancelOutcome::AlreadyTerminal;
  if (record.state == JobState::Running) return CancelOutcome::RunningFlagged;
  // Queued: terminal right away, with an empty cancelled report. The job
  // leaves its client's scheduler bucket so it can never dispatch.
  (void)scheduler_.remove(record.client, id);
  ClientStats& stats = clients_[record.client];
  if (stats.queued > 0) --stats.queued;
  stats.costQueued =
      std::max(0.0, stats.costQueued - record.predictedCostSeconds);
  record.state = JobState::Cancelled;
  record.report.strategy = record.spec.strategy;
  record.report.cancelled = true;
  record.report.threadsUsed = 0;
  record.latencySeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    record.admitted)
          .count();
  record.queueSeconds = record.latencySeconds;
  logLocked(id, record, JobEvent::Type::Cancelled);
  --counts_.queued;
  ++counts_.cancelled;
  terminal_.push_back(id);
  pruneLocked();
  lock.unlock();
  idle_.notify_all();
  return CancelOutcome::QueuedCancelled;
}

bool JobQueue::cancelRequested(std::uint64_t id) const {
  const std::scoped_lock lock(mutex_);
  const auto it = records_.find(id);
  return it != records_.end() && it->second.cancelRequested;
}

void JobQueue::progress(std::uint64_t id, std::uint64_t done,
                        std::uint64_t total) {
  const std::scoped_lock lock(mutex_);
  const auto it = records_.find(id);
  if (it == records_.end()) return;
  Record& record = it->second;
  record.progressDone = done;
  record.progressTotal = total;
  const int decile =
      total == 0 ? -1 : static_cast<int>(10 * done / total);
  if (decile == record.lastDecile) return;
  record.lastDecile = decile;
  logLocked(id, record, JobEvent::Type::Progress, done, total);
}

void JobQueue::append(std::uint64_t id, JobEvent::Type type,
                      std::uint64_t done, std::uint64_t total) {
  if (type != JobEvent::Type::Started && type != JobEvent::Type::Frame) {
    return;
  }
  const std::scoped_lock lock(mutex_);
  const auto it = records_.find(id);
  if (it == records_.end()) return;
  Record& record = it->second;
  if (type == JobEvent::Type::Frame) {
    record.progressDone = done + 1;
    record.progressTotal = total;
  }
  logLocked(id, record, type, done, total);
}

std::optional<std::vector<JobEvent>> JobQueue::events(
    std::uint64_t id, std::uint64_t afterSeq,
    std::chrono::milliseconds timeout) const {
  std::unique_lock lock(mutex_);
  // The predicate looks the record up afresh on every check, since it may
  // be pruned while we wait; its last evaluation holds when wait_for returns.
  const Record* record = nullptr;
  logged_.wait_for(lock, timeout, [&] {
    const auto it = records_.find(id);
    record = it == records_.end() ? nullptr : &it->second;
    return record == nullptr || record->events.back().seq > afterSeq;
  });
  if (record == nullptr) return std::nullopt;
  const std::deque<JobEvent>& log = record->events;
  const auto first = std::partition_point(
      log.begin(), log.end(),
      [&](const JobEvent& event) { return event.seq <= afterSeq; });
  return std::vector<JobEvent>(first, log.end());
}

void JobQueue::finish(std::uint64_t id, engine::RunReport report,
                      std::string error) {
  {
    const std::scoped_lock lock(mutex_);
    const auto it = records_.find(id);
    if (it == records_.end()) return;
    Record& record = it->second;
    if (record.state != JobState::Running) return;
    --counts_.running;
    if (!error.empty()) {
      record.state = JobState::Failed;
      ++counts_.failed;
    } else if (report.cancelled || record.cancelRequested) {
      record.state = JobState::Cancelled;
      ++counts_.cancelled;
    } else {
      record.state = JobState::Done;
      ++counts_.done;
    }
    record.report = std::move(report);
    record.error = std::move(error);
    record.latencySeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      record.admitted)
            .count();
    logLocked(id, record, record.state == JobState::Done
                              ? JobEvent::Type::Done
                          : record.state == JobState::Failed
                              ? JobEvent::Type::Failed
                              : JobEvent::Type::Cancelled);
    terminal_.push_back(id);
    pruneLocked();
  }
  idle_.notify_all();
}

std::optional<JobStatus> JobQueue::status(std::uint64_t id) const {
  const std::scoped_lock lock(mutex_);
  const auto it = records_.find(id);
  if (it == records_.end()) return std::nullopt;
  const Record& record = it->second;
  JobStatus status;
  status.id = id;
  status.state = record.state;
  status.image = record.spec.image;
  status.strategy = record.spec.strategy;
  status.label = record.spec.label.empty() ? record.spec.image
                                           : record.spec.label;
  status.progressDone = record.progressDone;
  status.progressTotal = record.progressTotal;
  status.latencySeconds = record.latencySeconds;
  status.error = record.error;
  status.client = record.client;
  status.predictedCostSeconds = record.predictedCostSeconds;
  status.queueSeconds =
      record.state == JobState::Queued
          ? std::chrono::duration<double>(
                std::chrono::steady_clock::now() - record.admitted)
                .count()
          : record.queueSeconds;
  return status;
}

std::optional<JobSpec> JobQueue::spec(std::uint64_t id) const {
  const std::scoped_lock lock(mutex_);
  const auto it = records_.find(id);
  if (it == records_.end()) return std::nullopt;
  return it->second.spec;
}

std::vector<std::uint64_t> JobQueue::activeIds() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::uint64_t> ids;
  for (const auto& [id, record] : records_) {
    if (!isTerminal(record.state)) ids.push_back(id);
  }
  return ids;
}

std::optional<engine::RunReport> JobQueue::result(std::uint64_t id) const {
  const std::scoped_lock lock(mutex_);
  const auto it = records_.find(id);
  if (it == records_.end() || !isTerminal(it->second.state)) {
    return std::nullopt;
  }
  return it->second.report;
}

JobCounts JobQueue::counts() const {
  const std::scoped_lock lock(mutex_);
  return counts_;
}

std::vector<ClientStats> JobQueue::clientStats() const {
  const std::scoped_lock lock(mutex_);
  std::vector<ClientStats> stats;
  stats.reserve(clients_.size());
  for (const auto& [name, entry] : clients_) {
    stats.push_back(entry);
    stats.back().weight = scheduler_.weight(name);
  }
  return stats;
}

std::vector<SchedulerClientView> JobQueue::schedulerClients() const {
  const std::scoped_lock lock(mutex_);
  return scheduler_.snapshot();
}

void JobQueue::close() {
  {
    const std::scoped_lock lock(mutex_);
    closed_ = true;
  }
  jobReady_.notify_all();
}

bool JobQueue::closed() const {
  const std::scoped_lock lock(mutex_);
  return closed_;
}

bool JobQueue::waitIdle(double timeoutSeconds) {
  std::unique_lock lock(mutex_);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeoutSeconds));
  return idle_.wait_until(lock, deadline, [this] {
    return counts_.queued == 0 && counts_.running == 0;
  });
}

void JobQueue::logLocked(std::uint64_t id, Record& record,
                         JobEvent::Type type, std::uint64_t done,
                         std::uint64_t total) {
  // ADMITTED is logged at admission, so only it sees an empty log.
  const std::uint64_t seq =
      record.events.empty() ? 1 : record.events.back().seq + 1;
  if (record.events.size() >= kMaxEvents) record.events.pop_front();
  record.events.push_back(JobEvent{type, id, done, total, seq});
  logged_.notify_all();
  for (const auto& [token, hook] : watchers_) hook();
}

std::uint64_t JobQueue::addWatcher(std::function<void()> hook) {
  const std::scoped_lock lock(mutex_);
  const std::uint64_t token = nextWatcher_++;
  watchers_.emplace(token, std::move(hook));
  return token;
}

void JobQueue::removeWatcher(std::uint64_t token) {
  const std::scoped_lock lock(mutex_);
  watchers_.erase(token);
}

void JobQueue::pruneLocked() {
  while (retainLimit_ != 0 && terminal_.size() > retainLimit_) {
    records_.erase(terminal_.front());
    terminal_.pop_front();
  }
}

}  // namespace mcmcpar::serve
