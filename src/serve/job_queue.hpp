#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/options.hpp"
#include "serve/fair_queue.hpp"
#include "serve/job_line.hpp"

namespace mcmcpar::serve {

/// Thrown by JobQueue::submit when bounded admission is at capacity. A
/// distinct type so the socket front-end can answer `ERR QUEUE_FULL`
/// (docs/PROTOCOL.md) while other admission failures stay `BAD_JOB`.
class QueueFullError : public engine::EngineError {
 public:
  using engine::EngineError::EngineError;
};

/// Lifecycle of one admitted job.
enum class JobState {
  Queued,     ///< admitted, waiting for a worker
  Running,    ///< a worker is executing it
  Done,       ///< ran its full budget
  Failed,     ///< threw while preparing or running
  Cancelled,  ///< cancelled while queued, mid-run, or by shutdown
};

[[nodiscard]] const char* toString(JobState state) noexcept;
[[nodiscard]] bool isTerminal(JobState state) noexcept;

/// A light status snapshot (no RunReport copy; see JobQueue::result).
struct JobStatus {
  std::uint64_t id = 0;
  JobState state = JobState::Queued;
  std::string image;
  std::string strategy;
  std::string label;
  std::uint64_t progressDone = 0;
  std::uint64_t progressTotal = 0;
  double latencySeconds = 0.0;  ///< admission -> terminal (0 while active)
  std::string error;            ///< Failed only
  std::string client;           ///< fairness bucket ("default" by default)
  double queueSeconds = 0.0;    ///< admission -> dispatch (live while queued)
  double predictedCostSeconds = 0.0;  ///< cost charged at admission
};

/// Aggregate queue counters.
struct JobCounts {
  std::uint64_t submitted = 0;
  std::size_t queued = 0;
  std::size_t running = 0;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
};

/// Per-client fairness accounting, persisted across a client's idle
/// periods (unlike the scheduler's active round). STATS renders these.
struct ClientStats {
  std::string client;
  unsigned weight = 1;
  std::uint64_t submitted = 0;
  std::size_t queued = 0;
  std::uint64_t served = 0;        ///< jobs handed to a worker
  double costQueued = 0.0;         ///< predicted seconds still waiting
  double costServed = 0.0;         ///< predicted seconds dispatched
};

/// One event of a job's log, as WAIT streams it (docs/PROTOCOL.md §Events).
struct JobEvent {
  enum class Type { Admitted, Started, Progress, Frame, Done, Failed,
                    Cancelled };
  Type type = Type::Admitted;
  std::uint64_t id = 0;
  std::uint64_t done = 0;   ///< Progress: iterations done.
                            ///< Frame: 0-based index of the finished frame.
  std::uint64_t total = 0;  ///< Progress: iteration budget.
                            ///< Frame: frames in the sequence.
  /// The event's position in its job's log, from 1 (ADMITTED). A replay
  /// from the start of the log therefore numbers 1..n without gaps.
  std::uint64_t seq = 0;
};

[[nodiscard]] const char* toString(JobEvent::Type type) noexcept;

/// The terminal state a Done/Failed/Cancelled event reports (nullopt for
/// the other types).
[[nodiscard]] std::optional<JobState> terminalState(
    JobEvent::Type type) noexcept;

/// What JobQueue::cancel found, so CANCEL can answer which case it was.
enum class CancelOutcome {
  Unknown,          ///< no such job
  AlreadyTerminal,  ///< nothing to do
  QueuedCancelled,  ///< went straight to Cancelled, never ran
  RunningFlagged,   ///< sticky flag raised; the worker stops at its quantum
};

/// The admission queue of the serving front-end: jobs enter continuously
/// (no whole-batch barrier), workers pull them in weighted-fair order
/// (DeficitScheduler over per-client buckets; one bucket degenerates to
/// FIFO), observers read status snapshots by id. All methods are
/// thread-safe.
///
/// Each record keeps its job's event log. Every event is appended under the
/// queue mutex by the method that makes the state change it reports —
/// ADMITTED by submit, CANCELLED by cancel of a queued job, the terminal
/// event by finish, decile PROGRESS by progress, STARTED and FRAME by
/// append — so a terminal status() implies the log already ends with its
/// terminal event, and an event's seq is its position in the log.
///
/// Terminal records are retained for RESULT queries, capped at
/// `retainLimit` (oldest forgotten first) so a long-running server does not
/// grow without bound.
class JobQueue {
 public:
  /// `maxQueued` bounds admission: submit() throws QueueFullError while
  /// that many jobs are already waiting (0 = unbounded). Running jobs do
  /// not count — the cap is on the backlog, not on concurrency.
  explicit JobQueue(std::size_t retainLimit = 4096,
                    std::size_t maxQueued = 0);

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Admit a job; returns its id (ids start at 1 and never repeat).
  /// `predictedCostSeconds` is the job's fairness currency — the §IX
  /// runtime prediction charged against its client's deficit at dispatch
  /// (0 still charges a minimal amount). The client comes from the spec's
  /// @client directive ("default" when absent). Throws engine::EngineError
  /// once close() has been called, and QueueFullError when the queued
  /// backlog is at `maxQueued`.
  [[nodiscard]] std::uint64_t submit(JobSpec spec,
                                     double predictedCostSeconds = 0.0);

  /// Block until a queued job is available (marking it Running and
  /// returning its id), the timeout elapses (nullopt), or the queue is
  /// closed *and* empty (nullopt forever after). Jobs are handed out in
  /// deficit-round-robin order across clients.
  [[nodiscard]] std::optional<std::uint64_t> waitNext(
      std::chrono::milliseconds timeout);

  /// Request cancellation. Queued jobs become Cancelled immediately;
  /// running jobs get a sticky flag their RunHooks polls.
  CancelOutcome cancel(std::uint64_t id);

  /// The sticky per-job cancel flag, set by cancel(). Server::shutdown
  /// sets it on every active id once its drain timeout expires.
  [[nodiscard]] bool cancelRequested(std::uint64_t id) const;

  /// Record a progress beat of a running job. Every beat updates STATUS;
  /// a PROGRESS event is logged only when the decile changes, so hot
  /// strategies log at most 11 of them.
  void progress(std::uint64_t id, std::uint64_t done, std::uint64_t total);

  /// Log a worker-side event: STARTED, or FRAME (`done` = 0-based index of
  /// the finished frame, `total` = frames), which also sets STATUS progress
  /// to done+1 of total so a sequence job's progress counts frames. Other
  /// types are logged by the methods that make their state change, and are
  /// ignored here.
  void append(std::uint64_t id, JobEvent::Type type, std::uint64_t done = 0,
              std::uint64_t total = 0);

  /// The logged events of a job with seq > `afterSeq`, in seq order. Blocks
  /// until there is at least one or `timeout` elapses (then the batch is
  /// empty). nullopt for unknown or already-forgotten ids. The log keeps
  /// the newest kMaxEvents, so a replay of a longer sequence job starts at
  /// the oldest retained event; the terminal event is always retained.
  [[nodiscard]] std::optional<std::vector<JobEvent>> events(
      std::uint64_t id, std::uint64_t afterSeq,
      std::chrono::milliseconds timeout) const;

  /// Call `hook` after every append to any job's log. It runs under the
  /// queue lock, so once removeWatcher() returns no call is in flight; it
  /// must not block or call back into the queue. A poll loop that follows
  /// logs with zero-timeout events() calls uses it to wake. Returns a
  /// token for removeWatcher().
  [[nodiscard]] std::uint64_t addWatcher(std::function<void()> hook);
  void removeWatcher(std::uint64_t token);

  /// Bound of one job's event log (a glob sequence can name arbitrarily
  /// many frames).
  static constexpr std::size_t kMaxEvents = 4096;

  /// Move a Running job to its terminal state: Failed when `error` is
  /// non-empty, Cancelled when the report says so, Done otherwise.
  void finish(std::uint64_t id, engine::RunReport report, std::string error);

  [[nodiscard]] std::optional<JobStatus> status(std::uint64_t id) const;

  /// The submitted spec of a known job (workers read it to build the run).
  [[nodiscard]] std::optional<JobSpec> spec(std::uint64_t id) const;

  /// Ids not yet terminal, in admission order (shutdown cancels these).
  [[nodiscard]] std::vector<std::uint64_t> activeIds() const;

  /// The final RunReport of a terminal job (nullopt while queued/running or
  /// for unknown/forgotten ids).
  [[nodiscard]] std::optional<engine::RunReport> result(
      std::uint64_t id) const;

  [[nodiscard]] JobCounts counts() const;

  /// Every client ever seen, sorted by name (STATS and tests).
  [[nodiscard]] std::vector<ClientStats> clientStats() const;

  /// The scheduler's live per-client round (deficit balances) — the
  /// METRICS collector renders these as gauges.
  [[nodiscard]] std::vector<SchedulerClientView> schedulerClients() const;

  /// Stop admitting (submit() throws from now on); waiters drain what is
  /// already queued.
  void close();
  [[nodiscard]] bool closed() const;

  /// Block until nothing is queued or running, or `timeoutSeconds` elapses;
  /// true when drained.
  [[nodiscard]] bool waitIdle(double timeoutSeconds);

 private:
  struct Record {
    JobSpec spec;
    JobState state = JobState::Queued;
    bool cancelRequested = false;
    std::uint64_t progressDone = 0;
    std::uint64_t progressTotal = 0;
    std::chrono::steady_clock::time_point admitted;
    double latencySeconds = 0.0;
    std::string error;
    engine::RunReport report;
    std::deque<JobEvent> events;  ///< the newest kMaxEvents of the log
    int lastDecile = -1;          ///< decile of the last PROGRESS event
    std::string client;                 ///< fairness bucket
    double queueSeconds = 0.0;          ///< admission -> dispatch
    double predictedCostSeconds = 0.0;  ///< DRR charge at admission
  };

  void logLocked(std::uint64_t id, Record& record, JobEvent::Type type,
                 std::uint64_t done = 0, std::uint64_t total = 0);
  void pruneLocked();

  mutable std::mutex mutex_;
  std::condition_variable jobReady_;  ///< submit -> waitNext
  std::condition_variable idle_;      ///< finish -> waitIdle
  mutable std::condition_variable logged_;  ///< any append -> events
  std::map<std::uint64_t, std::function<void()>> watchers_;  ///< same
  std::uint64_t nextWatcher_ = 1;
  std::map<std::uint64_t, Record> records_;
  DeficitScheduler scheduler_;          ///< Queued ids, weighted-fair order
  std::map<std::string, ClientStats> clients_;  ///< persists across idling
  std::deque<std::uint64_t> terminal_;  ///< retention order for pruning
  std::size_t retainLimit_;
  std::size_t maxQueued_;
  std::uint64_t nextId_ = 1;
  JobCounts counts_;
  bool closed_ = false;
};

}  // namespace mcmcpar::serve
