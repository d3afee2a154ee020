#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "model/circle.hpp"
#include "par/concurrency.hpp"
#include "serve/image_cache.hpp"
#include "serve/job_line.hpp"
#include "serve/job_queue.hpp"
#include "stream/sequence.hpp"

namespace mcmcpar::obs {
class Collection;
}

namespace mcmcpar::serve {

/// Configuration of a serve::Server instance.
struct ServerOptions {
  /// Total worker-thread budget shared by every concurrent job and its
  /// strategy-internal workers (0 = hardware concurrency). One PoolBudget
  /// lives for the whole server lifetime; per-request work leases from it.
  unsigned threads = 0;

  /// Jobs in flight at once (0 = one per budgeted thread).
  unsigned maxConcurrentJobs = 0;

  /// ImageCache capacity in bytes (0 = unbounded).
  std::size_t cacheBytes = 256u << 20;

  /// Defaults applied to jobs whose line carries no @iters/@trace.
  engine::RunBudget defaultBudget{20000, 0};

  /// Server master seed; jobs without @seed derive per-id seeds from it.
  std::uint64_t seed = 1;

  /// Circle prior applied to every job (mirrors the mcmcpar_run knobs).
  double radius = 9.0;

  /// The "synth" image: a generated scene shared by all synth jobs.
  int synthWidth = 192;
  int synthHeight = 192;
  int synthCells = 10;

  /// Terminal job records retained for RESULT queries.
  std::size_t retainJobs = 4096;

  /// Bounded admission: reject new submissions while this many jobs are
  /// already queued (0 = unbounded). Rejections surface as QueueFullError
  /// (`ERR QUEUE_FULL` over the socket) so clients can back off instead of
  /// growing the backlog without bound.
  std::size_t maxQueued = 0;

  /// Default endpoint fleet, as the `endpoints=` option value
  /// (host:port[*weight][,...]). When non-empty, a submitted "sharded" job
  /// with backend=socket but no endpoints/endpoints-file option fans out
  /// over this fleet — mcmcpar_serve --endpoints-file fills it in. Kept as
  /// the option string (not parsed structs) so the serve layer stays free
  /// of shard-layer types.
  std::string fleetEndpoints;

  /// Test hook (mcmcpar_serve --delay-ms): every job sleeps this long
  /// after Started before doing real work, making the server an
  /// artificially slow endpoint for straggler-hedging tests and smoke
  /// runs. The sleep polls cancellation, so cancels stay prompt.
  unsigned startDelayMs = 0;
};

/// A consistent point-in-time summary for STATS and shutdown logs.
struct ServerStats {
  JobCounts jobs;
  ImageCacheStats cache;
  unsigned threadBudget = 0;
  unsigned budgetAvailable = 0;
  unsigned workers = 0;
  double uptimeSeconds = 0.0;
  bool draining = false;
  std::vector<ClientStats> clients;  ///< weighted-fair admission buckets
};

/// The persistent serving core: owns one par::PoolBudget, one ImageCache
/// and one JobQueue for its whole lifetime, and executes admitted jobs on
/// resident worker threads — so repeated requests skip process startup,
/// PGM decode and budget construction entirely.
///
/// Front-ends (the socket, every `mcmcpar_run` mode) translate their input
/// into submit()/cancel()/status()/result() calls and follow a job's
/// progress by reading its event log through events(). The server itself
/// speaks no protocol.
class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admit one job. Throws engine::EngineError on an unknown strategy,
  /// malformed options, or after shutdown began; throws img::PnmError when
  /// the image path cannot be read (the image is resolved through the cache
  /// at admission, so a bad path fails the request, not the worker).
  ///
  /// `inlineImage` satisfies a spec with `@image=inline`: the front-end
  /// resolved the image from its own upload namespace (UPLOAD frames are
  /// per-connection) and passes it here pre-decoded. An inline spec without
  /// an image is rejected — manifest files cannot carry pixels.
  ///
  /// `inlineFrames` satisfies an inline `@sequence=N` spec the same way:
  /// the front-end gathered the N uploaded frames (ids `<image>.0` ..
  /// `<image>.N-1`) and passes them in order. Sequence specs naming paths
  /// resolve their frames here at admission instead (glob expansion, or a
  /// generated drifting scene for the "synth" image), so a bad frame fails
  /// the request, not the worker.
  [[nodiscard]] std::uint64_t submit(
      const JobSpec& spec,
      std::shared_ptr<const img::ImageF> inlineImage = nullptr,
      std::vector<std::shared_ptr<const img::ImageF>> inlineFrames = {});

  /// Intern an uploaded frame into the image cache under its content hash
  /// (UPLOAD). `oneshot` bypasses insertion so single-use tiles don't evict
  /// warm entries; a resident duplicate is returned either way.
  [[nodiscard]] std::shared_ptr<const img::ImageF> internUpload(
      std::uint64_t hash, img::ImageF image, bool oneshot);

  /// Parse a protocol job line and submit it.
  [[nodiscard]] std::uint64_t submitLine(const std::string& line);

  CancelOutcome cancel(std::uint64_t id);
  [[nodiscard]] std::optional<JobStatus> status(std::uint64_t id) const;
  [[nodiscard]] std::optional<engine::RunReport> result(
      std::uint64_t id) const;
  [[nodiscard]] ServerStats stats() const;

  /// The job's logged events past `afterSeq`, blocking up to `timeout` for
  /// the first (see JobQueue::events). WAIT replays and follows this log.
  [[nodiscard]] std::optional<std::vector<JobEvent>> events(
      std::uint64_t id, std::uint64_t afterSeq,
      std::chrono::milliseconds timeout) const {
    return queue_.events(id, afterSeq, timeout);
  }

  /// Graceful shutdown: stop admitting, wait up to `drainTimeoutSeconds`
  /// for queued+running jobs to finish, then cancel whatever is left and
  /// join the workers. Idempotent; the destructor calls it with no grace.
  void shutdown(double drainTimeoutSeconds);

  [[nodiscard]] bool draining() const { return queue_.closed(); }

  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }

  /// The ground truth of the "synth" image, so a front-end can score its
  /// detections (mcmcpar_run's F1 column).
  [[nodiscard]] const std::vector<model::Circle>& synthTruth() const noexcept {
    return synthTruth_;
  }

 private:
  void workerLoop(const std::stop_token& stop);
  /// Scrape-time collector registered with obs::Registry::global(): renders
  /// stats() (queue counts, cache, budget, per-client fairness, deficits)
  /// so METRICS, STATS and the shutdown summary share one source of truth.
  void collectMetrics(obs::Collection& out) const;
  [[nodiscard]] std::shared_ptr<const img::ImageF> resolveImage(
      const std::string& path, bool oneshot);
  [[nodiscard]] std::vector<stream::Frame> resolveSequenceFrames(
      const JobSpec& spec,
      std::vector<std::shared_ptr<const img::ImageF>> inlineFrames);
  [[nodiscard]] engine::RunReport runSequenceJob(
      std::uint64_t id, const JobSpec& spec,
      std::vector<stream::Frame> frames);

  ServerOptions options_;
  par::PoolBudget budget_;
  ImageCache cache_;
  JobQueue queue_;
  std::shared_ptr<const img::ImageF> synthImage_;
  std::vector<model::Circle> synthTruth_;
  std::chrono::steady_clock::time_point started_;

  std::mutex imageMutex_;  ///< pins job-id -> frame(s) while the job is alive
  std::map<std::uint64_t, std::vector<stream::Frame>> jobImages_;

  std::mutex shutdownMutex_;  ///< serialises shutdown() callers
  bool stopped_ = false;
  std::uint64_t metricsCollector_ = 0;  ///< obs registry collector token
  unsigned workerCount_ = 0;  ///< immutable after construction (stats())
  std::vector<std::jthread> workers_;  ///< last member: joins first
};

}  // namespace mcmcpar::serve
