#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <initializer_list>
#include <thread>
#include <utility>

#include "core/runtime_predictor.hpp"
#include "engine/registry.hpp"
#include "img/synth.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mcmcpar::serve {

using namespace std::chrono_literals;

Server::Server(ServerOptions options)
    : options_(options),
      budget_(options.threads),
      cache_(options.cacheBytes),
      queue_(options.retainJobs, options.maxQueued),
      started_(std::chrono::steady_clock::now()) {
  img::Scene scene = img::generateScene(
      img::cellScene(options_.synthWidth, options_.synthHeight,
                     options_.synthCells, options_.radius, options_.seed));
  synthImage_ = std::make_shared<const img::ImageF>(std::move(scene.image));
  synthTruth_.reserve(scene.truth.size());
  for (const img::SceneCircle& t : scene.truth) {
    synthTruth_.push_back({t.x, t.y, t.r});
  }

  unsigned workers = options_.maxConcurrentJobs != 0
                         ? options_.maxConcurrentJobs
                         : budget_.total();
  workers = std::clamp(workers, 1u, budget_.total());
  workerCount_ = workers;
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back(
        [this](const std::stop_token& stop) { workerLoop(stop); });
  }
  metricsCollector_ = obs::Registry::global().addCollector(
      [this](obs::Collection& out) { collectMetrics(out); });
}

Server::~Server() {
  // Deregister before any teardown: a concurrent METRICS scrape must not
  // walk a half-destroyed server. removeCollector returns only once no
  // scrape is inside the callback (both run under the registry mutex).
  obs::Registry::global().removeCollector(metricsCollector_);
  shutdown(0.0);
}

std::shared_ptr<const img::ImageF> Server::resolveImage(
    const std::string& path, bool oneshot) {
  if (path == "synth") return synthImage_;
  return cache_.get(path, oneshot);
}

std::shared_ptr<const img::ImageF> Server::internUpload(std::uint64_t hash,
                                                        img::ImageF image,
                                                        bool oneshot) {
  return cache_.intern(hash, std::move(image), oneshot);
}

namespace {

/// Does a raw option token list carry any `key=` for one of `keys`?
bool hasOptionKey(const std::vector<std::string>& options,
                  std::initializer_list<const char*> keys) {
  for (const std::string& option : options) {
    for (const char* key : keys) {
      if (option.rfind(std::string(key) + "=", 0) == 0) return true;
    }
  }
  return false;
}

/// The job-level prior/count directives applied over the server defaults —
/// shared by the single-image and sequence execution paths.
engine::Problem problemFor(const ServerOptions& options, const JobSpec& spec) {
  engine::Problem problem;
  // @radius overrides the server-wide prior knob (shard coordinators use
  // it so remote tiles sample under the coordinator's prior);
  // @radius-std/min/max carry an exact prior instead of the derived rule,
  // and @count pins the expected artifact count the way a local caller
  // sets estimateCount=false.
  const double radius = spec.radius.value_or(options.radius);
  problem.prior.radiusMean = radius;
  problem.prior.radiusStd = spec.radiusStd.value_or(radius / 8.0);
  problem.prior.radiusMin = spec.radiusMin.value_or(radius / 2.0);
  problem.prior.radiusMax = spec.radiusMax.value_or(radius * 1.8);
  if (spec.expectedCount) {
    problem.estimateCount = false;
    problem.prior.expectedCount = *spec.expectedCount;
  }
  return problem;
}

engine::RunBudget budgetFor(const ServerOptions& options,
                            const JobSpec& spec) {
  engine::RunBudget budget = options.defaultBudget;
  if (spec.iterations) budget.iterations = *spec.iterations;
  if (spec.trace) budget.traceInterval = *spec.trace;
  return budget;
}

}  // namespace

std::vector<stream::Frame> Server::resolveSequenceFrames(
    const JobSpec& spec,
    std::vector<std::shared_ptr<const img::ImageF>> inlineFrames) {
  constexpr std::uint64_t kMaxSynthFrames = 4096;
  std::vector<stream::Frame> frames;
  const std::optional<std::uint64_t> count =
      stream::parseFrameCount(spec.sequence);

  if (spec.inlineImage) {
    if (!count) {
      throw engine::EngineError(
          "@sequence with @image=inline requires a decimal frame count, "
          "got '" +
          spec.sequence + "'");
    }
    if (inlineFrames.size() != *count) {
      throw engine::EngineError(
          "@sequence=" + spec.sequence + " requires uploads '" + spec.image +
          ".0' .. '" + spec.image + "." + std::to_string(*count - 1) +
          "' on the submitting connection (docs/PROTOCOL.md Sequences)");
    }
    frames.reserve(inlineFrames.size());
    for (std::size_t k = 0; k < inlineFrames.size(); ++k) {
      frames.push_back(stream::Frame{std::move(inlineFrames[k]),
                                     spec.image + "." + std::to_string(k)});
    }
    return frames;
  }

  if (count) {
    if (spec.image != "synth") {
      throw engine::EngineError(
          "a decimal @sequence count requires @image=inline uploads or the "
          "'synth' image; use a glob pattern for on-disk frames");
    }
    if (*count > kMaxSynthFrames) {
      throw engine::EngineError("@sequence=" + spec.sequence +
                                ": at most " +
                                std::to_string(kMaxSynthFrames) +
                                " synth frames per job");
    }
    // The served drifting scene: same geometry as the "synth" still, with
    // circles moving deterministically from the server seed.
    img::DriftSpec drift;
    drift.scene =
        img::cellScene(options_.synthWidth, options_.synthHeight,
                       options_.synthCells, options_.radius, options_.seed);
    drift.frames = static_cast<int>(*count);
    std::vector<img::Scene> scenes = img::generateDriftingSequence(drift);
    frames.reserve(scenes.size());
    for (std::size_t k = 0; k < scenes.size(); ++k) {
      frames.push_back(stream::Frame{
          std::make_shared<const img::ImageF>(std::move(scenes[k].image)),
          "synth." + std::to_string(k)});
    }
    return frames;
  }

  const std::vector<std::string> paths =
      stream::expandFrameGlob(spec.sequence);
  if (paths.empty()) {
    throw engine::EngineError("@sequence glob '" + spec.sequence +
                              "' matched no files");
  }
  frames.reserve(paths.size());
  for (const std::string& path : paths) {
    frames.push_back(stream::Frame{resolveImage(path, spec.oneshot), path});
  }
  return frames;
}

std::uint64_t Server::submit(
    const JobSpec& spec, std::shared_ptr<const img::ImageF> inlineImage,
    std::vector<std::shared_ptr<const img::ImageF>> inlineFrames) {
  JobSpec admitted = spec;
  // A sharded socket job that names no endpoints inherits the server's
  // fleet (--endpoints-file): the server is the natural owner of "which
  // hosts are mine to fan out over".
  if (!options_.fleetEndpoints.empty() && admitted.strategy == "sharded" &&
      hasOptionKey(admitted.options, {"backend"}) &&
      std::find(admitted.options.begin(), admitted.options.end(),
                "backend=socket") != admitted.options.end() &&
      !hasOptionKey(admitted.options, {"endpoints", "endpoints-file"})) {
    admitted.options.push_back("endpoints=" + options_.fleetEndpoints);
  }

  // Resolve the image(s) and validate strategy + options at admission, so
  // a bad request fails the submitter with a descriptive error instead of
  // failing later on a worker thread.
  std::vector<stream::Frame> frames;
  if (!admitted.sequence.empty()) {
    frames = resolveSequenceFrames(admitted, std::move(inlineFrames));
  } else if (admitted.inlineImage) {
    if (inlineImage == nullptr) {
      throw engine::EngineError(
          "@image=inline requires a preceding UPLOAD '" + admitted.image +
          "' on the submitting connection (docs/PROTOCOL.md Binary frames)");
    }
    frames.push_back(stream::Frame{std::move(inlineImage), admitted.image});
  } else {
    frames.push_back(stream::Frame{
        resolveImage(admitted.image, admitted.oneshot), admitted.image});
  }
  (void)engine::StrategyRegistry::builtin().create(
      admitted.strategy, engine::ExecResources{}, admitted.options);

  // Predicted cost at admission: the §IX runtime model over the job's
  // iteration budget (times its frame count for sequences) is the currency
  // the weighted-fair scheduler charges against the client's deficit.
  // Activity is unknown this side of the density scan, so 0 — fairness
  // only needs costs comparable across jobs, not absolutely accurate.
  const double predictedCost =
      core::predictCostSeconds(budgetFor(options_, admitted).iterations,
                               0.0) *
      static_cast<double>(std::max<std::size_t>(frames.size(), 1));

  std::uint64_t id = 0;
  {
    // Hold imageMutex_ across admission so a worker that dequeues the job
    // immediately blocks here until its frames are pinned.
    const std::scoped_lock lock(imageMutex_);
    id = queue_.submit(admitted, predictedCost);
    jobImages_.emplace(id, std::move(frames));
  }
  return id;
}

std::uint64_t Server::submitLine(const std::string& line) {
  return submit(parseManifestLine(line));
}

CancelOutcome Server::cancel(std::uint64_t id) {
  const CancelOutcome outcome = queue_.cancel(id);
  if (outcome == CancelOutcome::QueuedCancelled) {
    const std::scoped_lock lock(imageMutex_);
    jobImages_.erase(id);
  }
  return outcome;
}

std::optional<JobStatus> Server::status(std::uint64_t id) const {
  return queue_.status(id);
}

std::optional<engine::RunReport> Server::result(std::uint64_t id) const {
  return queue_.result(id);
}

ServerStats Server::stats() const {
  ServerStats stats;
  stats.jobs = queue_.counts();
  stats.cache = cache_.stats();
  stats.threadBudget = budget_.total();
  stats.budgetAvailable = budget_.available();
  stats.workers = workerCount_;  // workers_ itself is mutated by shutdown
  stats.uptimeSeconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started_)
                            .count();
  stats.draining = queue_.closed();
  stats.clients = queue_.clientStats();
  return stats;
}

void Server::collectMetrics(obs::Collection& out) const {
  const ServerStats s = stats();
  const auto jobs = [&](const char* state, std::uint64_t count) {
    out.counter("mcmcpar_serve_jobs_finished_total",
                "Jobs reaching a terminal state, by state.",
                {{"state", state}}, static_cast<double>(count));
  };
  out.counter("mcmcpar_serve_jobs_submitted_total", "Jobs admitted.", {},
              static_cast<double>(s.jobs.submitted));
  jobs("done", s.jobs.done);
  jobs("failed", s.jobs.failed);
  jobs("cancelled", s.jobs.cancelled);
  out.gauge("mcmcpar_serve_jobs_queued", "Jobs waiting for a worker.", {},
            static_cast<double>(s.jobs.queued));
  out.gauge("mcmcpar_serve_jobs_running", "Jobs executing right now.", {},
            static_cast<double>(s.jobs.running));

  out.counter("mcmcpar_serve_cache_hits_total", "ImageCache lookup hits.",
              {}, static_cast<double>(s.cache.hits));
  out.counter("mcmcpar_serve_cache_misses_total",
              "ImageCache lookups that had to decode.", {},
              static_cast<double>(s.cache.misses));
  out.counter("mcmcpar_serve_cache_evictions_total",
              "LRU entries dropped for capacity.", {},
              static_cast<double>(s.cache.evictions));
  out.counter("mcmcpar_serve_cache_oneshot_bypasses_total",
              "Misses passed through uncached (oneshot).", {},
              static_cast<double>(s.cache.oneshotBypasses));
  out.counter("mcmcpar_serve_cache_interned_total",
              "Uploaded frames inserted by content hash.", {},
              static_cast<double>(s.cache.interned));
  out.gauge("mcmcpar_serve_cache_entries", "Resident cache entries.", {},
            static_cast<double>(s.cache.entries));
  out.gauge("mcmcpar_serve_cache_bytes", "Resident cache pixel bytes.", {},
            static_cast<double>(s.cache.bytes));
  out.gauge("mcmcpar_serve_cache_hit_ratio",
            "hits / (hits + misses); see ImageCacheStats::hitRate.", {},
            s.cache.hitRate());

  out.gauge("mcmcpar_serve_thread_budget", "Worker-thread budget.", {},
            static_cast<double>(s.threadBudget));
  out.gauge("mcmcpar_serve_budget_available",
            "Unleased threads in the budget.", {},
            static_cast<double>(s.budgetAvailable));
  out.gauge("mcmcpar_serve_workers", "Resident worker threads.", {},
            static_cast<double>(s.workers));
  out.gauge("mcmcpar_serve_uptime_seconds",
            "Seconds since this server was constructed.", {},
            s.uptimeSeconds);
  out.gauge("mcmcpar_serve_draining",
            "1 while the admission queue is closed.", {},
            s.draining ? 1.0 : 0.0);

  for (const ClientStats& c : s.clients) {
    const obs::Labels by{{"client", c.client}};
    out.gauge("mcmcpar_serve_client_weight", "DRR scheduling weight.", by,
              static_cast<double>(c.weight));
    out.counter("mcmcpar_serve_client_submitted_total",
                "Jobs admitted for this client.", by,
                static_cast<double>(c.submitted));
    out.counter("mcmcpar_serve_client_served_total",
                "Jobs handed to a worker for this client.", by,
                static_cast<double>(c.served));
    out.gauge("mcmcpar_serve_client_queued",
              "Jobs of this client still waiting.", by,
              static_cast<double>(c.queued));
    out.gauge("mcmcpar_serve_client_cost_queued_seconds",
              "Predicted seconds of work still waiting.", by, c.costQueued);
    out.counter("mcmcpar_serve_client_cost_served_seconds_total",
                "Predicted seconds of work dispatched.", by, c.costServed);
  }
  for (const SchedulerClientView& view : queue_.schedulerClients()) {
    out.gauge("mcmcpar_serve_client_deficit_seconds",
              "Unspent DRR dispatch credit.", {{"client", view.client}},
              view.deficit);
  }
}

engine::RunReport Server::runSequenceJob(std::uint64_t id,
                                         const JobSpec& spec,
                                         std::vector<stream::Frame> frames) {
  stream::SequenceSpec sequence;
  sequence.strategy = spec.strategy;
  sequence.options = spec.options;
  sequence.problem = problemFor(options_, spec);
  sequence.budget = budgetFor(options_, spec);  // per frame
  sequence.warmStart = spec.warmStart.value_or(true);
  sequence.track = spec.track.value_or(true);
  const std::size_t frameCount = frames.size();
  sequence.frames = std::move(frames);

  engine::ExecResources resources;
  resources.threads = options_.threads;
  resources.poolBudget = &budget_;
  resources.seed =
      spec.seed ? *spec.seed : engine::deriveJobSeed(options_.seed, id);

  stream::SequenceHooks hooks;
  hooks.cancelRequested = [this, id] { return queue_.cancelRequested(id); };
  // One FRAME event per finished frame, never throttled — the per-frame
  // stream IS the product of a sequence job. STATUS progress counts frames
  // instead of iterations.
  hooks.onFrame = [this, id, frameCount](const stream::FrameResult& frame,
                                         const engine::RunReport&) {
    queue_.append(id, JobEvent::Type::Frame, frame.index, frameCount);
  };
  return stream::SequenceRunner().run(sequence, resources, hooks);
}

void Server::workerLoop(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    const std::optional<std::uint64_t> next = queue_.waitNext(100ms);
    if (!next) {
      if (queue_.closed()) break;  // drained and no more admissions
      continue;
    }
    const std::uint64_t id = *next;
    const std::optional<JobSpec> spec = queue_.spec(id);
    // The dispatch snapshot carries the fairness bucket and the
    // admission-to-dispatch wait stamped by waitNext.
    const std::optional<JobStatus> dispatched = queue_.status(id);
    if (dispatched) {
      obs::Registry& registry = obs::Registry::global();
      registry
          .counter("mcmcpar_serve_dispatches_total",
                   "Jobs handed to a worker, by fairness bucket.",
                   {{"client", dispatched->client}})
          .add();
      registry
          .histogram("mcmcpar_serve_queue_wait_seconds",
                     "Admission-to-dispatch wait per fairness bucket.",
                     obs::latencyBuckets(), {{"client", dispatched->client}})
          .observe(dispatched->queueSeconds);
    }
    std::vector<stream::Frame> frames;
    {
      const std::scoped_lock lock(imageMutex_);
      const auto it = jobImages_.find(id);
      if (it != jobImages_.end()) frames = it->second;
    }

    // Reacquire this worker's thread from the long-lived budget (released
    // below when the job ends, so idle workers leave their thread leasable
    // by running strategies). A cancel while waiting aborts the wait.
    bool charged = false;
    if (spec && !frames.empty()) {
      while (!queue_.cancelRequested(id)) {
        if (budget_.tryAcquireFor(1, 100ms) == 1) {
          charged = true;
          break;
        }
      }
    }

    engine::RunReport report;
    std::string error;
    if (charged && spec && !frames.empty()) {
      obs::Span jobSpan("serve", "job:" + spec->strategy);
      jobSpan.arg("id", std::to_string(id));
      if (dispatched) jobSpan.arg("client", dispatched->client);
      queue_.append(id, JobEvent::Type::Started);

      // --delay-ms test hook: pretend to be a slow endpoint, in small
      // quanta so a cancel still lands promptly.
      for (unsigned slept = 0;
           slept < options_.startDelayMs && !queue_.cancelRequested(id);
           slept += 25) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min(25u, options_.startDelayMs - slept)));
      }

      if (!spec->sequence.empty()) {
        try {
          report = runSequenceJob(id, *spec, std::move(frames));
        } catch (const std::exception& e) {
          error = e.what();
        }
      } else {
        engine::ExecResources resources;
        resources.threads = options_.threads;
        resources.poolBudget = &budget_;
        resources.seed =
            spec->seed ? *spec->seed : engine::deriveJobSeed(options_.seed, id);

        engine::Problem problem = problemFor(options_, *spec);
        problem.filtered = frames.front().image.get();

        engine::RunHooks hooks;
        hooks.cancelRequested = [this, id] {
          return queue_.cancelRequested(id);
        };
        hooks.onProgress = [this, id](const engine::RunProgress& p) {
          queue_.progress(id, p.done, p.total);
        };

        try {
          report = engine::Engine(resources)
                       .run(spec->strategy, problem, budgetFor(options_, *spec),
                            hooks, spec->options, spec->label);
        } catch (const std::exception& e) {
          error = e.what();
        }
      }
    } else {
      // Cancelled before it could start (or admission raced shutdown).
      report.strategy = spec ? spec->strategy : "";
      report.cancelled = true;
      report.threadsUsed = 0;
    }
    if (charged) budget_.release(1);

    if (dispatched && charged) {
      obs::Registry::global()
          .histogram("mcmcpar_serve_job_run_seconds",
                     "Job execution wall time per fairness bucket.",
                     obs::latencyBuckets(), {{"client", dispatched->client}})
          .observe(report.wallSeconds);
    }
    queue_.finish(id, std::move(report), std::move(error));
    const std::scoped_lock lock(imageMutex_);
    jobImages_.erase(id);
  }
}

void Server::shutdown(double drainTimeoutSeconds) {
  const std::scoped_lock lock(shutdownMutex_);
  if (stopped_) return;
  queue_.close();
  if (drainTimeoutSeconds > 0.0) {
    (void)queue_.waitIdle(drainTimeoutSeconds);
  }
  // Grace expired (or none): cancel queued jobs outright and flag running
  // ones; workers observe the sticky flags at their next quantum.
  for (const std::uint64_t id : queue_.activeIds()) (void)cancel(id);
  workers_.clear();  // jthread join: waits for in-flight jobs to settle
  stopped_ = true;
}

}  // namespace mcmcpar::serve
