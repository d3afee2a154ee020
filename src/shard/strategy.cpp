// The "sharded" strategy (shard/strategy.hpp): tile, fan out over the local
// or socket backend, stitch. A served job whose line carries @shard becomes
// a coordinator fanning out to the very queue that runs it: the serving
// layer composed with itself.

#include "shard/strategy.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/runtime_predictor.hpp"
#include "engine/registry.hpp"
#include "model/posterior.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/concurrency.hpp"
#include "par/virtual_clock.hpp"
#include "partition/prior_estimation.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"
#include "shard/endpoints.hpp"
#include "shard/fanout.hpp"
#include "shard/remote.hpp"
#include "shard/report.hpp"
#include "shard/stitcher.hpp"
#include "shard/tiling.hpp"

namespace mcmcpar::shard {

namespace {

/// Shard-layer metric handles. Get-or-create on every call is fine here:
/// these sites fire per tile or per run, never per iteration.
obs::Counter& shardCounter(const char* name, const char* help) {
  return obs::Registry::global().counter(name, help);
}

obs::Histogram& shardSeconds(const char* name, const char* help) {
  return obs::Registry::global().histogram(name, help, obs::latencyBuckets());
}

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// What a backend hands the merge: one ShardReport row per tile (plus the
/// socket fan-out's counters) and each tile's crop-local detections.
struct BackendResult {
  ShardReport report;
  std::vector<std::vector<model::Circle>> circles;
  /// Local backend only (remote reports carry no trace): like the §IX
  /// pipelines, the shard converges when its slowest tile does.
  std::optional<std::uint64_t> iterationsToConverge;
  /// Tiles run at once: the local lease's threads, or the endpoint count.
  unsigned threadsUsed = 1;
};

/// Whole-shard progress in mcmc::RunProgress's unit, logical iterations:
/// each resolved tile adds its full budget, so both backends beat alike
/// and end at (sum of budgets, sum of budgets).
std::function<void(std::size_t)> progressBeat(
    const engine::RunHooks& hooks, const std::vector<std::uint64_t>& budgets) {
  const std::uint64_t total =
      std::accumulate(budgets.begin(), budgets.end(), std::uint64_t{0});
  return [&hooks, &budgets, total, done = std::uint64_t{0}](
             std::size_t tile) mutable {
    done += budgets[tile];
    hooks.progress(done, total, "shard");
  };
}

class ShardStrategy final : public engine::Strategy {
 public:
  ShardStrategy(std::string name, const engine::StrategyRegistry* registry,
                const engine::ExecResources& resources,
                const engine::OptionMap& options)
      : name_(std::move(name)), registry_(registry), resources_(resources) {
    const std::string tiles = options.str("tiles", "2x2");
    if (tiles == "auto") {
      // Predictor-driven decomposition: the grid is chosen per image from
      // its content-density scan instead of a fixed KxL.
      autoTiles_ = true;
    } else {
      try {
        parseTileCount(tiles, gridX_, gridY_);
      } catch (const std::invalid_argument& e) {
        reject(e.what());
      }
    }
    const std::uint64_t maxTiles = options.u64("max-tiles", 0);
    if (maxTiles > 4096) {
      reject("max-tiles must be <= 4096, got " + std::to_string(maxTiles));
    }
    maxTiles_ = static_cast<int>(maxTiles);
    const std::uint64_t minTileSize = options.u64("min-tile-size", 32);
    if (minTileSize == 0 || minTileSize > 1000000) {
      reject("min-tile-size must be in [1, 1000000], got " +
             std::to_string(minTileSize));
    }
    minTileSize_ = static_cast<int>(minTileSize);
    hedgeFactor_ = options.dbl("hedge-factor", 0.0);
    if (hedgeFactor_ < 0.0) {
      reject("hedge-factor must be >= 0 (0 disables hedging)");
    }
    // Bound before the int cast so halo=3000000000 is rejected right here
    // at admission with a clear message, not at run time on a worker after
    // the cast wrapped negative. No real image axis approaches the bound,
    // and makeTileGrid clamps to the image anyway.
    const std::uint64_t halo = options.u64("halo", 16);
    if (halo > 1000000) {
      reject("halo must be <= 1000000 pixels, got " + std::to_string(halo));
    }
    halo_ = static_cast<int>(halo);
    tileIters_ = options.u64("tile-iters", 0);
    minTileIters_ = options.u64("min-tile-iters", 2000);
    timeoutSeconds_ = options.dbl("timeout", 600.0);

    const std::string backend = options.str("backend", "local");
    socketBackend_ = backend == "socket";
    if (!socketBackend_ && backend != "local") {
      reject("backend must be 'local' or 'socket', got '" + backend + "'");
    }
    try {
      endpoints_ = parseEndpointList(options.str("endpoints", ""));
      const std::string endpointsFile = options.str("endpoints-file", "");
      if (!endpointsFile.empty()) {
        for (Endpoint& endpoint : loadEndpointsFile(endpointsFile)) {
          endpoints_.push_back(std::move(endpoint));
        }
      }
    } catch (const engine::EngineError& e) {
      reject(e.what());
    }
    if (socketBackend_ && endpoints_.empty()) {
      reject(
          "backend=socket requires endpoints=host:port[*weight][,...] or "
          "endpoints-file=PATH");
    }
    pingTimeout_ = options.dbl("ping-timeout", 5.0);

    innerStrategy_ = options.str("strategy", "serial");
    if (innerStrategy_ == name_) {
      reject("recursive sharding (strategy=" + name_ + ") is not supported");
    }
    for (const std::string& key : options.keysWithPrefix("inner.")) {
      innerOptions_.push_back(key.substr(6) + "=" + options.str(key, ""));
    }
    options.requireConsumed(name_);

    // Fail a bad inner strategy or option at admission time, not on the
    // first tile: the same early-validation contract the serve layer
    // relies on for descriptive SUBMIT errors.
    try {
      (void)registry_->create(innerStrategy_, engine::ExecResources{},
                              innerOptions_);
    } catch (const engine::EngineError& e) {
      reject(std::string("inner strategy rejected: ") + e.what());
    }
  }

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }

  void prepare(const engine::Problem& problem) override {
    if (problem.filtered == nullptr) reject("Problem.filtered image is null");
    problem_ = problem;
    prior_ = problem.prior;
    // Whole-image count estimate: only used to score the *merged* model, so
    // the reported logPosterior is comparable with an unsharded run of the
    // same problem. Tiles re-estimate on their own crops.
    if (problem.estimateCount) {
      const auto estimate = partition::estimateCount(
          *problem.filtered, problem.theta, prior_.radiusMean);
      prior_.expectedCount = std::max(estimate.expectedCount, 0.5);
    }
    prepared_ = true;
  }

  [[nodiscard]] engine::RunReport run(
      const engine::RunBudget& budget,
      const engine::RunHooks& hooks) override {
    if (!prepared_) reject("run() called before prepare()");
    const img::ImageF& image = *problem_.filtered;
    // Content-density scan: one cheap pass over coarse blocks feeds the §IX
    // runtime predictor with per-region activity, which drives adaptive
    // grids, workload-proportional budgets and the hedging reference.
    const DensityMap density = scanDensity(image);
    TileGrid grid;
    try {
      grid = autoTiles_
                 ? makeAdaptiveTileGrid(
                       density, resolveAutoMaxTiles(), halo_, minTileSize_,
                       core::defaultCostCalibration().densityWeight)
                 : makeTileGrid(image.width(), image.height(), gridX_,
                                gridY_, halo_);
    } catch (const std::invalid_argument& e) {
      reject(e.what());
    }

    const std::vector<std::uint64_t> budgets =
        tileBudgets(grid, budget, density);
    const par::WallTimer timer;
    obs::Span runSpan("shard", "shard-run");
    runSpan.arg("backend", socketBackend_ ? "socket" : "local");
    runSpan.arg("tiles", std::to_string(grid.tiles.size()));
    BackendResult result =
        socketBackend_ ? runSocket(grid, budgets, density, budget, hooks)
                       : runLocal(grid, budgets, budget, hooks);

    // A missing tile is a missing image region: the merged model would
    // silently under-count, so a failed tile fails the shard run.
    for (std::size_t i = 0; i < grid.tiles.size(); ++i) {
      const std::string& error = result.report.tiles[i].error;
      if (error.empty()) continue;
      reject(std::to_string(result.report.tileFailures()) +
             " tile job(s) failed; first: " + tileLabel(grid.tiles[i]) +
             ": " + error);
    }

    return merge(grid, std::move(result), timer);
  }

 private:
  /// Every admission and run error names the strategy.
  [[noreturn]] void reject(const std::string& what) const {
    throw engine::EngineError("strategy '" + name_ + "': " + what);
  }

  [[nodiscard]] static std::string tileLabel(const TileSpec& tile) {
    return "tile-" + std::to_string(tile.ix) + "x" + std::to_string(tile.iy);
  }

  /// The tile cap for tiles=auto when max-tiles is not given: aim for a
  /// couple of tiles per worker (endpoint or core) so the decomposition
  /// has slack to load-balance, bounded to a sane range.
  [[nodiscard]] int resolveAutoMaxTiles() const {
    if (maxTiles_ != 0) return maxTiles_;
    const unsigned workers =
        socketBackend_ ? static_cast<unsigned>(endpoints_.size()) * 2u
                       : par::resolveThreadCount(resources_.threads);
    return static_cast<int>(std::clamp(workers, 2u, 64u));
  }

  /// Split the whole-image iteration budget across tiles proportional to
  /// each core's predicted workload — area plus density-weighted content
  /// (shard/tiling regionWorkload) — so busy regions get the sampling
  /// effort the §IX predictor says they need (a uniform image degenerates
  /// to the old area-proportional split). A floor keeps sparse tiles from
  /// starving; tile-iters=N overrides with a flat count.
  [[nodiscard]] std::vector<std::uint64_t> tileBudgets(
      const TileGrid& grid, const engine::RunBudget& budget,
      const DensityMap& density) const {
    if (tileIters_ != 0) {
      return std::vector<std::uint64_t>(grid.tiles.size(), tileIters_);
    }
    std::vector<std::uint64_t> budgets;
    budgets.reserve(grid.tiles.size());
    const double densityWeight = core::defaultCostCalibration().densityWeight;
    std::vector<double> work;
    for (const TileSpec& tile : grid.tiles) {
      work.push_back(regionWorkload(density, tile.core, densityWeight));
    }
    const double totalWork = std::accumulate(work.begin(), work.end(), 0.0);
    for (std::size_t i = 0; i < grid.tiles.size(); ++i) {
      const double share =
          totalWork > 0.0
              ? work[i] / totalWork
              : 1.0 / static_cast<double>(grid.tiles.size());
      const auto scaled = static_cast<std::uint64_t>(
          std::llround(static_cast<double>(budget.iterations) * share));
      budgets.push_back(std::max(scaled, minTileIters_));
    }
    return budgets;
  }

  /// A caller-fixed whole-image count scaled to the tile's area share:
  /// copying it verbatim would make every tile expect the whole image's
  /// circles. (With estimateCount on, each tile re-estimates its own
  /// expected count from its crop, eq. 5.)
  [[nodiscard]] double tileExpectedCount(const TileSpec& tile) const {
    const double share = static_cast<double>(tile.core.area()) /
                         static_cast<double>(problem_.filtered->pixelCount());
    return std::max(problem_.prior.expectedCount * share, 0.5);
  }

  [[nodiscard]] engine::Problem tileProblem(const img::ImageF& crop,
                                            const TileSpec& tile) const {
    engine::Problem problem = problem_;
    problem.filtered = &crop;
    if (!problem_.estimateCount) {
      problem.prior.expectedCount = tileExpectedCount(tile);
    }
    return problem;
  }

  [[nodiscard]] std::vector<img::ImageF> tileCrops(const TileGrid& grid) const {
    std::vector<img::ImageF> crops;
    crops.reserve(grid.tiles.size());
    for (const TileSpec& tile : grid.tiles) {
      crops.push_back(problem_.filtered->crop(tile.halo.x0, tile.halo.y0,
                                              tile.halo.w, tile.halo.h));
    }
    return crops;
  }

  // ---- local backend: the tiles on a lease of the shared budget ----

  /// Run tile `i` on the calling thread, seeded deriveJobSeed(seed, i) as
  /// the socket backend seeds it. Throws whatever creation or the run
  /// throws.
  [[nodiscard]] engine::RunReport runTile(
      std::size_t i, const img::ImageF& crop, const TileSpec& spec,
      const engine::RunBudget& tileBudget, engine::ExecResources resources,
      const engine::RunHooks& tileHooks) const {
    resources.seed = engine::deriveJobSeed(resources_.seed, i);
    return engine::Engine(resources, registry_)
        .run(innerStrategy_, tileProblem(crop, spec), tileBudget, tileHooks,
             innerOptions_, tileLabel(spec));
  }

  [[nodiscard]] BackendResult runLocal(
      const TileGrid& grid, const std::vector<std::uint64_t>& budgets,
      const engine::RunBudget& budget, const engine::RunHooks& hooks) const {
    const std::vector<img::ImageF> crops = tileCrops(grid);
    const std::size_t n = grid.tiles.size();

    // One runner per leased thread, never more than the tiles. A served
    // job's worker already holds its own thread in the server's budget, so
    // the lease counts the calling thread as paid. Standalone, a private
    // budget of `threads` stands in, with the calling thread charged to it
    // first. Inner strategies lease their workers from what is left.
    std::optional<par::PoolBudget> ownBudget;
    par::PoolBudget* tileBudget = resources_.poolBudget;
    if (tileBudget == nullptr) {
      tileBudget = &ownBudget.emplace(resources_.threads);
      (void)tileBudget->tryAcquire(1);
    }
    par::PoolLease lease =
        par::PoolLease::acquire(tileBudget, static_cast<unsigned>(n));
    engine::ExecResources tileResources = resources_;
    tileResources.poolBudget = tileBudget;

    // A cancel is sticky: once seen, running tiles stop at their next
    // quantum and tiles not yet started never start.
    std::atomic<bool> stop{false};
    engine::RunHooks tileHooks;
    tileHooks.cancelRequested = [&stop, &hooks] {
      if (stop) return true;
      const bool requested = hooks.cancelRequested && hooks.cancelRequested();
      if (requested) stop = true;
      return requested;
    };

    BackendResult result;
    result.report.tiles.resize(n);
    result.circles.resize(n);
    result.threadsUsed = lease.threads();
    std::mutex doneMutex;
    auto progress = progressBeat(hooks, budgets);
    const auto run = [&](std::size_t i) {
      TileRun& tile = result.report.tiles[i];
      engine::RunReport report;
      if (tileHooks.cancelRequested()) {
        report.cancelled = true;  // never started
      } else {
        try {
          report = runTile(i, crops[i], grid.tiles[i],
                           {budgets[i], budget.traceInterval}, tileResources,
                           tileHooks);
        } catch (const std::exception& e) {
          tile.error = e.what();  // one bad tile must not sink its siblings
        }
      }
      tile.iterations = report.iterations;
      tile.wallSeconds = report.wallSeconds;
      tile.acceptanceRate = report.acceptanceRate;
      tile.logPosterior = report.logPosterior;
      tile.cancelled = report.cancelled;
      tile.diagnostics = std::move(report.diagnostics);
      result.circles[i] = std::move(report.circles);

      const std::scoped_lock lock(doneMutex);
      if (report.iterationsToConverge) {
        result.iterationsToConverge =
            std::max(result.iterationsToConverge.value_or(0),
                     *report.iterationsToConverge);
      }
      progress(i);  // serialised, so the whole-shard beat stays monotone
    };
    lease.parallelFor(n, run);
    return result;
  }

  // ---- socket backend: a thin driver of the shard::Fanout machine ----

  /// The job line for tile `i`: an @image=inline reference to the one-shot
  /// upload that precedes it, plus the coordinator's exact prior (numExact),
  /// so the remote tile runs the identical problem tileProblem() builds.
  [[nodiscard]] std::string tileJobLine(const TileGrid& grid, std::size_t i,
                                        std::uint64_t iters,
                                        const engine::RunBudget& budget)
      const {
    using serve::protocol::numExact;
    const TileSpec& tile = grid.tiles[i];
    std::string line =
        tileLabel(tile) + " " + innerStrategy_ +
        " @image=inline @iters=" + std::to_string(iters) + " @seed=" +
        std::to_string(engine::deriveJobSeed(resources_.seed, i)) +
        " @label=" + tileLabel(tile) +
        " @radius=" + numExact(problem_.prior.radiusMean) +
        " @radius-std=" + numExact(problem_.prior.radiusStd) +
        " @radius-min=" + numExact(problem_.prior.radiusMin) +
        " @radius-max=" + numExact(problem_.prior.radiusMax);
    if (!problem_.estimateCount) {
      line += " @count=" + numExact(tileExpectedCount(tile));
    }
    if (budget.traceInterval != 0) {
      line += " @trace=" + std::to_string(budget.traceInterval);
    }
    for (const std::string& option : innerOptions_) line += " " + option;
    return line;
  }

  /// Carry out the machine's actions over serve::Client connections and
  /// feed the replies back as events. Every requeue, hedge, dead-endpoint,
  /// doom and cancel decision lives in shard::Fanout; this driver only
  /// does the I/O, the metrics and the trace spans.
  [[nodiscard]] BackendResult runSocket(
      const TileGrid& grid, const std::vector<std::uint64_t>& budgets,
      const DensityMap& density, const engine::RunBudget& budget,
      const engine::RunHooks& hooks) const {
    obs::Span fanoutSpan("shard", "fanout");
    fanoutSpan.arg("tiles", std::to_string(grid.tiles.size()));
    fanoutSpan.arg("endpoints", std::to_string(endpoints_.size()));

    // Tile crops travel as float32 binary frames inside the protocol — no
    // temp files, no shared filesystem, no 8-bit quantisation: the remote
    // tile sees the coordinator's pixels bit-for-bit.
    const std::vector<img::ImageF> crops = tileCrops(grid);
    EndpointPool pool(endpoints_, pingTimeout_);
    if (pool.checkAll() == 0) {
      reject("no endpoint answered PING (fleet: " +
             formatEndpointList(endpoints_) + ")");
    }
    std::vector<double> predicted;
    for (std::size_t i = 0; i < grid.tiles.size(); ++i) {
      predicted.push_back(core::predictCostSeconds(
          budgets[i], regionMeanActivity(density, grid.tiles[i].core)));
    }
    Fanout fanout(pool, budgets, predicted, hedgeFactor_, timeoutSeconds_);
    const Clock::time_point origin = Clock::now();  // the machine's t = 0
    BackendResult result;
    result.circles.resize(grid.tiles.size());
    result.threadsUsed = static_cast<unsigned>(endpoints_.size());
    const auto progress = progressBeat(hooks, budgets);
    obs::Histogram& network = shardSeconds(
        "mcmcpar_shard_network_seconds",
        "Coordinator-side transfer time (tile upload+submit, report "
        "fetch); _sum is the run's network share.");

    // One connection per flight (slot 2i is tile i's primary, 2i+1 its
    // hedge) keeps reply streams apart. Flights are polled with STATUS,
    // never a blocking WAIT, so each connection stays free for CANCEL.
    struct Flight {
      serve::Client client;
      std::uint64_t jobId = 0;
      Clock::time_point started{};
    };
    std::vector<Flight> flights(2 * grid.tiles.size());
    // Tile flights are observed from a poll loop, not a call stack, so each
    // tile gets its own synthetic timeline row (from 100 up); fan-out and
    // stitch spans stay on the coordinator's real thread row.
    const auto traceFlight = [&](const FanoutAction& a, const Flight& flight,
                                 obs::TraceArgs args) {
      obs::Tracer& tracer = obs::Tracer::global();
      if (!tracer.enabled()) return;
      const bool hedge = a.replica == Replica::Hedge;
      args.insert(args.begin(),
                  {{"endpoint", pool.endpoint(a.endpoint).label()},
                   {"hedged", hedge ? "true" : "false"}});
      tracer.record("shard",
                    (hedge ? "tile-hedge:" : "tile:") +
                        tileLabel(grid.tiles[a.tile]),
                    flight.started, Clock::now(), std::move(args),
                    100 + static_cast<std::int64_t>(a.tile));
    };

    // One submit sequence for primaries and hedges alike: upload the crop
    // one-shot, then submit @image=inline on the same connection.
    const auto submit = [&](const FanoutAction& a, Flight& flight) {
      const Clock::time_point start = Clock::now();
      try {
        const Endpoint& endpoint = pool.endpoint(a.endpoint);
        flight.client.connect(endpoint.host, endpoint.port, timeoutSeconds_);
        (void)flight.client.upload(tileLabel(grid.tiles[a.tile]),
                                   crops[a.tile], /*oneshot=*/true);
        flight.jobId = flight.client.submit(
            tileJobLine(grid, a.tile, budgets[a.tile], budget));
      } catch (const std::exception& e) {
        flight.client.close();
        fanout.submitFailed(a.tile, a.replica,
                            remote::classifyFailure(e.what()), e.what());
        return;
      }
      network.observe(secondsSince(start));
      flight.started = Clock::now();
      fanout.submitted(a.tile, a.replica, secondsSince(origin));
    };

    // One STATUS round-trip; a terminal state fetches the REPORT.
    const auto poll = [&](const FanoutAction& a, Flight& flight) {
      remote::TileReportJson remote;
      try {
        const std::string reply =
            flight.client.request("STATUS " + std::to_string(flight.jobId));
        std::istringstream words(reply);
        std::string ok, idText, state;
        words >> ok >> idText >> state;
        if (ok != "OK") throw serve::ProtocolError(reply);
        if (state != "done" && state != "failed" && state != "cancelled") {
          return;
        }
        const Clock::time_point reportStart = Clock::now();
        remote = remote::parseReportJson(flight.client.report(flight.jobId));
        network.observe(secondsSince(reportStart));
      } catch (const std::exception& e) {
        flight.client.close();
        fanout.pollFailed(a.tile, a.replica,
                          remote::classifyFailure(e.what()), e.what());
        return;
      }
      flight.client.close();
      obs::Registry::global()
          .histogram("mcmcpar_shard_tile_rtt_seconds",
                     "Tile submit-to-report round trip per endpoint.",
                     obs::latencyBuckets(),
                     {{"endpoint", pool.endpoint(a.endpoint).label()}})
          .observe(secondsSince(flight.started));
      shardSeconds("mcmcpar_shard_sample_seconds",
                   "Remote sampler wall time per resolved tile; _sum is "
                   "the run's sampling share.")
          .observe(remote.wallSeconds);
      shardCounter("mcmcpar_shard_tiles_resolved_total",
                   "Tiles that reached a terminal result.")
          .add();
      traceFlight(a, flight, {{"job", std::to_string(flight.jobId)}});
      TileRun tile;
      tile.iterations = remote.iterations;
      tile.wallSeconds = remote.wallSeconds;
      tile.acceptanceRate = remote.acceptance;
      tile.logPosterior = remote.logPosterior;
      tile.cancelled = remote.cancelled || remote.state == "cancelled";
      if (remote.state == "failed") {
        tile.error = remote.error.empty() ? "remote job failed" : remote.error;
      }
      result.circles[a.tile] = std::move(remote.circles);
      fanout.finished(a.tile, a.replica, std::move(tile),
                      secondsSince(origin));
    };

    // Best effort: the server reaps the connection either way, and the
    // poll timeout still bounds a wind-down. A flight that already failed
    // has lost its connection, so its CANCEL goes out on a fresh one.
    const auto cancel = [&](const FanoutAction& a, Flight& flight) {
      if (a.abandoned) traceFlight(a, flight, {{"outcome", "abandoned"}});
      try {
        if (!flight.client.connected()) {
          const Endpoint& endpoint = pool.endpoint(a.endpoint);
          flight.client.connect(endpoint.host, endpoint.port, 5.0);
        }
        (void)flight.client.request("CANCEL " +
                                    std::to_string(flight.jobId));
      } catch (const std::exception&) {
      }
      if (a.abandoned) flight.client.close();
    };

    // Submit every tile, then one poll pass per 20 ms tick. Stale
    // endpoints are re-probed (a no-op until the pool's 30 s ping
    // interval elapses) between passes, ahead of any placement a pass
    // makes.
    for (int pass = 0;; ++pass) {
      while (const std::optional<FanoutAction> a = fanout.next()) {
        Flight& flight =
            flights[2 * a->tile + static_cast<std::size_t>(a->replica)];
        switch (a->kind) {
          case FanoutAction::Kind::Submit: submit(*a, flight); break;
          case FanoutAction::Kind::Poll: poll(*a, flight); break;
          case FanoutAction::Kind::Cancel: cancel(*a, flight); break;
          case FanoutAction::Kind::Finished: progress(a->tile); break;
        }
      }
      if (fanout.done()) break;
      if (pass > 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      pool.refresh();
      if (hooks.cancelled()) fanout.cancelRequested();
      fanout.tick(secondsSince(origin));
    }

    result.report = fanout.report();
    result.report.endpointsDead = pool.deadCount();
    for (const auto& [name, help, count] :
         {std::tuple{"mcmcpar_shard_requeues_total",
                     "Tile re-submissions after an endpoint failure.",
                     result.report.requeues},
          {"mcmcpar_shard_endpoints_marked_dead_total",
           "Endpoints removed from a fan-out after a transport failure.",
           fanout.deadMarks()},
          {"mcmcpar_shard_hedges_issued_total",
           "Hedge replicas issued for straggling tiles.",
           result.report.hedgesIssued},
          {"mcmcpar_shard_hedges_won_total",
           "Hedge replicas that beat their primary.",
           result.report.hedgesWon}}) {
      if (count > 0) shardCounter(name, help).add(count);
    }
    return result;
  }

  // ---- stitch + aggregate ----

  [[nodiscard]] engine::RunReport merge(const TileGrid& grid,
                                        BackendResult result,
                                        const par::WallTimer& timer) const {
    const par::WallTimer mergeTimer;
    obs::Span stitchSpan("shard", "stitch");
    stitchSpan.arg("tiles", std::to_string(grid.tiles.size()));

    // Translate crop-local detections into full-image coordinates.
    std::vector<std::vector<model::Circle>> perTile(grid.tiles.size());
    for (std::size_t i = 0; i < grid.tiles.size(); ++i) {
      const partition::IRect& halo = grid.tiles[i].halo;
      perTile[i].reserve(result.circles[i].size());
      for (const model::Circle& c : result.circles[i]) {
        perTile[i].push_back(
            model::Circle{c.x + halo.x0, c.y + halo.y0, c.r});
      }
    }
    const StitchResult stitched = stitchCircles(grid, perTile, {});

    ShardReport& shardReport = result.report;
    shardReport.gridX = grid.gridX;
    shardReport.gridY = grid.gridY;
    shardReport.halo = grid.halo;
    shardReport.adaptive = grid.adaptive;
    shardReport.backend = socketBackend_ ? "socket" : "local";
    shardReport.innerStrategy = innerStrategy_;
    shardReport.haloDropped = stitched.haloDropped;
    shardReport.duplicatesRemoved = stitched.duplicatesRemoved;

    engine::RunReport report;
    report.strategy = name_;
    report.iterationsToConverge = result.iterationsToConverge;
    double weightedAcceptance = 0.0;
    for (std::size_t i = 0; i < grid.tiles.size(); ++i) {
      TileRun& tile = shardReport.tiles[i];
      tile.spec = grid.tiles[i];
      tile.label = tileLabel(grid.tiles[i]);
      tile.circlesFound = perTile[i].size();
      tile.circlesKept = stitched.keptPerTile[i];

      report.iterations += tile.iterations;
      weightedAcceptance +=
          tile.acceptanceRate * static_cast<double>(tile.iterations);
      // The inner report's own flag is authoritative: pipeline strategies
      // report iteration counts unrelated to the budget, so inferring
      // cancellation from a shortfall would mis-flag completed runs.
      report.cancelled = report.cancelled || tile.cancelled;
      report.diagnostics.merge(tile.diagnostics);
      shardReport.maxTileSeconds =
          std::max(shardReport.maxTileSeconds, tile.wallSeconds);
      shardReport.sumTileSeconds += tile.wallSeconds;
    }

    report.acceptanceRate =
        report.iterations == 0
            ? 0.0
            : weightedAcceptance / static_cast<double>(report.iterations);
    // Whole-image log posterior of the stitched model, comparable with an
    // unsharded run of the same problem (tile-local values are not).
    report.logPosterior = model::scoreConfiguration(
        *problem_.filtered, prior_, problem_.likelihood, stitched.circles);
    report.circles = stitched.circles;
    report.threadsUsed = result.threadsUsed;

    shardReport.mergeSeconds = mergeTimer.seconds();
    shardSeconds("mcmcpar_shard_stitch_seconds",
                 "Coordinate translation + IoU stitch + report assembly "
                 "per run; _sum is the run's recombination share.")
        .observe(shardReport.mergeSeconds);
    report.wallSeconds = timer.seconds();
    report.extras = std::move(shardReport);
    return report;
  }

  std::string name_;
  const engine::StrategyRegistry* registry_;
  engine::ExecResources resources_;
  int gridX_ = 2;
  int gridY_ = 2;
  bool autoTiles_ = false;  ///< tiles=auto: density-driven adaptive grid
  int maxTiles_ = 0;        ///< max-tiles option; 0 = derive from workers
  int minTileSize_ = 32;    ///< min-tile-size option (adaptive grids only)
  double hedgeFactor_ = 0.0;  ///< hedge-factor option; 0 disables hedging
  int halo_ = 16;
  std::uint64_t tileIters_ = 0;
  std::uint64_t minTileIters_ = 2000;
  double timeoutSeconds_ = 600.0;
  bool socketBackend_ = false;
  std::vector<Endpoint> endpoints_;
  double pingTimeout_ = 5.0;
  std::string innerStrategy_;
  std::vector<std::string> innerOptions_;
  engine::Problem problem_;
  model::PriorParams prior_;
  bool prepared_ = false;
};

}  // namespace

void registerShardedStrategy(engine::StrategyRegistry& registry) {
  const engine::StrategyRegistry* reg = &registry;
  registry.add(
      {"sharded", "§VIII-IX + serving",
       "shard coordinator: tile + halo fan-out, IoU-stitched merge",
       "ShardReport",
       "tiles=KxL|auto max-tiles=N min-tile-size=N halo=N hedge-factor=X "
       "backend=local|socket endpoints=host:port[*W],... "
       "endpoints-file=PATH ping-timeout=X strategy=NAME inner.K=V "
       "tile-iters=N min-tile-iters=N timeout=X",
       [reg](const engine::ExecResources& res,
             const engine::OptionMap& opts) {
         return std::make_unique<ShardStrategy>("sharded", reg, res, opts);
       }});
}

}  // namespace mcmcpar::shard
