// `shard-socket`: this process is the coordinator of the `sharded` strategy
// (3x3 tiles, halo 16, inner serial) over the socket backend, fanning out
// to two mcmcpar_serve endpoints of two threads each. One image at a time
// (closed loop); every tile travels as a float32 UPLOAD.

#include <thread>

#include "common.hpp"
#include "engine/registry.hpp"
#include "shard/report.hpp"

namespace perfbench {

using namespace mcmcpar;

namespace {

constexpr int kSize = 1024;
constexpr int kCells = 150;
constexpr double kRadius = 10.0;
constexpr std::uint64_t kBudget = 300000;  ///< iterations per image
constexpr std::size_t kScenes = 3;         ///< distinct images, cycled
constexpr double kLatencyLimit = 1.5;      ///< seconds, p90 per image
constexpr double kF1Floor = 0.8;
constexpr int kEndpoints = 2;

class ShardSocket final : public Workload {
 public:
  explicit ShardSocket(const Options& options) : options_(options) {}
  ~ShardSocket() override { teardown(); }

  void setup() override {
    teardown();
    scenes_.clear();
    for (std::size_t k = 0; k < kScenes; ++k) {
      scenes_.push_back(makeScene(kSize, kSize, kCells, kRadius,
                                  deriveSeed(options_.seed, 10 + k)));
    }
    endpoints_ = "endpoints=";
    for (int e = 0; e < kEndpoints; ++e) {
      servers_.push_back(startServer(
          options_.serveBin,
          {"--threads", "2", "--seed", std::to_string(options_.seed),
           "--radius", "10", "--cache-mb", "64"},
          options_.outDir + "/endpoint-" + std::to_string(e) + ".log"));
      endpoints_ += (e ? "," : "") + std::string("127.0.0.1:") +
                    std::to_string(servers_.back().port);
    }
    answers_.clear();
    // Warm-up: one small fan-out opens every code path on both endpoints.
    (void)run(0, "socket", 20000, 0);
  }

  void teardown() override {
    for (ServerProcess& server : servers_) stopServer(server);
    servers_.clear();
  }

  void measure(double seconds, Metrics& endToEnd, Metrics& layers,
               Checks& checks) override {
    std::vector<shard::ShardReport> shards;
    std::vector<double> prepare, runSeconds, latency;
    ClosedLoopSample sample;
    ClosedLoopSample::Pass pass;
    double passCpu0 = cpuSeconds();
    Clock::time_point passStart = Clock::now();
    const Clock::time_point t0 = passStart;
    // Whole passes, at least two: consecutive request ids alternate
    // between traced and untraced, so a traced run times each scene both
    // ways.
    for (std::size_t job = 0;
         job < 2 * kScenes || job % kScenes != 0 || since(t0) < seconds;
         ++job) {
      const std::size_t k = job % kScenes;
      const std::uint64_t request = ++requests_;
      const Clock::time_point start = Clock::now();
      Outcome outcome = run(k, "socket", kBudget, request);
      latency.push_back(since(start));
      sample.jobs.push_back({k, Trace::get().traced(request), latency.back()});
      pass.iterations += static_cast<double>(outcome.report.iterations);
      pass.jobs += 1.0;
      pass.withinLimit += latency.back() <= kLatencyLimit ? 1.0 : 0.0;
      prepare.push_back(outcome.prepareSeconds);
      runSeconds.push_back(outcome.runSeconds);
      if (options_.corrupt && request == 1) {
        outcome.report.circles.front().r += 1.0;
      }
      checks.record(check(k, outcome.report));
      shards.push_back(std::get<shard::ShardReport>(outcome.report.extras));
      if (k + 1 == kScenes) {  // a pass: one job per scene
        pass.seconds = since(passStart);
        pass.cpuSeconds = cpuSeconds() - passCpu0;
        sample.passes.push_back(pass);
        pass = {};
        passCpu0 = cpuSeconds();
        passStart = Clock::now();
      }
    }
    sample.peakRssMb = peakRssMb();
    std::vector<double> f1s;
    for (const auto& [k, answer] : answers_) f1s.push_back(answer.f1);
    sample.f1 = mean(f1s);
    addClosedLoopMetrics(sample, latency, endToEnd);

    // The remote-equals-local guarantee, once per run, outside the timing.
    if (!localChecked_) {
      localChecked_ = true;
      const Outcome local = run(0, "local", kBudget, ++requests_);
      const Answer& remote = answers_.at(0);
      checks.record(sameCircles(local.report.circles, remote.circles) &&
                            local.report.logPosterior == remote.logPosterior
                        ? ""
                        : "backend=local differs from backend=socket");
    }

    if (!Trace::get().enabled()) return;
    addShardLayers(shards, runSeconds, layers);
    layers.set("engine.prepare_s.sharded", mean(prepare), "s");
    layers.set("engine.run_s.sharded", mean(runSeconds), "s");
    layers.set("obs.trace_overhead_frac", traceOverheadFrac(sample.jobs),
               "ratio");
  }

 private:
  struct Outcome {
    engine::RunReport report;
    double prepareSeconds = 0.0;
    double runSeconds = 0.0;
  };
  struct Answer {
    std::vector<model::Circle> circles;
    double logPosterior = 0.0;
    double f1 = 0.0;
  };

  /// One sharded job over scene `k` (a fixed seed per scene, so a repeat
  /// reproduces the first answer).
  Outcome run(std::size_t k, const std::string& backend,
              std::uint64_t budget, std::uint64_t request) {
    engine::Problem problem;
    problem.filtered = &scenes_[k].image;
    problem.prior.expectedCount = kCells;
    problem.prior.radiusMean = kRadius;
    problem.prior.radiusStd = 1.2;
    problem.prior.radiusMin = kRadius / 2.0;
    problem.prior.radiusMax = kRadius * 1.8;
    std::vector<std::string> shardOptions = {
        "tiles=3x3", "halo=16", "backend=" + backend, "strategy=serial"};
    if (backend == "socket") shardOptions.push_back(endpoints_);

    Outcome outcome;
    Trace::Scope job("engine", "job sharded", request);
    const Clock::time_point start = Clock::now();
    const engine::Engine engine(engine::ExecResources{
        4, false, deriveSeed(options_.seed, 200 + k)});
    std::unique_ptr<engine::Strategy> strategy =
        engine.make("sharded", shardOptions);
    {
      Trace::Scope span("engine", "prepare", request);
      strategy->prepare(problem);
    }
    outcome.prepareSeconds = since(start);
    const Clock::time_point runStart = Clock::now();
    {
      Trace::Scope span("shard", "fan-out " + backend, request);
      outcome.report = strategy->run(engine::RunBudget{budget, 0});
    }
    outcome.runSeconds = since(runStart);
    return outcome;
  }

  /// Answer checks: every tile succeeded on the socket backend, the F1
  /// floor, and a repeat of a scene reproduces its first answer exactly.
  std::string check(std::size_t k, const engine::RunReport& report) {
    const auto& shard = std::get<shard::ShardReport>(report.extras);
    if (shard.backend != "socket" || shard.tiles.size() != 9 ||
        shard.tileFailures() != 0) {
      return "sharded: " + std::to_string(shard.tileFailures()) +
             " failed tile(s) of " + std::to_string(shard.tiles.size());
    }
    const double f1 = f1Score(report.circles, scenes_[k].truth, kRadius);
    if (f1 < kF1Floor) return "sharded: F1 " + std::to_string(f1);
    const auto [it, first] = answers_.try_emplace(
        k, Answer{report.circles, report.logPosterior, f1});
    if (!first && (!sameCircles(it->second.circles, report.circles) ||
                   it->second.logPosterior != report.logPosterior)) {
      return "sharded: answer differs from the first run of its scene";
    }
    return "";
  }

  void addShardLayers(const std::vector<shard::ShardReport>& shards,
                      const std::vector<double>& runSeconds,
                      Metrics& layers) const {
    std::vector<double> maxTile, sumTile, merge, imbalance, overhead, tiles;
    double uploadBytes = 0.0, haloDropped = 0.0, duplicates = 0.0;
    double requeues = 0.0, hedges = 0.0;
    for (std::size_t j = 0; j < shards.size(); ++j) {
      const shard::ShardReport& s = shards[j];
      maxTile.push_back(s.maxTileSeconds);
      sumTile.push_back(s.sumTileSeconds);
      merge.push_back(s.mergeSeconds);
      imbalance.push_back(s.maxTileSeconds /
                          (s.sumTileSeconds / static_cast<double>(s.tiles.size())));
      overhead.push_back(runSeconds[j] - s.maxTileSeconds - s.mergeSeconds);
      for (const shard::TileRun& tile : s.tiles) {
        tiles.push_back(tile.wallSeconds);
        uploadBytes += 4.0 * tile.spec.halo.w * tile.spec.halo.h;
      }
      haloDropped += static_cast<double>(s.haloDropped);
      duplicates += static_cast<double>(s.duplicatesRemoved);
      requeues += static_cast<double>(s.requeues);
      hedges += static_cast<double>(s.hedgesIssued);
    }
    const double jobs = static_cast<double>(shards.size());
    layers.set("shard.max_tile_s", mean(maxTile), "s");
    layers.set("shard.sum_tile_s", mean(sumTile), "s");
    layers.set("shard.merge_s", mean(merge), "s");
    layers.set("shard.tile_s_p50", median(tiles), "s");
    layers.set("shard.tile_s_p90", quantile(tiles, 0.9), "s");
    layers.set("shard.imbalance", mean(imbalance), "ratio");
    layers.set("shard.fanout_overhead_s", mean(overhead), "s");
    layers.set("shard.upload_mb_per_job", uploadBytes / jobs / (1 << 20),
               "MB");
    layers.set("shard.halo_dropped", haloDropped / jobs, "count/job");
    layers.set("shard.duplicates", duplicates / jobs, "count/job");
    layers.set("shard.requeues", requeues, "count");
    layers.set("shard.hedges", hedges, "count");
  }

  [[nodiscard]] double cpuSeconds() const {
    double cpu = selfCpuSeconds();
    for (const ServerProcess& server : servers_) {
      cpu += processCpuSeconds(server.pid);
    }
    return cpu;
  }

  [[nodiscard]] double peakRssMb() const {
    double peak = processPeakRssMb(0);
    for (const ServerProcess& server : servers_) {
      peak = std::max(peak, processPeakRssMb(server.pid));
    }
    return peak;
  }

  Options options_;
  std::vector<img::Scene> scenes_;
  std::vector<ServerProcess> servers_;
  std::string endpoints_;
  std::map<std::size_t, Answer> answers_;  ///< first answer per scene
  bool localChecked_ = false;
  std::uint64_t requests_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeShardSocket(const Options& options) {
  return std::make_unique<ShardSocket>(options);
}

}  // namespace perfbench
