// `chain`: the paper's six architectures on the §VII scene, in process, one
// job at a time (closed loop). Sampling does almost all the work, so this
// workload moves with model, mcmc, rng, spec, core, partition and par, and
// not with serve, shard or stream.

#include <thread>

#include "common.hpp"
#include "core/runtime_predictor.hpp"
#include "engine/registry.hpp"

namespace perfbench {

using namespace mcmcpar;

namespace {

constexpr int kSize = 1024;
constexpr int kCells = 150;
constexpr double kRadius = 10.0;
/// Iterations per job. Small enough for ~7 rotations in a 20 s run: the
/// synchronising architectures (speculative rounds, mc3 swaps, periodic
/// phases) vary by ±30% from job to job on a shared 4-vCPU host, and the
/// per-architecture medians need the samples.
constexpr std::uint64_t kBudget = 60000;
constexpr double kLatencyLimit = 2.5;      ///< seconds, p90 per job
constexpr double kF1Floor = 0.6;

struct Arch {
  const char* name;
  const char* layer;  ///< the layer whose sampler runs the chain
  unsigned threads;
  std::vector<std::string> options;
};

/// Worker threads of the parallel architectures. Three of the host's four
/// vCPUs: with all four busy, every round, swap and phase barrier of
/// speculative, mc3 and periodic waits for the last vCPU the hypervisor
/// deschedules, and the same job varied 2-3x from run to run.
constexpr unsigned kThreads = 3;

/// The fixed rotation: the single-threaded baseline, then every parallel
/// architecture (four lanes, four chains, four virtual threads).
const std::vector<Arch>& rotation() {
  static const std::vector<Arch> archs = {
      {"serial", "mcmc", 1, {}},
      {"periodic", "core", kThreads, {"virtual-threads=4"}},
      {"speculative", "spec", kThreads, {"lanes=4"}},
      {"mc3", "mcmc", kThreads, {"chains=4"}},
      // The pipelines derive their own budgets (base + per estimated
      // circle); halved from the defaults to match the others' scale.
      {"blind", "partition", kThreads,
       {"iters-base=1000", "iters-per-circle=300"}},
      {"intelligent", "partition", kThreads,
       {"iters-base=1000", "iters-per-circle=300"}},
  };
  return archs;
}

/// The iteration rule of each architecture: serial and mc3 perform exactly
/// their budget; speculative and periodic stop at the first round or phase
/// boundary at or past it; the partition pipelines derive per-partition
/// budgets capped by it.
std::string checkIterations(const Arch& arch,
                            const engine::RunReport& report) {
  const std::string name = arch.name;
  const std::uint64_t done = report.iterations;
  if (name == "serial" || name == "mc3") {
    if (done == kBudget) return "";
  } else if (name == "speculative") {
    const auto& stats = std::get<spec::SpeculativeStats>(report.extras);
    if (done >= kBudget && stats.logicalIterations == done &&
        done - kBudget < 200 * 4) {
      return "";
    }
  } else if (name == "periodic") {
    const auto& periodic = std::get<core::PeriodicReport>(report.extras);
    if (done >= kBudget && periodic.phases > 0 &&
        done - kBudget <= done / periodic.phases) {
      return "";
    }
  } else {
    const auto& pipeline = std::get<core::PipelineReport>(report.extras);
    std::uint64_t sum = 0;
    bool capped = !pipeline.partitions.empty();
    for (const core::PartitionRun& p : pipeline.partitions) {
      sum += p.iterations;
      capped = capped && p.iterations <= kBudget;
    }
    if (capped && sum == done) return "";
  }
  return name + ": performed " + std::to_string(done) +
         " iterations against a budget of " + std::to_string(kBudget);
}

class Chain final : public Workload {
 public:
  explicit Chain(const Options& options) : options_(options) {}

  void setup() override {
    scene_ = makeScene(kSize, kSize, kCells, kRadius,
                       deriveSeed(options_.seed, 1));
    problem_ = engine::Problem{};
    problem_.filtered = &scene_.image;
    problem_.prior.expectedCount = kCells;
    problem_.prior.radiusMean = kRadius;
    problem_.prior.radiusStd = 1.2;
    problem_.prior.radiusMin = 4.0;
    problem_.prior.radiusMax = 18.0;
    answers_.clear();
    // Warm-up: page in the image and every lazily built table.
    const engine::Engine engine(engine::ExecResources{1, false, 1});
    (void)engine.run("serial", problem_, engine::RunBudget{20000, 0});
  }

  void teardown() override {}

  void measure(double seconds, Metrics& endToEnd, Metrics& layers,
               Checks& checks) override {
    const auto& archs = rotation();
    std::vector<std::vector<double>> prepare(archs.size());
    std::vector<std::vector<double>> run(archs.size());
    std::vector<std::vector<double>> latency(archs.size());
    std::vector<engine::RunReport> last(archs.size());

    ClosedLoopSample sample;
    const double cpu0 = selfCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    // At least two rotations, so that a traced run times every
    // architecture both traced and untraced.
    for (int rotations = 0; rotations < 2 || since(t0) < seconds;
         ++rotations) {
      ClosedLoopSample::Pass pass;
      const double passCpu0 = selfCpuSeconds();
      const Clock::time_point passStart = Clock::now();
      for (std::size_t i = 0; i < archs.size(); ++i) {
        const Arch& arch = archs[i];
        const std::uint64_t request = ++requests_;
        const Clock::time_point start = Clock::now();

        engine::RunReport report;
        double prepareSeconds = 0.0;
        {
          Trace::Scope job("engine", std::string("job ") + arch.name, request);
          const engine::Engine engine(engine::ExecResources{
              arch.threads, false, deriveSeed(options_.seed, 100 + i)});
          std::unique_ptr<engine::Strategy> strategy =
              engine.make(arch.name, arch.options);
          {
            Trace::Scope span("engine", "prepare", request);
            strategy->prepare(problem_);
          }
          prepareSeconds = since(start);
          const Clock::time_point runStart = Clock::now();
          {
            Trace::Scope span(arch.layer, std::string("run ") + arch.name,
                              request);
            report = strategy->run(engine::RunBudget{kBudget, 0});
          }
          run[i].push_back(since(runStart));
        }
        latency[i].push_back(since(start));
        prepare[i].push_back(prepareSeconds);
        sample.jobs.push_back(
            {i, Trace::get().traced(request), latency[i].back()});
        pass.iterations += static_cast<double>(report.iterations);
        pass.jobs += 1.0;
        pass.withinLimit += latency[i].back() <= kLatencyLimit ? 1.0 : 0.0;

        if (options_.corrupt && request == 1) {
          for (model::Circle& c : report.circles) c.x += 3.0 * kRadius;
        }
        checks.record(check(i, report));
        last[i] = std::move(report);
      }
      // An odd number of request ids per rotation, so that each
      // architecture's jobs alternate between traced and untraced.
      if (archs.size() % 2 == 0) ++requests_;
      pass.seconds = since(passStart);
      pass.cpuSeconds = selfCpuSeconds() - passCpu0;
      sample.passes.push_back(pass);
    }
    const double wallSeconds = since(t0);
    const double cpuSeconds = selfCpuSeconds() - cpu0;
    sample.peakRssMb = processPeakRssMb(0);
    std::vector<double> f1s;
    for (const auto& [index, answer] : answers_) f1s.push_back(answer.f1);
    sample.f1 = mean(f1s);
    // The architectures differ up to 3x in speed, so a percentile over all
    // jobs lands on the edge between two of them: the latency percentiles
    // are over each architecture's median job instead.
    std::vector<double> medians;
    for (const std::vector<double>& jobs : latency) {
      medians.push_back(median(jobs));
    }
    addClosedLoopMetrics(sample, medians, endToEnd);

    if (!Trace::get().enabled()) return;
    layers.set("obs.trace_overhead_frac", traceOverheadFrac(sample.jobs),
               "ratio");
    for (std::size_t i = 0; i < archs.size(); ++i) {
      const std::string name = archs[i].name;
      layers.set("engine.prepare_s." + name, mean(prepare[i]), "s");
      layers.set("engine.run_s." + name, mean(run[i]), "s");
    }
    const double serialSecondsPerIteration =
        mean(run[0]) / static_cast<double>(last[0].iterations);
    layers.set("mcmc.step_us", 1e6 * serialSecondsPerIteration, "us");
    layers.set("core.cost_ratio",
               serialSecondsPerIteration /
                   core::defaultCostCalibration().secondsPerIteration,
               "ratio");
    for (std::size_t i = 0; i < 4; ++i) {
      layers.set(std::string("mcmc.converge_iters.") + archs[i].name,
                 static_cast<double>(
                     last[i].iterationsToConverge.value_or(kBudget)),
                 "it");
    }
    const auto& periodic = std::get<core::PeriodicReport>(last[1].extras);
    layers.set("core.periodic.global_s", periodic.globalSeconds, "s");
    layers.set("core.periodic.local_s", periodic.localSeconds, "s");
    layers.set("core.periodic.overhead_s", periodic.overheadSeconds, "s");
    layers.set("core.periodic.phases", static_cast<double>(periodic.phases),
               "count");
    layers.set("core.periodic.virtual_ratio",
               periodic.virtualSeconds / periodic.wallSeconds, "ratio");
    const auto& speculative =
        std::get<spec::SpeculativeStats>(last[2].extras);
    layers.set("spec.waste_frac", speculative.wasteFraction(), "ratio");
    layers.set("spec.iters_per_round", speculative.meanConsumedPerRound(),
               "it");
    layers.set("mcmc.mc3.swap_rate",
               std::get<mcmc::Mc3Stats>(last[3].extras).swapRate(), "ratio");
    for (std::size_t i = 4; i < 6; ++i) {
      const auto& pipeline = std::get<core::PipelineReport>(last[i].extras);
      const std::string name = archs[i].name;
      layers.set("partition.count." + name,
                 static_cast<double>(pipeline.partitions.size()), "count");
      layers.set("partition.parallel_s." + name, pipeline.parallelRuntime,
                 "s");
      layers.set("partition.merge_s." + name, pipeline.mergeSeconds, "s");
    }
    layers.set("par.cpu_util",
               cpuUtilisation(cpuSeconds, wallSeconds), "ratio");
  }

 private:
  struct Answer {
    std::vector<model::Circle> circles;
    double logPosterior = 0.0;
    double f1 = 0.0;
  };

  /// The answer checks of one job: the F1 floor, the iteration rule, and
  /// that every later rotation repeats the first one's answer bit for bit.
  std::string check(std::size_t i, const engine::RunReport& report) {
    const Arch& arch = rotation()[i];
    const double f1 = f1Score(report.circles, scene_.truth, kRadius);
    if (f1 < kF1Floor) {
      return std::string(arch.name) + ": F1 " + std::to_string(f1) +
             " below the floor";
    }
    if (std::string error = checkIterations(arch, report); !error.empty()) {
      return error;
    }
    const auto [it, first] =
        answers_.try_emplace(i, Answer{report.circles, report.logPosterior, f1});
    if (first) return "";
    if (!sameCircles(it->second.circles, report.circles) ||
        it->second.logPosterior != report.logPosterior) {
      return std::string(arch.name) + ": answer differs from the first run";
    }
    return "";
  }

  Options options_;
  img::Scene scene_;
  engine::Problem problem_;
  std::map<std::size_t, Answer> answers_;  ///< first answer per architecture
  std::uint64_t requests_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeChain(const Options& options) {
  return std::make_unique<Chain>(options);
}

}  // namespace perfbench
