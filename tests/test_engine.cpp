#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/metrics.hpp"
#include "engine/registry.hpp"
#include "img/synth.hpp"
#include "par/concurrency.hpp"

namespace mcmcpar::engine {
namespace {

img::Scene tinyScene(std::uint64_t seed) {
  img::SceneSpec spec = img::cellScene(80, 80, 4, 8.0, seed);
  spec.radiusStd = 0.5;
  return img::generateScene(spec);
}

Problem tinyProblem(const img::Scene& scene) {
  Problem problem;
  problem.filtered = &scene.image;
  problem.prior.radiusMean = 8.0;
  problem.prior.radiusStd = 1.0;
  problem.prior.radiusMin = 4.0;
  problem.prior.radiusMax = 13.0;
  return problem;
}

// ---------------------------------------------------------------------------
// OptionMap
// ---------------------------------------------------------------------------

TEST(OptionMap, ParsesTypedValuesAndTracksConsumption) {
  const OptionMap opts =
      OptionMap::parse({"chains=6", "heat-step=0.25", "tag=x"});
  EXPECT_EQ(opts.uns("chains", 1), 6u);
  EXPECT_DOUBLE_EQ(opts.dbl("heat-step", 0.0), 0.25);
  EXPECT_THROW(opts.requireConsumed("test"), EngineError);  // 'tag' unread
  EXPECT_EQ(opts.str("tag", ""), "x");
  EXPECT_NO_THROW(opts.requireConsumed("test"));
}

TEST(OptionMap, DefaultsApplyWhenKeyAbsent) {
  const OptionMap opts = OptionMap::parse({});
  EXPECT_EQ(opts.u64("iterations", 42), 42u);
  EXPECT_DOUBLE_EQ(opts.dbl("x", 1.5), 1.5);
  EXPECT_EQ(opts.str("z", "fallback"), "fallback");
}

TEST(OptionMap, RejectsMalformedPairs) {
  EXPECT_THROW(OptionMap::parse({"novalue"}), EngineError);
  EXPECT_THROW(OptionMap::parse({"=5"}), EngineError);
  EXPECT_THROW(OptionMap::parse({"a=1", "a=2"}), EngineError);
}

TEST(OptionMap, DuplicateKeyErrorNamesBothConflictingValues) {
  // `--opt chains=4 --opt chains=8` must fail loudly with both values, not
  // silently keep one of them.
  try {
    (void)OptionMap::parse({"chains=4", "heat-step=0.2", "chains=8"});
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("chains"), std::string::npos) << message;
    EXPECT_NE(message.find("chains=4"), std::string::npos) << message;
    EXPECT_NE(message.find("chains=8"), std::string::npos) << message;
  }
  // The same guard through the registry's option channel.
  EXPECT_THROW((void)StrategyRegistry::builtin().create(
                   "mc3", {}, {"chains=4", "chains=8"}),
               EngineError);
}

TEST(OptionMap, RejectsIllTypedValues) {
  const OptionMap opts =
      OptionMap::parse({"n=abc", "x=1.5zzz", "big=99999999999"});
  EXPECT_THROW((void)opts.u64("n", 0), EngineError);
  EXPECT_THROW((void)opts.dbl("x", 0.0), EngineError);
  EXPECT_THROW((void)opts.uns("big", 0), EngineError);  // > 32 bits
}

// ---------------------------------------------------------------------------
// StrategyRegistry
// ---------------------------------------------------------------------------

TEST(StrategyRegistry, BuiltinContainsEveryArchitecture) {
  const StrategyRegistry& registry = StrategyRegistry::builtin();
  // The paper's six, plus the sharding coordinator built on top of them.
  for (const char* name : {"serial", "speculative", "mc3", "periodic", "blind",
                           "intelligent", "sharded"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_TRUE(registry.info(name).factory != nullptr) << name;
  }
  EXPECT_EQ(registry.names().size(), 7u);
}

TEST(StrategyRegistry, UnknownNameErrorListsRegisteredStrategies) {
  const StrategyRegistry& registry = StrategyRegistry::builtin();
  try {
    (void)registry.create("sequental");  // typo on purpose
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("sequental"), std::string::npos) << message;
    EXPECT_NE(message.find("'serial'"), std::string::npos) << message;
    EXPECT_NE(message.find("'periodic'"), std::string::npos) << message;
  }
}

TEST(StrategyRegistry, UnknownAndMalformedOptionsAreDescriptiveErrors) {
  const StrategyRegistry& registry = StrategyRegistry::builtin();
  // Unknown key for this strategy.
  try {
    (void)registry.create("serial", {}, {"lanes=4"});
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("serial"), std::string::npos) << message;
    EXPECT_NE(message.find("lanes"), std::string::npos) << message;
  }
  // Malformed pair.
  EXPECT_THROW((void)registry.create("mc3", {}, {"chains"}), EngineError);
  // Well-formed key with a value of the wrong type.
  EXPECT_THROW((void)registry.create("mc3", {}, {"chains=lots"}), EngineError);
  // Domain validation inside the factory.
  EXPECT_THROW((void)registry.create("speculative", {}, {"lanes=0"}),
               EngineError);
  EXPECT_THROW((void)registry.create("mc3", {}, {"swap-interval=0"}),
               EngineError);
  EXPECT_THROW((void)registry.create("periodic", {}, {"executor=warp"}),
               EngineError);
  EXPECT_THROW((void)registry.create("periodic", {}, {"executor=omp"}),
               EngineError);
}

TEST(StrategyRegistry, RunBeforePrepareIsAnError) {
  const auto strategy = StrategyRegistry::builtin().create("serial");
  auto run = [&] { (void)strategy->run(RunBudget{100, 0}); };
  EXPECT_THROW(run(), EngineError);
}

TEST(StrategyRegistry, NullImageIsAnError) {
  const auto strategy = StrategyRegistry::builtin().create("serial");
  EXPECT_THROW(strategy->prepare(Problem{}), EngineError);
}

// ---------------------------------------------------------------------------
// Round-trip: every registered strategy runs through the uniform interface
// and yields a populated RunReport.
// ---------------------------------------------------------------------------

TEST(EngineRoundTrip, EveryRegisteredStrategyProducesAPopulatedRunReport) {
  const img::Scene scene = tinyScene(11);
  const Problem problem = tinyProblem(scene);
  ExecResources resources;
  resources.threads = 1;
  resources.seed = 5;
  const Engine engine(resources);

  for (const std::string& name : engine.registry().names()) {
    SCOPED_TRACE(name);
    const RunReport report = engine.run(name, problem, RunBudget{1200, 0});

    EXPECT_EQ(report.strategy, name);
    EXPECT_FALSE(report.cancelled);
    EXPECT_GT(report.iterations, 0u);
    EXPECT_GT(report.wallSeconds, 0.0);
    EXPECT_GE(report.threadsUsed, 1u);
    // The chain proposed moves and recorded them.
    EXPECT_GT(report.diagnostics.totalProposed(), 0u);
    EXPECT_GT(report.acceptanceRate, 0.0);
    EXPECT_LT(report.acceptanceRate, 1.0);
    // A 4-artifact scene must end with a non-empty, sane model.
    EXPECT_GT(report.circles.size(), 0u);
    EXPECT_LT(report.circles.size(), 40u);
    EXPECT_TRUE(std::isfinite(report.logPosterior));
    EXPECT_NE(report.logPosterior, 0.0);
  }
}

TEST(EngineRoundTrip, ExtrasVariantMatchesTheRegistryContract) {
  const img::Scene scene = tinyScene(12);
  const Problem problem = tinyProblem(scene);
  const Engine engine(ExecResources{1, false, 7});

  const auto holds = [&](const std::string& name, auto tag) {
    const RunReport report = engine.run(name, problem, RunBudget{800, 0});
    return std::holds_alternative<decltype(tag)>(report.extras);
  };
  EXPECT_TRUE(holds("serial", std::monostate{}));
  EXPECT_TRUE(holds("speculative", spec::SpeculativeStats{}));
  EXPECT_TRUE(holds("mc3", mcmc::Mc3Stats{}));
  EXPECT_TRUE(holds("periodic", core::PeriodicReport{}));
  EXPECT_TRUE(holds("blind", core::PipelineReport{}));
  EXPECT_TRUE(holds("intelligent", core::PipelineReport{}));
}

TEST(EngineRoundTrip, StrategyOptionsReachTheDriver) {
  const img::Scene scene = tinyScene(13);
  const Problem problem = tinyProblem(scene);
  const Engine engine(ExecResources{1, false, 7});

  const RunReport report = engine.run("mc3", problem, RunBudget{600, 0}, {},
                                      {"chains=2", "swap-interval=50"});
  const auto& stats = std::get<mcmc::Mc3Stats>(report.extras);
  EXPECT_EQ(stats.iterationsPerChain, 600u);
  EXPECT_EQ(stats.swapProposed, 600u / 50u);
}

TEST(EngineRoundTrip, SameSeedIsReproducibleAcrossEngineCalls) {
  const img::Scene scene = tinyScene(14);
  const Problem problem = tinyProblem(scene);
  const Engine engine(ExecResources{1, false, 21});

  const RunReport a = engine.run("serial", problem, RunBudget{2000, 0});
  const RunReport b = engine.run("serial", problem, RunBudget{2000, 0});
  EXPECT_EQ(a.circles.size(), b.circles.size());
  EXPECT_DOUBLE_EQ(a.logPosterior, b.logPosterior);
}

// ---------------------------------------------------------------------------
// Quality: the paper's whole-image and partitioned methods recover most
// artifacts of an eight-cell scene when run through the engine.
// ---------------------------------------------------------------------------

img::Scene eightCellScene(std::uint64_t seed) {
  img::SceneSpec spec = img::cellScene(128, 128, 8, 8.0, seed);
  spec.radiusStd = 0.5;
  return img::generateScene(spec);
}

Problem eightCellProblem(const img::Scene& scene) {
  Problem problem;
  problem.filtered = &scene.image;
  problem.prior.radiusMean = 8.0;
  problem.prior.radiusStd = 0.8;
  problem.prior.radiusMin = 3.0;
  problem.prior.radiusMax = 14.0;
  return problem;
}

std::vector<model::Circle> truthCircles(const img::Scene& scene) {
  std::vector<model::Circle> out;
  for (const auto& t : scene.truth) out.push_back(model::Circle{t.x, t.y, t.r});
  return out;
}

struct QualityCase {
  const char* strategy;
  std::vector<std::string> options;
};

// Names each case after its strategy in gtest and ctest output.
void PrintTo(const QualityCase& c, std::ostream* os) { *os << c.strategy; }

class EngineQuality : public ::testing::TestWithParam<QualityCase> {};

TEST_P(EngineQuality, FindsMostArtifacts) {
  const img::Scene scene = eightCellScene(51);
  const Engine engine(ExecResources{1, false, 3});
  const RunReport report =
      engine.run(GetParam().strategy, eightCellProblem(scene),
                 RunBudget{12000, 0}, {}, GetParam().options);
  const auto q =
      analysis::scoreCircles(report.circles, truthCircles(scene), 6.0);
  EXPECT_GE(q.recall, 0.6);
  EXPECT_GE(q.precision, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    PaperMethods, EngineQuality,
    ::testing::Values(
        QualityCase{"serial", {}}, QualityCase{"periodic", {"phase=40"}},
        QualityCase{"intelligent", {"iters-base=1500", "iters-per-circle=400"}},
        QualityCase{"blind", {"iters-base=1500", "iters-per-circle=400"}}));

TEST(EngineRoundTrip, CountEstimateTracksTheImage) {
  // The prior's default expectedCount is 100; the eq. 5 estimate
  // (Problem::estimateCount, on by default) replaces it, so the chain
  // starts near the truth (without it the first trace point still holds
  // ~90 circles) and ends within a few circles of it.
  const img::Scene scene = eightCellScene(53);
  const Engine engine(ExecResources{1, false, 3});
  const RunReport report =
      engine.run("serial", eightCellProblem(scene), RunBudget{12000, 0});
  ASSERT_FALSE(report.diagnostics.trace().empty());
  EXPECT_LT(report.diagnostics.trace().front().circleCount, 20u);
  EXPECT_NEAR(static_cast<double>(report.circles.size()), 8.0, 4.0);
}

// Finding the nuclei of an eight-cell scene with the sequential method: the
// chain runs its whole budget and two runs with one seed agree exactly.
TEST(NucleiFinder, SequentialDiagnosticsPopulated) {
  const img::Scene scene = eightCellScene(57);
  const Engine engine(ExecResources{1, false, 3});
  const RunReport report =
      engine.run("serial", eightCellProblem(scene), RunBudget{12000, 0});
  EXPECT_EQ(report.diagnostics.totalProposed(), 12000u);
  EXPECT_NE(report.logPosterior, 0.0);
}

TEST(NucleiFinder, DeterministicForSeed) {
  const img::Scene scene = eightCellScene(59);
  const Problem problem = eightCellProblem(scene);
  const Engine engine(ExecResources{1, false, 3});
  const RunReport a = engine.run("serial", problem, RunBudget{12000, 0});
  const RunReport b = engine.run("serial", problem, RunBudget{12000, 0});
  ASSERT_EQ(a.circles.size(), b.circles.size());
  EXPECT_EQ(a.logPosterior, b.logPosterior);
}

// ---------------------------------------------------------------------------
// RunHooks: progress/trace observers and cancellation.
// ---------------------------------------------------------------------------

TEST(RunHooks, ProgressAndTraceObserversFire) {
  const img::Scene scene = tinyScene(15);
  const Problem problem = tinyProblem(scene);
  const Engine engine(ExecResources{1, false, 3});

  std::uint64_t progressBeats = 0;
  std::uint64_t tracePoints = 0;
  RunHooks hooks;
  hooks.onProgress = [&](const RunProgress& p) {
    EXPECT_LE(p.done, p.total);
    ++progressBeats;
  };
  hooks.onTrace = [&](const mcmc::TracePoint&) { ++tracePoints; };

  const RunReport report =
      engine.run("serial", problem, RunBudget{2000, 500}, hooks);
  EXPECT_FALSE(report.cancelled);
  EXPECT_GT(progressBeats, 0u);
  EXPECT_EQ(tracePoints, 4u);  // 2000 iterations / 500 cadence
}

// Cancellation must stop within one polling quantum and still return a
// consistent partial report — for the serial baseline and for a parallel
// strategy (periodic partitioning with its pool executor).
class CancellationTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CancellationTest, MidRunCancellationYieldsConsistentPartialReport) {
  const img::Scene scene = tinyScene(16);
  const Problem problem = tinyProblem(scene);
  // threads=2 exercises the pooled local executor for "periodic".
  const Engine engine(ExecResources{2, false, 9});

  // Allow a handful of polls, then request cancellation forever after.
  std::atomic<int> polls{0};
  RunHooks hooks;
  hooks.cancelRequested = [&polls] { return ++polls > 3; };

  const RunBudget budget{200000, 0};
  const RunReport report = engine.run(GetParam(), problem, budget, hooks);

  EXPECT_TRUE(report.cancelled);
  EXPECT_LT(report.iterations, budget.iterations);
  // The partial report is still populated and internally consistent.
  EXPECT_GT(report.iterations, 0u);
  EXPECT_GT(report.diagnostics.totalProposed(), 0u);
  EXPECT_FALSE(report.circles.empty());
  EXPECT_TRUE(std::isfinite(report.logPosterior));
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, CancellationTest,
                         ::testing::Values("serial", "periodic", "mc3",
                                           "blind"));

TEST(RunHooks, ImmediateCancellationStillReturnsAReport) {
  const img::Scene scene = tinyScene(17);
  const Problem problem = tinyProblem(scene);
  const Engine engine(ExecResources{1, false, 9});

  RunHooks hooks;
  hooks.cancelRequested = [] { return true; };
  const RunReport report =
      engine.run("serial", problem, RunBudget{50000, 0}, hooks);
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.iterations, 0u);
}

// ---------------------------------------------------------------------------
// Leases: a strategy holds only the threads its loop can use, and runs that
// loop on exactly them.
// ---------------------------------------------------------------------------

/// Threads of this process right now (Linux: one /proc/self/task entry each).
std::size_t osThreads() {
  using std::filesystem::directory_iterator;
  return static_cast<std::size_t>(std::distance(
      directory_iterator("/proc/self/task"), directory_iterator()));
}

/// Run `name option` for 3000 iterations asking for 4 threads on `budget`,
/// as a served job does, and call `probe` from every progress beat.
void runOnBudget(par::PoolBudget& budget, const std::string& name,
                 const std::string& option,
                 const std::function<void()>& probe) {
  const img::Scene scene = tinyScene(21);
  ExecResources resources;
  resources.threads = 4;
  resources.seed = 3;
  resources.poolBudget = &budget;
  int beats = 0;
  RunHooks hooks;
  hooks.onProgress = [&](const RunProgress&) {
    ++beats;
    probe();
  };
  const RunReport report = Engine(resources).run(
      name, tinyProblem(scene), RunBudget{3000, 0}, hooks, {option});
  EXPECT_FALSE(report.cancelled);
  EXPECT_GT(beats, 0);
}

/// OS threads beyond the caller's seen during `name option` when the
/// caller's thread and another job's hold a whole PoolBudget(2), so the
/// lease grants the caller alone.
std::size_t extraThreadsOnAOneThreadLease(const std::string& name,
                                          const std::string& option) {
  par::PoolBudget budget(2);
  EXPECT_EQ(budget.tryAcquire(2), 2u);
  const std::size_t before = osThreads();
  std::size_t peak = before;
  runOnBudget(budget, name, option,
              [&] { peak = std::max(peak, osThreads()); });
  return peak - before;
}

/// The fewest free threads of a PoolBudget(4), the caller's already
/// charged, seen during `name option`.
unsigned leastFreeDuringRun(const std::string& name,
                            const std::string& option) {
  par::PoolBudget budget(4);
  EXPECT_EQ(budget.tryAcquire(1), 1u);
  unsigned least = budget.available();
  runOnBudget(budget, name, option,
              [&] { least = std::min(least, budget.available()); });
  EXPECT_EQ(budget.available(), 3u);  // every extra is back
  return least;
}

TEST(PoolLeases, AStrategyOnAOneThreadLeaseStartsNoThread) {
  EXPECT_EQ(extraThreadsOnAOneThreadLease("periodic", "executor=pool"), 0u);
  EXPECT_EQ(extraThreadsOnAOneThreadLease("mc3", "chains=4"), 0u);
  EXPECT_EQ(extraThreadsOnAOneThreadLease("speculative", "lanes=4"), 0u);
}

TEST(PoolLeases, ALeaseHoldsNoThreadItsLoopCannotUse) {
  EXPECT_EQ(leastFreeDuringRun("periodic", "executor=serial"), 3u);
  EXPECT_EQ(leastFreeDuringRun("periodic", "executor=split-serial"), 3u);
  EXPECT_EQ(leastFreeDuringRun("speculative", "lanes=2"), 2u);
  EXPECT_EQ(leastFreeDuringRun("mc3", "chains=2"), 2u);
}

TEST(JobSeed, DerivedSeedsAreDistinctAndDeterministic) {
  EXPECT_EQ(deriveJobSeed(1, 0), deriveJobSeed(1, 0));
  EXPECT_NE(deriveJobSeed(1, 0), deriveJobSeed(1, 1));
  EXPECT_NE(deriveJobSeed(1, 0), deriveJobSeed(2, 0));

  // Two identical jobs seeded by index must not duplicate work: the
  // derived seeds differ, so the chains explore independently.
  const img::Scene scene =
      img::generateScene(img::cellScene(80, 80, 4, 8.0, 33));
  Problem problem;
  problem.filtered = &scene.image;
  problem.prior.radiusMean = 8.0;
  problem.prior.radiusStd = 1.0;
  problem.prior.radiusMin = 4.0;
  problem.prior.radiusMax = 13.0;
  const auto run = [&](std::size_t index) {
    return Engine(ExecResources{1, false, deriveJobSeed(1, index)})
        .run("serial", problem, RunBudget{1500, 0})
        .logPosterior;
  };
  EXPECT_NE(run(0), run(1));
}

}  // namespace
}  // namespace mcmcpar::engine
