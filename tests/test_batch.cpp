#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <sstream>
#include <thread>

#include "engine/batch.hpp"
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

std::size_t countFailed(const BatchResult& result) {
  return static_cast<std::size_t>(
      std::count_if(result.errors.begin(), result.errors.end(),
                    [](const std::string& e) { return !e.empty(); }));
}

std::size_t countCancelled(const BatchResult& result) {
  return static_cast<std::size_t>(
      std::count_if(result.reports.begin(), result.reports.end(),
                    [](const RunReport& r) { return r.cancelled; }));
}

/// Jobs that ran their full budget: neither failed nor cancelled.
std::size_t countCompleted(const BatchResult& result) {
  return result.reports.size() - countFailed(result) - countCancelled(result);
}

BatchJob makeJob(const Problem& problem, std::string strategy,
                 std::uint64_t iterations = 800) {
  BatchJob job;
  job.strategy = std::move(strategy);
  job.problem = problem;
  job.budget = RunBudget{iterations, 0};
  return job;
}

// ---------------------------------------------------------------------------
// Report ordering and the basic protocol.
// ---------------------------------------------------------------------------

TEST(BatchRunner, ReportsAreIndexAlignedWithSubmissionOrder) {
  const img::Scene scene = tinyScene(31);
  const Problem problem = tinyProblem(scene);
  const std::vector<std::string> order = {"mc3",    "serial",      "blind",
                                          "serial", "intelligent", "periodic"};
  std::vector<BatchJob> jobs;
  for (const std::string& name : order) jobs.push_back(makeJob(problem, name));

  BatchOptions options;
  options.resources.threads = 4;
  const BatchResult result = BatchRunner().run(jobs, options);

  ASSERT_EQ(result.reports.size(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(result.reports[i].strategy, order[i]) << i;
    EXPECT_FALSE(result.reports[i].cancelled) << i;
    EXPECT_GT(result.reports[i].iterations, 0u) << i;
  }
  ASSERT_EQ(result.errors.size(), order.size());
  EXPECT_EQ(countCompleted(result), order.size());
  EXPECT_EQ(countFailed(result), 0u);
  EXPECT_EQ(countCancelled(result), 0u);
}

TEST(BatchRunner, EmptyBatchReturnsEmptyResult) {
  const BatchResult result = BatchRunner().run({});
  EXPECT_TRUE(result.reports.empty());
  EXPECT_TRUE(result.errors.empty());
}

TEST(BatchRunner, SingleJobMatchesDirectStrategyRun) {
  const img::Scene scene = tinyScene(32);
  const Problem problem = tinyProblem(scene);

  BatchJob job = makeJob(problem, "serial", 2000);
  job.seed = 21;
  BatchOptions options;
  options.resources.threads = 1;
  const BatchResult viaBatch = BatchRunner().run({job}, options);

  const Engine engine(ExecResources{1, false, 21});
  const RunReport direct =
      engine.run("serial", problem, RunBudget{2000, 0});

  ASSERT_EQ(viaBatch.reports.size(), 1u);
  const RunReport& batched = viaBatch.reports[0];
  EXPECT_EQ(batched.iterations, direct.iterations);
  EXPECT_EQ(batched.circles.size(), direct.circles.size());
  EXPECT_DOUBLE_EQ(batched.logPosterior, direct.logPosterior);
}

TEST(BatchRunner, DerivedJobSeedsAreDistinctAndDeterministic) {
  EXPECT_EQ(deriveJobSeed(1, 0), deriveJobSeed(1, 0));
  EXPECT_NE(deriveJobSeed(1, 0), deriveJobSeed(1, 1));
  EXPECT_NE(deriveJobSeed(1, 0), deriveJobSeed(2, 0));

  // Two identical jobs without explicit seeds must not duplicate work: the
  // derived seeds differ, so the chains explore independently.
  const img::Scene scene = tinyScene(33);
  const Problem problem = tinyProblem(scene);
  const std::vector<BatchJob> jobs = {makeJob(problem, "serial", 1500),
                                      makeJob(problem, "serial", 1500)};
  BatchOptions options;
  options.resources.threads = 1;
  const BatchResult result = BatchRunner().run(jobs, options);
  EXPECT_NE(result.reports[0].logPosterior, result.reports[1].logPosterior);
}

// ---------------------------------------------------------------------------
// Validation and per-job failure isolation.
// ---------------------------------------------------------------------------

TEST(BatchRunner, UnknownStrategyFailsTheBatchUpFrontNamingTheJob) {
  const img::Scene scene = tinyScene(34);
  const Problem problem = tinyProblem(scene);
  std::vector<BatchJob> jobs = {makeJob(problem, "serial")};
  jobs.push_back(makeJob(problem, "warp"));
  jobs[1].label = "bad-job";
  try {
    (void)BatchRunner().run(jobs);
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("#1"), std::string::npos) << message;
    EXPECT_NE(message.find("bad-job"), std::string::npos) << message;
    EXPECT_NE(message.find("warp"), std::string::npos) << message;
  }
}

TEST(BatchRunner, RuntimeFailureIsCapturedPerJobNotPropagated) {
  const img::Scene scene = tinyScene(35);
  const Problem problem = tinyProblem(scene);
  std::vector<BatchJob> jobs = {makeJob(problem, "serial")};
  jobs.push_back(makeJob(Problem{}, "serial"));  // null image: fails prepare()
  BatchOptions options;
  options.resources.threads = 1;

  const BatchResult result = BatchRunner().run(jobs, options);
  EXPECT_EQ(countCompleted(result), 1u);
  EXPECT_EQ(countFailed(result), 1u);
  EXPECT_TRUE(result.errors[0].empty());
  EXPECT_NE(result.errors[1].find("null"), std::string::npos)
      << result.errors[1];
  EXPECT_GT(result.reports[0].iterations, 0u);
  EXPECT_EQ(result.reports[1].iterations, 0u);
}

// ---------------------------------------------------------------------------
// Cancellation.
// ---------------------------------------------------------------------------

TEST(BatchRunner, MidBatchCancellationKeepsCompletedReportsIntact) {
  const img::Scene scene = tinyScene(36);
  const Problem problem = tinyProblem(scene);
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 4; ++i) jobs.push_back(makeJob(problem, "serial", 1000));

  // Serial execution (one job in flight) and a cancel flag raised after the
  // second job reports done: jobs 0-1 complete, jobs 2-3 never start.
  std::atomic<std::size_t> doneCount{0};
  BatchOptions options;
  options.resources.threads = 1;
  BatchHooks hooks;
  hooks.onJobDone = [&doneCount](std::size_t, const RunReport&) {
    ++doneCount;
  };
  hooks.cancelRequested = [&doneCount] { return doneCount >= 2; };

  const BatchResult result = BatchRunner().run(jobs, options, hooks);
  EXPECT_EQ(countCompleted(result), 2u);
  EXPECT_EQ(countCancelled(result), 2u);
  EXPECT_EQ(countFailed(result), 0u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(result.reports[i].cancelled) << i;
    EXPECT_EQ(result.reports[i].iterations, 1000u) << i;
    EXPECT_FALSE(result.reports[i].circles.empty()) << i;
    EXPECT_TRUE(std::isfinite(result.reports[i].logPosterior)) << i;
  }
  for (std::size_t i = 2; i < 4; ++i) {
    EXPECT_TRUE(result.reports[i].cancelled) << i;
    EXPECT_EQ(result.reports[i].iterations, 0u) << i;
    EXPECT_EQ(result.reports[i].strategy, "serial") << i;
  }
}

// ---------------------------------------------------------------------------
// The shared thread budget.
// ---------------------------------------------------------------------------

TEST(BatchRunner, FullyLoadedBudgetForcesJobsSerialInternally) {
  // 2 budgeted threads, 2 jobs in flight: no spare threads, so a strategy
  // that would normally spawn an internal pool must run single-threaded.
  const img::Scene scene = tinyScene(38);
  const Problem problem = tinyProblem(scene);
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 4; ++i) {
    BatchJob job = makeJob(problem, "speculative", 600);
    job.options = {"lanes=4"};
    jobs.push_back(std::move(job));
  }
  BatchOptions options;
  options.resources.threads = 2;

  const BatchResult result = BatchRunner().run(jobs, options);
  for (const RunReport& report : result.reports) {
    EXPECT_FALSE(report.cancelled);
    EXPECT_EQ(report.threadsUsed, 1u);
  }
}

TEST(BatchRunner, SpareBudgetFlowsToRunningJobsInternalWorkers) {
  // 4 budgeted threads but a one-job batch, so one runner: the running job
  // leases the 3 spare threads for its lanes.
  const img::Scene scene = tinyScene(39);
  const Problem problem = tinyProblem(scene);
  BatchJob job = makeJob(problem, "speculative", 600);
  job.options = {"lanes=4"};
  BatchOptions options;
  options.resources.threads = 4;

  const BatchResult result = BatchRunner().run({job}, options);
  ASSERT_EQ(result.reports.size(), 1u);
  EXPECT_FALSE(result.reports[0].cancelled);
  EXPECT_EQ(result.reports[0].threadsUsed, 4u);
}

// ---------------------------------------------------------------------------
// Concurrent stress: many jobs, shared pool, observer callbacks from job
// threads. Run under -DMCMCPAR_SANITIZE=thread in CI to prove race-freedom.
// ---------------------------------------------------------------------------

TEST(BatchRunner, ConcurrentJobsStressIsCleanAndComplete) {
  // Two jobs of every registered strategy in flight at once on one shared
  // 4-thread budget, so a new strategy gets concurrency coverage for free.
  const img::Scene scene = tinyScene(40);
  const Problem problem = tinyProblem(scene);
  const std::vector<std::string> names = StrategyRegistry::builtin().names();
  ASSERT_GE(names.size(), 7u);
  std::vector<BatchJob> jobs;
  for (std::size_t i = 0; i < 2 * names.size(); ++i) {
    BatchJob job = makeJob(problem, names[i % names.size()], 500);
    if (job.strategy == "speculative") job.options = {"lanes=3"};
    jobs.push_back(std::move(job));
  }

  std::atomic<std::size_t> doneJobs{0};
  BatchOptions options;
  options.resources.threads = 4;
  BatchHooks hooks;
  hooks.onJobDone = [&doneJobs](std::size_t, const RunReport&) { ++doneJobs; };

  const BatchResult result = BatchRunner().run(jobs, options, hooks);
  EXPECT_EQ(countCompleted(result), jobs.size());
  EXPECT_EQ(doneJobs.load(), jobs.size());
  ASSERT_EQ(result.reports.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const RunReport& report = result.reports[i];
    EXPECT_EQ(report.strategy, jobs[i].strategy) << i;
    EXPECT_FALSE(report.cancelled) << report.strategy;
    EXPECT_GT(report.iterations, 0u) << report.strategy;
    EXPECT_TRUE(std::isfinite(report.logPosterior)) << report.strategy;
  }
}

// ---------------------------------------------------------------------------
// Manifest parsing.
// ---------------------------------------------------------------------------

TEST(BatchManifest, ParsesJobsSkippingBlanksAndComments) {
  std::istringstream in(
      "# header comment\n"
      "\n"
      "cells.pgm serial\n"
      "  synth mc3 chains=2 swap-interval=50\n"
      "other.pgm blind grid-x=2\n");
  const std::vector<ManifestEntry> entries = parseBatchManifest(in);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].image, "cells.pgm");
  EXPECT_EQ(entries[0].strategy, "serial");
  EXPECT_TRUE(entries[0].options.empty());
  EXPECT_EQ(entries[1].image, "synth");
  EXPECT_EQ(entries[1].options,
            (std::vector<std::string>{"chains=2", "swap-interval=50"}));
  EXPECT_EQ(entries[2].strategy, "blind");
}

TEST(BatchManifest, ParsesJobDirectivesSeparatelyFromStrategyOptions) {
  const ManifestEntry entry = parseManifestLine(
      "cells.pgm mc3 @iters=9000 chains=2 @seed=7 @trace=100 @label=probe");
  EXPECT_EQ(entry.image, "cells.pgm");
  EXPECT_EQ(entry.strategy, "mc3");
  EXPECT_EQ(entry.options, (std::vector<std::string>{"chains=2"}));
  EXPECT_EQ(entry.iterations, std::uint64_t{9000});
  EXPECT_EQ(entry.seed, std::uint64_t{7});
  EXPECT_EQ(entry.trace, std::uint64_t{100});
  EXPECT_EQ(entry.label, "probe");
}

TEST(BatchManifest, ParsesDataPlaneAndPriorDirectives) {
  const ManifestEntry entry = parseManifestLine(
      "tile-0x0 serial @image=inline @oneshot=1 @radius=8.5 @radius-std=1.25"
      " @radius-min=4.5 @radius-max=14.5 @count=6.5");
  EXPECT_TRUE(entry.inlineImage);
  EXPECT_TRUE(entry.oneshot);
  ASSERT_TRUE(entry.radius.has_value());
  EXPECT_DOUBLE_EQ(*entry.radius, 8.5);
  ASSERT_TRUE(entry.radiusStd.has_value());
  EXPECT_DOUBLE_EQ(*entry.radiusStd, 1.25);
  ASSERT_TRUE(entry.radiusMin.has_value());
  EXPECT_DOUBLE_EQ(*entry.radiusMin, 4.5);
  ASSERT_TRUE(entry.radiusMax.has_value());
  EXPECT_DOUBLE_EQ(*entry.radiusMax, 14.5);
  ASSERT_TRUE(entry.expectedCount.has_value());
  EXPECT_DOUBLE_EQ(*entry.expectedCount, 6.5);

  // Defaults: the whole family is absent unless spelled out.
  const ManifestEntry plain = parseManifestLine("synth serial");
  EXPECT_FALSE(plain.inlineImage);
  EXPECT_FALSE(plain.oneshot);
  EXPECT_FALSE(plain.radiusStd.has_value());
  EXPECT_FALSE(plain.expectedCount.has_value());
  EXPECT_FALSE(parseManifestLine("synth serial @oneshot=0").oneshot);

  // @image accepts only "inline"; prior directives must be positive.
  EXPECT_THROW((void)parseManifestLine("synth serial @image=file"),
               EngineError);
  EXPECT_THROW((void)parseManifestLine("synth serial @radius-std=0"),
               EngineError);
  EXPECT_THROW((void)parseManifestLine("synth serial @count=-2"),
               EngineError);
}

TEST(BatchManifest, UnknownDirectivesAndStrayTokensRaiseDescriptiveErrors) {
  // Unknown @directive: named, with the valid set listed.
  try {
    (void)parseManifestLine("synth serial @bogus=1");
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("@bogus"), std::string::npos) << message;
    EXPECT_NE(message.find("@iters"), std::string::npos) << message;
  }
  // A malformed directive value reports through the same OptionMap error
  // the --opt parser uses.
  try {
    (void)parseManifestLine("synth serial @iters=soon");
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("'@iters'"), std::string::npos) << message;
    EXPECT_NE(message.find("unsigned integer"), std::string::npos) << message;
  }
  // A stray trailing token is rejected at parse time with the identical
  // message OptionMap::parse produces for --opt (not silently ignored,
  // not deferred to strategy creation).
  try {
    (void)parseManifestLine("synth serial extra");
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("malformed option 'extra'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("key=value"), std::string::npos) << message;
  }
  // Same for '=value' (empty key), which OptionMap rejects but a naive
  // find('=') check would let through.
  EXPECT_THROW((void)parseManifestLine("synth serial =5"), EngineError);
  // Duplicate keys raise the --opt duplicate diagnostic at parse time too.
  try {
    (void)parseManifestLine("synth mc3 chains=2 chains=4");
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    EXPECT_NE(std::string(e.what()).find("given twice"), std::string::npos)
        << e.what();
  }
}

TEST(BatchManifest, DirectiveErrorsCarryTheManifestLineNumber) {
  std::istringstream in("synth serial\nsynth serial @bogus=1\n");
  try {
    (void)parseBatchManifest(in);
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
    EXPECT_NE(message.find("@bogus"), std::string::npos) << message;
  }
}

// ---------------------------------------------------------------------------
// The incremental-admission path and the reusable shared budget.
// ---------------------------------------------------------------------------

TEST(BatchRunner, RunOneMatchesWholeBatchExecution) {
  const img::Scene scene = tinyScene(41);
  const Problem problem = tinyProblem(scene);
  BatchJob job = makeJob(problem, "serial", 1200);
  job.seed = 17;

  BatchOptions options;
  options.resources.threads = 1;
  const BatchResult viaBatch = BatchRunner().run({job}, options);

  ExecResources resources;
  resources.threads = 1;
  const RunReport direct = BatchRunner().runOne(job, resources);

  EXPECT_EQ(direct.iterations, viaBatch.reports[0].iterations);
  EXPECT_DOUBLE_EQ(direct.logPosterior, viaBatch.reports[0].logPosterior);
  EXPECT_EQ(direct.circles.size(), viaBatch.reports[0].circles.size());
}

TEST(BatchRunner, RunOneThrowsInsteadOfCapturing) {
  const img::Scene scene = tinyScene(42);
  BatchJob bad = makeJob(tinyProblem(scene), "warp");
  EXPECT_THROW((void)BatchRunner().runOne(bad, ExecResources{}),
               EngineError);
  BatchJob nullImage = makeJob(Problem{}, "serial");
  EXPECT_THROW((void)BatchRunner().runOne(nullImage, ExecResources{}),
               EngineError);
}

TEST(BatchRunner, SharedBudgetIsReusedAcrossBatchesAndRestored) {
  const img::Scene scene = tinyScene(43);
  const Problem problem = tinyProblem(scene);
  par::PoolBudget budget(3);

  BatchOptions options;
  options.sharedBudget = &budget;
  for (int round = 0; round < 3; ++round) {
    std::vector<BatchJob> jobs;
    for (int i = 0; i < 4; ++i) {
      jobs.push_back(makeJob(problem, "serial", 400));
    }
    const BatchResult result = BatchRunner().run(jobs, options);
    EXPECT_EQ(countCompleted(result), jobs.size()) << round;
    // Every thread returned: the budget is whole again between batches.
    EXPECT_EQ(budget.available(), 3u) << round;
  }
}

TEST(PoolBudgetBlocking, TryAcquireForWakesOnRelease) {
  par::PoolBudget budget(1);
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

TEST(BatchManifest, RejectsShortLinesAndMalformedOptionsWithLineNumbers) {
  {
    std::istringstream in("cells.pgm serial\njust-an-image\n");
    try {
      (void)parseBatchManifest(in);
      FAIL() << "expected EngineError";
    } catch (const EngineError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
  {
    std::istringstream in("cells.pgm mc3 chains\n");
    try {
      (void)parseBatchManifest(in);
      FAIL() << "expected EngineError";
    } catch (const EngineError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("line 1"), std::string::npos) << message;
      EXPECT_NE(message.find("chains"), std::string::npos) << message;
    }
  }
}

}  // namespace
}  // namespace mcmcpar::engine
