#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "analysis/metrics.hpp"
#include "core/pipeline.hpp"
#include "img/synth.hpp"

namespace mcmcpar::core {
namespace {

PipelineParams smallParams() {
  PipelineParams p;
  p.prior.radiusMean = 8.0;
  p.prior.radiusStd = 0.8;
  p.prior.radiusMin = 3.0;
  p.prior.radiusMax = 14.0;
  p.iterationsBase = 1500;
  p.iterationsPerCircle = 400;
  p.seed = 5;
  return p;
}

std::vector<model::Circle> truthToCircles(const img::Scene& scene) {
  std::vector<model::Circle> out;
  for (const auto& t : scene.truth) out.push_back(model::Circle{t.x, t.y, t.r});
  return out;
}

TEST(RunPartitionMcmc, RecoversIsolatedDiscs) {
  img::SceneSpec spec = img::cellScene(96, 96, 5, 8.0, 31);
  spec.radiusStd = 0.5;
  const img::Scene scene = img::generateScene(spec);
  const PartitionRun run = runPartitionMcmc(
      scene.image, partition::IRect{0, 0, 96, 96}, smallParams(), 7);
  EXPECT_GT(run.iterations, 0u);
  EXPECT_GT(run.seconds, 0.0);
  EXPECT_GT(run.timePerIteration, 0.0);
  const auto q = analysis::scoreCircles(run.circles, truthToCircles(scene), 6.0);
  EXPECT_GE(q.recall, 0.6);
}

TEST(RunPartitionMcmc, CirclesStayInsideRect) {
  const img::Scene scene = img::generateScene(img::beadsScene(33));
  const partition::IRect rect{95, 0, 320, 416};
  const PartitionRun run =
      runPartitionMcmc(scene.image, rect, smallParams(), 9);
  for (const model::Circle& c : run.circles) {
    EXPECT_GE(c.x - c.r, rect.x0 - 1e-9);
    EXPECT_LE(c.x + c.r, rect.x0 + rect.w + 1e-9);
  }
  EXPECT_NEAR(run.relativeArea,
              static_cast<double>(rect.area()) / (512.0 * 416.0), 1e-9);
}

TEST(RunWholeImage, PopulatesEstimates) {
  const img::Scene scene = img::generateScene(img::beadsScene(35));
  PipelineParams params = smallParams();
  params.iterationsBase = 1000;
  params.iterationsPerCircle = 150;
  const PartitionRun run = runWholeImage(scene.image, params);
  EXPECT_GT(run.estimatedCount, 30.0);
  EXPECT_LT(run.estimatedCount, 60.0);
  EXPECT_EQ(run.rect.w, 512);
}

TEST(IntelligentPipeline, EndToEndOnBeads) {
  const img::Scene scene = img::generateScene(img::beadsScene(37));
  PipelineParams params = smallParams();
  const PipelineReport report = runIntelligentPipeline(scene.image, params);
  EXPECT_GE(report.partitions.size(), 3u);
  EXPECT_GT(report.partitionerSeconds, 0.0);
  EXPECT_FALSE(report.merged.empty());
  // Quality: most beads recovered after trivial recombination.
  const auto q =
      analysis::scoreCircles(report.merged, truthToCircles(scene), 6.0);
  EXPECT_GE(q.recall, 0.7);
  EXPECT_GE(q.precision, 0.6);
  // Runtime summaries populated.
  EXPECT_GT(report.parallelRuntime, 0.0);
  EXPECT_GE(report.loadBalancedRuntime, report.parallelRuntime - 1e-9);
}

TEST(IntelligentPipeline, IterationBudgetFollowsEstimatedCount) {
  const img::Scene scene = img::generateScene(img::beadsScene(39));
  const PipelineReport report =
      runIntelligentPipeline(scene.image, smallParams());
  // The iteration budget is base + perCircle * round(estimate), so the
  // densest partition must receive the largest budget.
  double largestEstimate = -1.0;
  std::size_t denseIdx = 0;
  for (std::size_t i = 0; i < report.partitions.size(); ++i) {
    if (report.partitions[i].estimatedCount > largestEstimate) {
      largestEstimate = report.partitions[i].estimatedCount;
      denseIdx = i;
    }
  }
  for (std::size_t i = 0; i < report.partitions.size(); ++i) {
    EXPECT_LE(report.partitions[i].iterations,
              report.partitions[denseIdx].iterations);
  }
}

TEST(BlindPipeline, EndToEndOnCells) {
  img::SceneSpec spec = img::cellScene(160, 160, 12, 8.0, 41);
  spec.radiusStd = 0.5;
  const img::Scene scene = img::generateScene(spec);
  PipelineParams params = smallParams();
  params.blind.gridX = 2;
  params.blind.gridY = 2;
  params.blind.overlapMargin = 0.0;  // auto: 1.1 * radiusMean
  const PipelineReport report = runBlindPipeline(scene.image, params);
  ASSERT_EQ(report.partitions.size(), 4u);
  const auto q =
      analysis::scoreCircles(report.merged, truthToCircles(scene), 6.0);
  EXPECT_GE(q.recall, 0.6);
  // No gross duplication: found count within 2x truth.
  EXPECT_LE(report.merged.size(), 2 * scene.truth.size());
}

TEST(BlindPipeline, ExpandedRectsAreUsed) {
  const img::Scene scene =
      img::generateScene(img::cellScene(128, 128, 8, 8.0, 43));
  PipelineParams params = smallParams();
  params.blind.overlapMargin = 9.0;
  const PipelineReport report = runBlindPipeline(scene.image, params);
  for (const PartitionRun& run : report.partitions) {
    // Expanded partitions are larger than the 64x64 cores.
    EXPECT_GT(run.rect.w, 64);
    EXPECT_GT(run.rect.h, 64);
  }
}

TEST(BlindPipeline, MergeStatsAccountForAllResults) {
  const img::Scene scene =
      img::generateScene(img::cellScene(128, 128, 10, 8.0, 45));
  const PipelineReport report = runBlindPipeline(scene.image, smallParams());
  std::size_t produced = 0;
  for (const PartitionRun& run : report.partitions) produced += run.circles.size();
  const auto& s = report.mergeStats;
  // Every per-partition circle is dropped, auto-accepted, merged or disputed.
  EXPECT_EQ(produced, s.droppedOutsideCore + s.autoAccepted +
                          2 * s.mergedPairs + s.disputedAccepted +
                          s.disputedDiscarded);
}

/// A pipeline's progress is one stream in logical iterations: strictly
/// increasing, every beat out of the same total, and ending at (sum of
/// partition iterations, sum of partition iterations).
void expectIterationProgress(
    const std::function<PipelineReport(const mcmc::RunHooks&)>& run) {
  std::vector<mcmc::RunProgress> beats;
  mcmc::RunHooks hooks;
  hooks.onProgress = [&](const mcmc::RunProgress& p) { beats.push_back(p); };
  const PipelineReport report = run(hooks);
  ASSERT_GE(report.partitions.size(), 2u);
  std::uint64_t iterations = 0;
  for (const PartitionRun& p : report.partitions) iterations += p.iterations;
  ASSERT_FALSE(beats.empty());
  for (std::size_t i = 0; i < beats.size(); ++i) {
    EXPECT_STREQ(beats[i].phase, "sampling");
    EXPECT_EQ(beats[i].total, iterations);
    if (i > 0) {
      EXPECT_GT(beats[i].done, beats[i - 1].done);
    }
  }
  EXPECT_EQ(beats.back().done, iterations);
}

TEST(IntelligentPipeline, ProgressCountsLogicalIterations) {
  const img::Scene scene = img::generateScene(img::beadsScene(39));
  expectIterationProgress([&](const mcmc::RunHooks& hooks) {
    return runIntelligentPipeline(scene.image, smallParams(), hooks);
  });
}

TEST(BlindPipeline, ProgressCountsLogicalIterations) {
  const img::Scene scene =
      img::generateScene(img::cellScene(128, 128, 10, 8.0, 45));
  expectIterationProgress([&](const mcmc::RunHooks& hooks) {
    return runBlindPipeline(scene.image, smallParams(), hooks);
  });
}

}  // namespace
}  // namespace mcmcpar::core
