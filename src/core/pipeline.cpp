#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "mcmc/convergence.hpp"
#include "mcmc/sampler.hpp"
#include "par/task_scheduler.hpp"
#include "par/virtual_clock.hpp"
#include "partition/prior_estimation.hpp"

namespace mcmcpar::core {

namespace {

/// Compute the §IX runtime summaries: unlimited processors (max over
/// partitions) and LPT load balancing onto `threads`.
void finaliseRuntimes(PipelineReport& report, unsigned threads) {
  std::vector<double> costs;
  costs.reserve(report.partitions.size());
  double longest = 0.0;
  for (const PartitionRun& p : report.partitions) {
    costs.push_back(p.runtimeToConverge);
    longest = std::max(longest, p.runtimeToConverge);
  }
  report.loadBalancedThreads = threads;
  report.parallelRuntime =
      report.partitionerSeconds + longest + report.mergeSeconds;
  const auto schedule = par::lptSchedule(costs, threads);
  report.loadBalancedRuntime = report.partitionerSeconds +
                               schedule.makespan(costs) + report.mergeSeconds;
}

/// A partition's chain before it runs: the eq. 5 prior re-estimated on the
/// rect's own pixels and the iteration budget that prior implies.
struct PartitionPlan {
  partition::IRect rect;
  model::PriorParams prior;
  double estimatedCount = 0.0;
  std::uint64_t iterations = 0;
};

PartitionPlan planPartition(const img::ImageF& filtered,
                            const partition::IRect& rect,
                            const PipelineParams& params) {
  PartitionPlan plan;
  plan.rect = rect;
  const auto estimate = partition::estimateCount(
      filtered, params.theta, params.prior.radiusMean, rect);
  plan.estimatedCount = estimate.expectedCount;
  plan.prior = params.prior;
  plan.prior.expectedCount = std::max(estimate.expectedCount, 0.5);
  plan.iterations =
      params.iterationsBase +
      params.iterationsPerCircle *
          static_cast<std::uint64_t>(std::llround(plan.prior.expectedCount));
  if (params.iterationsCap != 0) {
    plan.iterations = std::min(plan.iterations, params.iterationsCap);
  }
  return plan;
}

PartitionRun runPlannedPartition(const img::ImageF& filtered,
                                 const PartitionPlan& plan,
                                 const PipelineParams& params,
                                 std::uint64_t seed,
                                 const mcmc::RunHooks& hooks) {
  const partition::IRect& rect = plan.rect;
  const model::PriorParams& prior = plan.prior;
  PartitionRun run;
  run.rect = rect;
  run.relativeArea =
      static_cast<double>(rect.area()) /
      (static_cast<double>(filtered.width()) * filtered.height());
  run.estimatedCount = plan.estimatedCount;

  const img::ImageF crop = filtered.crop(rect.x0, rect.y0, rect.w, rect.h);
  model::ModelState state(crop, prior, params.likelihood, rect.x0, rect.y0);

  rng::Stream stream(seed);
  state.initialiseRandom(
      static_cast<std::size_t>(std::llround(prior.expectedCount)), stream);

  const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy(params.moves);

  run.iterations = plan.iterations;
  const std::uint64_t traceEvery = std::max<std::uint64_t>(
      1, run.iterations / std::max<std::size_t>(params.tracePoints, 2));

  mcmc::Sampler sampler(state, registry, stream);
  const par::WallTimer timer;
  run.iterations = sampler.run(run.iterations, traceEvery, hooks);
  run.seconds = timer.seconds();
  run.timePerIteration =
      run.seconds / static_cast<double>(std::max<std::uint64_t>(run.iterations, 1));

  if (const auto plateau =
          mcmc::iterationsToPlateau(sampler.diagnostics().trace())) {
    run.itersToConverge = plateau->iteration;
    run.runtimeToConverge =
        static_cast<double>(plateau->iteration) * run.timePerIteration;
  } else {
    run.runtimeToConverge = run.seconds;
  }

  run.circles = state.config().snapshot();
  run.finalLogPosterior = state.logPosterior();
  run.diagnostics = sampler.diagnostics();
  return run;
}

/// Run one chain per rect, in order, stopping early on cancellation;
/// partition i is seeded `params.seed + seedStride * (i + 1)`. Every budget
/// is planned before the first chain starts so progress is one stream over
/// the whole pipeline: each sampler's beats are offset by the iterations
/// already run, keeping RunProgress in logical iterations, monotone, and
/// ending at (sum of iterations, sum of iterations).
void runPartitions(const img::ImageF& filtered,
                   const std::vector<partition::IRect>& rects,
                   const PipelineParams& params, std::uint64_t seedStride,
                   const mcmc::RunHooks& hooks, PipelineReport& report) {
  std::vector<PartitionPlan> plans;
  std::uint64_t total = 0;
  for (const partition::IRect& rect : rects) {
    plans.push_back(planPartition(filtered, rect, params));
    total += plans.back().iterations;
  }
  std::uint64_t done = 0;
  mcmc::RunHooks inner = hooks;
  if (hooks.onProgress) {
    inner.onProgress = [&](const mcmc::RunProgress& p) {
      hooks.progress(done + p.done, total, p.phase);
    };
  }
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (hooks.cancelled()) {
      report.cancelled = true;
      break;
    }
    report.partitions.push_back(runPlannedPartition(
        filtered, plans[i], params, params.seed + seedStride * (i + 1),
        inner));
    done += report.partitions.back().iterations;
  }
  // Catch a cancellation that truncated the final partition's sampler run
  // (the loop above would otherwise exit without polling again).
  if (hooks.cancelled()) report.cancelled = true;
}

}  // namespace

PartitionRun runPartitionMcmc(const img::ImageF& filtered,
                              const partition::IRect& rect,
                              const PipelineParams& params, std::uint64_t seed,
                              const mcmc::RunHooks& hooks) {
  return runPlannedPartition(filtered, planPartition(filtered, rect, params),
                             params, seed, hooks);
}

PartitionRun runWholeImage(const img::ImageF& filtered,
                           const PipelineParams& params) {
  return runPartitionMcmc(
      filtered, partition::IRect{0, 0, filtered.width(), filtered.height()},
      params, params.seed);
}

PipelineReport runIntelligentPipeline(const img::ImageF& filtered,
                                      const PipelineParams& params,
                                      const mcmc::RunHooks& hooks) {
  PipelineReport report;

  const par::WallTimer cutTimer;
  const auto cuts = partition::intelligentPartition(filtered, params.intelligent);
  report.partitionerSeconds = cutTimer.seconds();

  runPartitions(filtered, cuts.partitions, params, 101, hooks, report);

  // Intelligent cuts cross no artifact, so recombination is concatenation.
  const par::WallTimer mergeTimer;
  for (const PartitionRun& p : report.partitions) {
    report.merged.insert(report.merged.end(), p.circles.begin(),
                         p.circles.end());
  }
  report.mergeSeconds = mergeTimer.seconds();

  finaliseRuntimes(report, params.loadBalancedThreads);
  return report;
}

PipelineReport runBlindPipeline(const img::ImageF& filtered,
                                const PipelineParams& params,
                                const mcmc::RunHooks& hooks) {
  PipelineReport report;

  partition::BlindParams blind = params.blind;
  if (blind.overlapMargin <= 0.0) {
    blind.overlapMargin = 1.1 * params.prior.radiusMean;  // the §IX choice
  }
  const par::WallTimer setupTimer;
  const auto parts =
      partition::makeBlindPartitions(filtered.width(), filtered.height(), blind);
  report.partitionerSeconds = setupTimer.seconds();

  // MCMC sees the expanded rectangle so boundary artifacts can be fully
  // examined (fig. 4 top-left).
  std::vector<partition::IRect> expanded;
  for (const auto& part : parts) expanded.push_back(part.expanded);
  runPartitions(filtered, expanded, params, 211, hooks, report);
  // Sized to all partitions: a cancelled run leaves empty tails, which the
  // merge treats as partitions that found nothing.
  std::vector<std::vector<model::Circle>> perPartition(parts.size());
  for (std::size_t i = 0; i < report.partitions.size(); ++i) {
    perPartition[i] = report.partitions[i].circles;
  }

  const par::WallTimer mergeTimer;
  report.merged =
      partition::mergeBlindResults(parts, perPartition, blind, &report.mergeStats);
  report.mergeSeconds = mergeTimer.seconds();

  finaliseRuntimes(report, params.loadBalancedThreads);
  return report;
}

}  // namespace mcmcpar::core
