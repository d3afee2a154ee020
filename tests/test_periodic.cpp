#include <gtest/gtest.h>

#include <cmath>

#include "core/periodic_sampler.hpp"
#include "img/synth.hpp"

namespace mcmcpar::core {
namespace {

model::PriorParams priorParams() {
  model::PriorParams p;
  p.expectedCount = 12.0;
  p.radiusMean = 6.0;
  p.radiusStd = 1.0;
  p.radiusMin = 2.0;
  p.radiusMax = 12.0;
  return p;
}

struct Fixture {
  img::Scene scene;
  model::ModelState state;
  mcmc::MoveRegistry registry;

  explicit Fixture(std::uint64_t seed, int size = 192)
      : scene(img::generateScene(img::cellScene(size, size, 12, 6.0, seed))),
        state(scene.image, priorParams(), model::LikelihoodParams{}),
        registry(mcmc::MoveRegistry::caseStudy()) {
    rng::Stream s(seed + 13);
    state.initialiseRandom(10, s);
  }
};

TEST(PartitionStream, OldFlatTagCollisionPairNowDistinct) {
  // Regression: the flat tag `phase * 0x10000 + i + 1` made
  // (phase 0, partition 65536) and (phase 1, partition 0) share a stream.
  const rng::Stream master(4242);
  rng::Stream a = partitionStream(master, 0, 65536);
  rng::Stream b = partitionStream(master, 1, 0);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.bits() == b.bits());
  EXPECT_EQ(equal, 0);
}

TEST(PartitionStream, DeterministicAndPairSensitive) {
  const rng::Stream master(7);
  rng::Stream a = partitionStream(master, 3, 2);
  rng::Stream a2 = partitionStream(master, 3, 2);
  EXPECT_EQ(a.bits(), a2.bits());
  rng::Stream swapped = partitionStream(master, 2, 3);
  rng::Stream c = partitionStream(master, 3, 2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (c.bits() == swapped.bits());
  EXPECT_EQ(equal, 0);
}

PeriodicParams baseParams(LocalExecutor executor) {
  PeriodicParams p;
  p.totalIterations = 6000;
  p.globalPhaseIterations = 40;
  p.executor = executor;
  return p;
}

/// The real threads of the concurrent executors: two workers and the caller.
par::PoolLease threeThreads() { return par::PoolLease::acquire(nullptr, 3); }

class ExecutorSweep : public ::testing::TestWithParam<LocalExecutor> {};

TEST_P(ExecutorSweep, RunsAndKeepsPosteriorCacheConsistent) {
  Fixture f(1);
  par::PoolLease lease = threeThreads();
  PeriodicSampler sampler(f.state, f.registry, baseParams(GetParam()), 99,
                          &lease);
  const PeriodicReport report = sampler.run();
  EXPECT_GE(report.globalIterations + report.localIterations,
            baseParams(GetParam()).totalIterations);
  EXPECT_GT(report.phases, 0u);
  // run() resynchronises; recompute must agree exactly after that.
  EXPECT_NEAR(f.state.logPosterior(), f.state.recomputeLogPosterior(), 1e-6);
  EXPECT_GT(f.state.config().size(), 0u);
}

TEST_P(ExecutorSweep, MoveMixMatchesQg) {
  // The in-place executors' safety margin needs partitions large enough to
  // leave modifiable circles; use a bigger scene.
  Fixture f(2, 384);
  PeriodicParams params = baseParams(GetParam());
  params.totalIterations = 20000;
  par::PoolLease lease = threeThreads();
  PeriodicSampler sampler(f.state, f.registry, params, 100, &lease);
  const PeriodicReport report = sampler.run();
  const double qg =
      static_cast<double>(report.globalIterations) /
      static_cast<double>(report.globalIterations + report.localIterations);
  // Phase alternation must preserve the long-run 40/60 mix. The band is
  // wider than sampling noise because local phases whose partitions hold no
  // modifiable feature (large safety margins, unlucky cross points) forfeit
  // their iterations — the effect the paper describes when partitions get
  // too small relative to the influence margin.
  EXPECT_NEAR(qg, 0.4, 0.08);
}

INSTANTIATE_TEST_SUITE_P(Executors, ExecutorSweep,
                         ::testing::Values(LocalExecutor::Serial,
                                           LocalExecutor::InPlacePool,
                                           LocalExecutor::SplitMergeSerial));

TEST(PeriodicSampler, SerialAndPoolAgreeExactly) {
  // Partition sessions are independent (disjoint writes, pre-derived
  // streams, thread-locally accumulated deltas), so the in-place pool must
  // produce the same chain as the serial executor.
  Fixture a(3, 384), b(3, 384);
  PeriodicParams ps = baseParams(LocalExecutor::Serial);
  PeriodicParams pp = baseParams(LocalExecutor::InPlacePool);
  ps.margin = pp.margin = 48.0;  // align the candidate sets
  par::PoolLease lease = threeThreads();
  PeriodicSampler sa(a.state, a.registry, ps, 7);
  PeriodicSampler sb(b.state, b.registry, pp, 7, &lease);
  sa.run();
  sb.run();
  EXPECT_EQ(a.state.config().size(), b.state.config().size());
  EXPECT_NEAR(a.state.logPosterior(), b.state.logPosterior(), 1e-6);
}

TEST(PeriodicSampler, SplitMergeStatisticallyMatchesSharedState) {
  // Deltas computed on crops differ from the shared-state path only in
  // floating-point summation order, but a single knife-edge accept flip
  // makes trajectories diverge chaotically; compare distribution-level
  // outcomes rather than bitwise state.
  Fixture a(5), b(5);
  PeriodicParams ps = baseParams(LocalExecutor::Serial);
  ps.margin = 0.0;  // align margins between the executors
  PeriodicParams pm = baseParams(LocalExecutor::SplitMergeSerial);
  pm.margin = 0.0;
  PeriodicSampler sa(a.state, a.registry, ps, 9);
  PeriodicSampler sb(b.state, b.registry, pm, 9);
  sa.run();
  sb.run();
  const auto na = static_cast<double>(a.state.config().size());
  const auto nb = static_cast<double>(b.state.config().size());
  EXPECT_NEAR(na, nb, 4.0);
  const double rel = std::abs(a.state.logPosterior() - b.state.logPosterior()) /
                     std::max(1.0, std::abs(a.state.logPosterior()));
  EXPECT_LT(rel, 0.05);
}

TEST(PeriodicSampler, ImprovesPosteriorLikeSequential) {
  Fixture f(6);
  const double before = f.state.logPosterior();
  PeriodicParams params = baseParams(LocalExecutor::Serial);
  params.totalIterations = 15000;
  PeriodicSampler sampler(f.state, f.registry, params, 10);
  sampler.run();
  EXPECT_GT(f.state.logPosterior(), before);
}

TEST(PeriodicSampler, UniformGridLayoutWorks) {
  Fixture f(7);
  PeriodicParams params = baseParams(LocalExecutor::Serial);
  params.layout = PartitionLayout::UniformGrid;
  params.gridSpacingX = 96;
  params.gridSpacingY = 96;
  PeriodicSampler sampler(f.state, f.registry, params, 11);
  const PeriodicReport report = sampler.run();
  EXPECT_GT(report.partitionsProcessed, 0u);
  EXPECT_NEAR(f.state.logPosterior(), f.state.recomputeLogPosterior(), 1e-6);
}

TEST(PeriodicSampler, VirtualClockChargesMakespan) {
  Fixture f(8);
  PeriodicParams params = baseParams(LocalExecutor::Serial);
  params.virtualThreads = 4;
  PeriodicSampler sampler(f.state, f.registry, params, 12);
  const PeriodicReport report = sampler.run();
  EXPECT_GT(report.virtualSeconds, 0.0);
  // Virtual time on 4 threads must not exceed the measured serial time.
  EXPECT_LE(report.virtualSeconds, report.wallSeconds * 1.05);
}

TEST(PeriodicSampler, SpeculativeGlobalPhasesPreserveChain) {
  Fixture f(9);
  PeriodicParams params = baseParams(LocalExecutor::Serial);
  params.specLanesGlobal = 4;
  PeriodicSampler sampler(f.state, f.registry, params, 13);
  const PeriodicReport report = sampler.run();
  EXPECT_GE(report.globalIterations, 1u);
  EXPECT_NEAR(f.state.logPosterior(), f.state.recomputeLogPosterior(), 1e-6);
}

TEST(PeriodicSampler, TraceRecordedWhenRequested) {
  Fixture f(10);
  PeriodicParams params = baseParams(LocalExecutor::Serial);
  params.traceInterval = 500;
  PeriodicSampler sampler(f.state, f.registry, params, 14);
  const PeriodicReport report = sampler.run();
  EXPECT_GT(report.diagnostics.trace().size(), 3u);
}

TEST(PeriodicSampler, LocalMovesNeverChangeCount) {
  Fixture f(11);
  const std::size_t before = f.state.config().size();
  PeriodicParams params = baseParams(LocalExecutor::Serial);
  params.globalPhaseIterations = 1;
  // One global move per phase: count changes only through those; verify the
  // local iterations never break the dimension bookkeeping by checking the
  // cache at the end (a count bug would desynchronise the Poisson term).
  PeriodicSampler sampler(f.state, f.registry, params, 15);
  sampler.run();
  EXPECT_NEAR(f.state.logPosterior(), f.state.recomputeLogPosterior(), 1e-6);
  (void)before;
}

}  // namespace
}  // namespace mcmcpar::core
