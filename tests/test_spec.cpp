#include <gtest/gtest.h>

#include <cmath>

#include "img/synth.hpp"
#include "spec/speculative.hpp"

namespace mcmcpar::spec {
namespace {

model::PriorParams priorParams() {
  model::PriorParams p;
  p.expectedCount = 10.0;
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

  explicit Fixture(std::uint64_t seed)
      : scene(img::generateScene(img::cellScene(96, 96, 10, 6.0, seed))),
        state(scene.image, priorParams(), model::LikelihoodParams{}),
        registry(mcmc::MoveRegistry::caseStudy()) {
    rng::Stream s(seed + 3);
    state.initialiseRandom(8, s);
  }
};

TEST(ExpectedConsumed, ClosedFormEdgeCases) {
  EXPECT_NEAR(expectedConsumedPerRound(0.0, 8), 1.0, 1e-12);
  EXPECT_NEAR(expectedConsumedPerRound(1.0, 8), 8.0, 1e-12);
  EXPECT_NEAR(expectedConsumedPerRound(0.5, 1), 1.0, 1e-12);
  // p=0.75, n=4: (1-0.31640625)/0.25 = 2.734375.
  EXPECT_NEAR(expectedConsumedPerRound(0.75, 4), 2.734375, 1e-12);
}

TEST(SpeculativeExecutor, AdvancesRequestedIterations) {
  Fixture f(1);
  SpeculativeExecutor exec(f.state, f.registry, 4, 11);
  exec.run(1000);
  EXPECT_GE(exec.stats().logicalIterations, 1000u);
  EXPECT_LT(exec.stats().logicalIterations, 1000u + 4u);
  EXPECT_GT(exec.stats().rounds, 0u);
}

TEST(SpeculativeExecutor, SingleLaneConsumesOnePerRound) {
  Fixture f(2);
  SpeculativeExecutor exec(f.state, f.registry, 1, 12);
  exec.run(500);
  EXPECT_EQ(exec.stats().rounds, exec.stats().logicalIterations);
  EXPECT_EQ(exec.stats().proposalsEvaluated, exec.stats().rounds);
  EXPECT_EQ(exec.stats().wasteFraction(), 0.0);
}

TEST(SpeculativeExecutor, PreservesPosteriorCache) {
  Fixture f(3);
  SpeculativeExecutor exec(f.state, f.registry, 4, 13);
  exec.run(5000);
  EXPECT_NEAR(f.state.logPosterior(), f.state.recomputeLogPosterior(), 1e-5);
}

TEST(SpeculativeExecutor, ConsumedMatchesRejectionPrediction) {
  Fixture f(4);
  SpeculativeExecutor exec(f.state, f.registry, 4, 14);
  // Burn in so rejection rates are stationary, then measure.
  exec.run(4000);
  const auto agg = exec.diagnostics().aggregate();
  const double rejection = agg.rejectionRate();
  const double predicted = expectedConsumedPerRound(rejection, exec.lanes());
  // The committed-prefix diagnostics are themselves biased towards the
  // measured rejection rate, so the identity holds in expectation; allow a
  // generous band for sampling noise.
  EXPECT_NEAR(exec.stats().meanConsumedPerRound(), predicted,
              0.25 * predicted);
}

TEST(SpeculativeExecutor, PhaseFiltersRestrictMoveKinds) {
  Fixture f(5);
  SpeculativeExecutor exec(f.state, f.registry, 2, 15);
  exec.run(500, MovePhase::GlobalOnly);
  for (const auto& [name, stats] : exec.diagnostics().perMove()) {
    EXPECT_TRUE(name == "add" || name == "delete" || name == "merge" ||
                name == "split" || name == "replace")
        << name;
  }
}

TEST(SpeculativeExecutor, LocalPhaseImprovesFit) {
  Fixture f(6);
  const double before = f.state.logPosterior();
  SpeculativeExecutor exec(f.state, f.registry, 4, 16);
  exec.run(4000, MovePhase::LocalOnly);
  EXPECT_GE(f.state.logPosterior(), before - 10.0);  // no catastrophic drift
  EXPECT_EQ(f.state.config().size(), 8u);  // local moves never change count
}

TEST(SpeculativeExecutor, ParallelLanesMatchSemantics) {
  // With a thread pool the proposals are evaluated concurrently, but the
  // committed trajectory must still be a prefix-consume chain; run both and
  // compare *statistics* (the trajectories are identical because lane
  // streams are derived from (round, lane)).
  Fixture serial(7), pooled(7);
  par::PoolLease lease = par::PoolLease::acquire(nullptr, 3);
  SpeculativeExecutor a(serial.state, serial.registry, 3, 17);
  SpeculativeExecutor b(pooled.state, pooled.registry, 3, 17, &lease);
  a.run(2000);
  b.run(2000);
  EXPECT_EQ(a.stats().rounds, b.stats().rounds);
  EXPECT_EQ(a.stats().logicalIterations, b.stats().logicalIterations);
  EXPECT_EQ(serial.state.config().size(), pooled.state.config().size());
  EXPECT_NEAR(serial.state.logPosterior(), pooled.state.logPosterior(), 1e-9);
}

TEST(SpeculativeExecutor, MoreLanesMoreIterationsPerRound) {
  Fixture f2(8), f8(8);
  SpeculativeExecutor a(f2.state, f2.registry, 2, 18);
  SpeculativeExecutor b(f8.state, f8.registry, 8, 18);
  a.run(3000);
  b.run(3000);
  EXPECT_GT(b.stats().meanConsumedPerRound(),
            a.stats().meanConsumedPerRound());
}

}  // namespace
}  // namespace mcmcpar::spec
