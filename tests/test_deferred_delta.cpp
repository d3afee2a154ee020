// Deferred exact deltas: the prefix-sum estimates of ModelState::estimate*
// must stay within their error bound of the exact delta* bits on every
// state an executor proposes against, and mcmc::decideMove must reproduce
// the exact path's decisions, draws and committed deltas while refining
// only acceptances and close calls.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "core/periodic_sampler.hpp"
#include "core/split_merge.hpp"
#include "img/disc_raster.hpp"
#include "img/synth.hpp"
#include "mcmc/sampler.hpp"
#include "model/likelihood_kernels.hpp"
#include "par/concurrency.hpp"

namespace mcmcpar {
namespace {

using model::Circle;
using model::CircleId;
using model::ModelState;

/// Intensities near 1 mixed with ones 2^30 to 2^32 times smaller, so gain
/// sums round and the estimate's bits differ from the exact ones.
img::ImageF mixedMagnitudeImage(int w, int h, std::uint64_t seed) {
  rng::Stream pixels(seed);
  img::ImageF im(w, h);
  for (float& v : im.pixels()) {
    const int exponent =
        pixels.uniform() < 0.5 ? 0 : -30 - static_cast<int>(pixels.below(3));
    const double magnitude =
        (1.0 + pixels.uniform()) * std::ldexp(1.0, exponent);
    v = static_cast<float>(pixels.uniform() < 0.5 ? -magnitude : magnitude);
  }
  return im;
}

model::PriorParams overlapPrior() {
  model::PriorParams p;
  p.expectedCount = 14.0;
  p.radiusMean = 6.0;
  p.radiusStd = 3.0;
  p.radiusMin = 1.0;
  p.radiusMax = 14.0;
  return p;
}

model::PriorParams cellPrior() {
  model::PriorParams p;
  p.expectedCount = 12.0;
  p.radiusMean = 6.0;
  p.radiusStd = 1.0;
  p.radiusMin = 2.0;
  p.radiusMax = 12.0;
  return p;
}

/// Counts of one property sweep.
struct Tally {
  int estimated = 0;
  int exact = 0;
};

/// Check one estimate against the exact delta's bits.
void expectWithinBound(const ModelState::DeltaEstimate& estimate, double exact,
                       Tally& tally) {
  if (!estimate.estimated) {
    ++tally.exact;
    EXPECT_EQ(estimate.delta, exact);
    EXPECT_EQ(estimate.error, 0.0);
    return;
  }
  ++tally.estimated;
  EXPECT_LE(std::fabs(estimate.delta - exact), estimate.error)
      << "estimate " << estimate.delta << " exact " << exact;
  // The bound must also be tight enough to decide on.
  EXPECT_LT(estimate.error, 1e-6 * (1.0 + std::fabs(exact)));
}

TEST(DeferredDelta, EstimatesStayWithinTheirBoundOnRandomConfigurations) {
  const model::LikelihoodParams wideGains{0.5, -0.5, 0.25};
  const model::kernels::Backend saved = model::kernels::activeBackend();
  for (model::kernels::Backend backend :
       {model::kernels::Backend::Scalar, model::kernels::Backend::Avx2}) {
    if (!model::kernels::setBackend(backend)) continue;  // AVX2 unavailable
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const img::ImageF full = mixedMagnitudeImage(96, 80, seed);
      // The full raster and a crop with a non-zero origin.
      for (const auto& [ox, oy] : {std::pair{0, 0}, std::pair{12, 8}}) {
        const int w = full.width() - ox;
        const int h = full.height() - oy;
        ModelState state(full.crop(ox, oy, w, h), overlapPrior(), wideGains, ox,
                         oy);
        rng::Stream s(seed * 31 + static_cast<std::uint64_t>(ox));
        // Centres anywhere in the crop, radii up to the prior's maximum:
        // discs overlap each other and cross the raster's edges.
        const auto randomCircle = [&] {
          return Circle{s.uniform(ox, ox + w), s.uniform(oy, oy + h),
                        s.uniform(1.0, 14.0)};
        };
        for (int i = 0; i < 10; ++i) (void)state.commitAdd(randomCircle());
        Tally tally;
        for (int i = 0; i < 600; ++i) {
          const auto& alive = state.config().aliveIds();
          const std::uint64_t kind = s.below(3);
          if (kind == 0 || alive.empty()) {
            const Circle c = randomCircle();
            expectWithinBound(state.estimateAdd(c), state.deltaAdd(c), tally);
            if (s.uniform() < 0.1) (void)state.commitAdd(c);
          } else if (kind == 1) {
            const CircleId id = alive[s.below(alive.size())];
            expectWithinBound(state.estimateDelete(id), state.deltaDelete(id),
                              tally);
            if (s.uniform() < 0.05) state.commitDelete(id);
          } else {
            const CircleId id = alive[s.below(alive.size())];
            const Circle old = state.config().get(id);
            // Half small moves (the two discs overlap), half anywhere.
            const Circle c =
                s.uniform() < 0.5
                    ? Circle{old.x + s.normal(0, 2), old.y + s.normal(0, 2),
                             std::clamp(old.r + s.normal(0, 1), 1.0, 14.0)}
                    : randomCircle();
            expectWithinBound(state.estimateReplace(id, c),
                              state.deltaReplace(id, c), tally);
            if (s.uniform() < 0.1) state.commitReplace(id, c);
          }
        }
        // Both paths are exercised.
        EXPECT_GT(tally.estimated, 60) << "seed " << seed;
        EXPECT_GT(tally.exact, 60) << "seed " << seed;
      }
    }
  }
  model::kernels::setBackend(saved);
}

TEST(DeferredDelta, SubStatesHoldEveryDiscThatCanShareAProposalsPixels) {
  // An estimate is only valid when every disc covering the crop near a
  // proposal is in the sub-state's configuration; buildSubState copies the
  // circles within the interaction range of the rect. Check that rather
  // than assume it: every main-state disc sharing a pixel with a legal
  // proposal disc is in the sub-state, and the sub-state's estimates stay
  // within their bound.
  const img::Scene scene =
      img::generateScene(img::cellScene(192, 192, 30, 6.0, 9));
  ModelState main(scene.image, cellPrior(), model::LikelihoodParams{});
  rng::Stream init(10);
  main.initialiseRandom(40, init);
  const auto pixelsOf = [&](const Circle& c) {
    std::vector<std::pair<int, int>> pixels;
    img::forEachDiscPixel(c.x, c.y, c.r, 192, 192,
                          [&](int x, int y) { pixels.emplace_back(x, y); });
    return pixels;
  };
  const auto sharesPixel = [&](const Circle& a, const Circle& b) {
    for (const auto& [x, y] : pixelsOf(a)) {
      if (img::pixelInDisc(x, y, b.x, b.y, b.r)) return true;
    }
    return false;
  };
  Tally tally;
  for (const partition::IRect rect :
       {partition::IRect{0, 0, 96, 192}, partition::IRect{96, 0, 96, 192},
        partition::IRect{40, 50, 100, 90}}) {
    core::SubState sub = core::buildSubState(main, rect, 0.0);
    const model::Configuration& subConfig = sub.state->config();
    const auto inSub = [&](const Circle& c) {
      bool found = false;
      subConfig.forEach([&](CircleId, const Circle& o) { found |= (o == c); });
      return found;
    };
    rng::Stream s(rect.x0 * 7 + rect.y0 + 1);
    for (int i = 0; i < 200; ++i) {
      const double r = s.uniform(2.0, 12.0);
      const mcmc::RegionConstraint& rc = sub.constraint;
      if (rc.centreXLo(r) >= rc.centreXHi(r)) continue;
      const Circle proposal{s.uniform(rc.centreXLo(r), rc.centreXHi(r)),
                            s.uniform(rc.centreYLo(r), rc.centreYHi(r)), r};
      ASSERT_TRUE(rc.allowsCircle(proposal));
      main.config().forEach([&](CircleId, const Circle& c) {
        if (sharesPixel(proposal, c)) {
          EXPECT_TRUE(inSub(c)) << "disc " << c.x << "," << c.y << "," << c.r
                                << " covers a proposal pixel but is missing";
        }
      });
      expectWithinBound(sub.state->estimateAdd(proposal),
                        sub.state->deltaAdd(proposal), tally);
      if (!sub.candidates.empty()) {
        const CircleId id = sub.candidates[s.below(sub.candidates.size())];
        expectWithinBound(sub.state->estimateReplace(id, proposal),
                          sub.state->deltaReplace(id, proposal), tally);
      }
    }
  }
  EXPECT_GT(tally.estimated, 100);
}

/// Wraps a move and checks each estimated proposal against its exact
/// refinement on the state it was proposed against (no RNG draws, so the
/// chain is unchanged).
class CheckedMove final : public mcmc::Move {
 public:
  CheckedMove(const mcmc::Move& inner, std::atomic<int>& checked,
              std::atomic<int>& violations)
      : inner_(inner), checked_(checked), violations_(violations) {}

  [[nodiscard]] const char* name() const noexcept override {
    return inner_.name();
  }
  [[nodiscard]] mcmc::MoveKind kind() const noexcept override {
    return inner_.kind();
  }
  [[nodiscard]] mcmc::PendingMove propose(const ModelState& state,
                                          const mcmc::SelectionContext& ctx,
                                          rng::Stream& stream) const override {
    const mcmc::PendingMove pending = inner_.propose(state, ctx, stream);
    if (pending.estimated) {
      mcmc::PendingMove exact = pending;
      mcmc::refine(state, exact);
      ++checked_;
      if (!(std::fabs(exact.logPosteriorDelta - pending.logPosteriorDelta) <=
                pending.deltaError &&
            std::fabs(exact.logAlpha - pending.logAlpha) <=
                mcmc::logAlphaError(pending))) {
        ++violations_;
      }
    }
    return pending;
  }

 private:
  const mcmc::Move& inner_;
  std::atomic<int>& checked_;
  std::atomic<int>& violations_;
};

TEST(DeferredDelta, PeriodicExecutorsProposeWithinTheBound) {
  // The in-place pool proposes concurrently against one shared state while
  // other partitions commit; split-serial proposes against cropped
  // sub-states. Every estimate stays within its bound on both.
  const mcmc::MoveRegistry inner = mcmc::MoveRegistry::caseStudy();
  for (core::LocalExecutor executor :
       {core::LocalExecutor::InPlacePool,
        core::LocalExecutor::SplitMergeSerial}) {
    std::atomic<int> checked{0};
    std::atomic<int> violations{0};
    mcmc::MoveRegistry registry;
    for (std::size_t i = 0; i < inner.size(); ++i) {
      registry.add(std::make_unique<CheckedMove>(inner.at(i), checked,
                                                 violations),
                   inner.weightOf(i));
    }
    registry.finalise();
    const img::Scene scene =
        img::generateScene(img::cellScene(256, 256, 20, 6.0, 3));
    ModelState state(scene.image, cellPrior(), model::LikelihoodParams{});
    rng::Stream init(4);
    state.initialiseRandom(16, init);
    core::PeriodicParams params;
    params.totalIterations = 20000;
    params.executor = executor;
    par::PoolLease lease = par::PoolLease::acquire(nullptr, 3);
    core::PeriodicSampler sampler(state, registry, params, 5, &lease);
    (void)sampler.run();
    EXPECT_GT(checked.load(), 5000);
    EXPECT_EQ(violations.load(), 0);
    EXPECT_NEAR(state.logPosterior(), state.recomputeLogPosterior(), 1e-6);
  }
}

TEST(DeferredDelta, DecisionsMatchTheExactPathAndRefineOnlyAcceptsAndCloseCalls) {
  // Drive the case-study moves, untempered and tempered as mc3 does. For
  // each proposal the reference refines first and then decides (the exact
  // path); decideMove must take the same decision with the same draws, and
  // refine only when it accepts or log u falls within the error bound.
  for (const std::optional<double> beta :
       {std::optional<double>{}, std::optional<double>{1.0},
        std::optional<double>{0.6}}) {
    const img::Scene scene =
        img::generateScene(img::cellScene(256, 256, 20, 8.0, 21));
    ModelState state(scene.image, cellPrior(), model::LikelihoodParams{});
    rng::Stream stream(22);
    state.initialiseRandom(18, stream);
    const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy();
    int estimated = 0;
    int refinements = 0;
    int acceptedEstimates = 0;
    for (int i = 0; i < 20000; ++i) {
      const mcmc::Move& move = registry.sampleAny(stream);
      mcmc::PendingMove pending = move.propose(state, {}, stream);
      if (pending.valid() && beta) mcmc::temper(pending, *beta);
      mcmc::PendingMove exact = pending;
      mcmc::refine(state, exact);
      rng::Stream reference = stream;
      const bool expected = mcmc::decideMove(state, exact, reference);
      const bool wasEstimated = pending.estimated;
      const bool accepted = mcmc::decideMove(state, pending, stream);
      ASSERT_EQ(accepted, expected) << "iteration " << i;
      ASSERT_EQ(stream.bits(), reference.bits()) << "iteration " << i;
      if (wasEstimated) {
        ++estimated;
        refinements += !pending.estimated;
        acceptedEstimates += accepted;
      }
      if (accepted) {
        ASSERT_FALSE(pending.estimated);
        ASSERT_EQ(pending.logPosteriorDelta, exact.logPosteriorDelta);
        ASSERT_EQ(pending.logAlpha, exact.logAlpha);
        mcmc::commitPending(state, pending);
      }
    }
    EXPECT_GT(estimated, 5000) << "beta " << beta.value_or(-1.0);
    EXPECT_GE(refinements, acceptedEstimates);
    // Refinements beyond the acceptances are the close calls: rare.
    EXPECT_LE(refinements - acceptedEstimates, estimated / 100)
        << "beta " << beta.value_or(-1.0);
  }
}

TEST(DeferredDelta, SamplerChainMatchesTheAlwaysRefinedChainBitForBit) {
  // The reference refines every proposal before deciding: the cost and the
  // bits of the exact-delta path.
  const img::Scene scene =
      img::generateScene(img::cellScene(200, 200, 14, 7.0, 31));
  ModelState deferred(scene.image, cellPrior(), model::LikelihoodParams{});
  ModelState exact(scene.image, cellPrior(), model::LikelihoodParams{});
  rng::Stream initA(32);
  rng::Stream initB(32);
  deferred.initialiseRandom(12, initA);
  exact.initialiseRandom(12, initB);
  const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy();
  mcmc::Sampler sampler(deferred, registry, 33);
  rng::Stream stream(33);
  for (int i = 0; i < 30000; ++i) {
    (void)sampler.step();
    const mcmc::Move& move = registry.sampleAny(stream);
    mcmc::PendingMove pending = move.propose(exact, {}, stream);
    mcmc::refine(exact, pending);
    (void)mcmc::acceptAndCommit(exact, pending, stream);
  }
  EXPECT_EQ(deferred.logPosterior(), exact.logPosterior());
  EXPECT_EQ(deferred.config().snapshot(), exact.config().snapshot());
  EXPECT_TRUE(deferred.likelihood().prefixTableBuilt());
}

TEST(DeferredDelta, ScoredStatesNeverBuildThePrefixTable) {
  const img::Scene scene =
      img::generateScene(img::cellScene(128, 128, 8, 7.0, 41));
  const std::vector<Circle> circles{{20, 20, 6}, {24, 22, 5}, {90, 70, 8}};
  ModelState state(scene.image, cellPrior(), model::LikelihoodParams{});
  for (const Circle& c : circles) (void)state.commitAdd(c);
  EXPECT_FALSE(state.likelihood().prefixTableBuilt());
  // The rescoring helper is this same fresh-state commit sequence.
  EXPECT_EQ(model::scoreConfiguration(scene.image, cellPrior(),
                                      model::LikelihoodParams{}, circles),
            state.logPosterior());
  // The first estimate builds the table, and copies share it.
  (void)state.estimateAdd(Circle{60, 100, 6});
  EXPECT_TRUE(state.likelihood().prefixTableBuilt());
  const ModelState copy = state;
  EXPECT_TRUE(copy.likelihood().prefixTableBuilt());
}

TEST(DeferredDelta, CropsReadTheirWindowOfTheParentsTable) {
  const img::Scene scene =
      img::generateScene(img::cellScene(128, 128, 8, 7.0, 43));
  const model::PixelLikelihood parent(scene.image, model::LikelihoodParams{});
  EXPECT_FALSE(parent.prefixTableBuilt());
  // Cropping builds the parent's table and shares it, also with a crop of
  // the crop, so each window sums the same gains as the parent.
  const model::PixelLikelihood crop = parent.crop(20, 30, 80, 70);
  const model::PixelLikelihood inner = crop.crop(35, 45, 40, 30);
  EXPECT_TRUE(parent.prefixTableBuilt());
  EXPECT_TRUE(inner.prefixTableBuilt());
  rng::Stream s(44);
  for (int i = 0; i < 200; ++i) {
    const Circle c{s.uniform(30, 80), s.uniform(40, 80), s.uniform(2, 12)};
    const model::PixelLikelihood::Estimate whole = parent.estimateAdd(c);
    for (const model::PixelLikelihood* lik : {&crop, &inner}) {
      const model::PixelLikelihood::Estimate part = lik->estimateAdd(c);
      EXPECT_LE(std::fabs(part.delta - lik->deltaAdd(c)), part.error);
      if (img::discPixelCount(c.x - lik->originX(), c.y - lik->originY(), c.r,
                              lik->width(), lik->height()) ==
          img::discPixelCount(c.x, c.y, c.r, 128, 128)) {
        EXPECT_EQ(part.delta, whole.delta);  // the disc lies in the window
      }
    }
  }
}

}  // namespace
}  // namespace mcmcpar
