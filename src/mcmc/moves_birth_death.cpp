#include "mcmc/moves_birth_death.hpp"

#include <cmath>
#include <limits>

#include "rng/distributions.hpp"

namespace mcmcpar::mcmc {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}

BirthDraw drawBirthCircle(const model::ModelState& state,
                          const RegionConstraint& rc,
                          const ProposalParams& proposal,
                          rng::Stream& stream) {
  const model::PriorParams& pp = state.prior().params();
  const double sigma = pp.radiusStd * proposal.birthRadiusWiden;

  model::Circle c;
  c.r = rng::truncatedNormal(stream, pp.radiusMean, sigma, pp.radiusMin,
                             pp.radiusMax);
  const double xLo = rc.centreXLo(c.r);
  const double xHi = rc.centreXHi(c.r);
  const double yLo = rc.centreYLo(c.r);
  const double yHi = rc.centreYHi(c.r);
  if (xLo >= xHi || yLo >= yHi) return {model::Circle{}, kNegInf, false};
  c.x = stream.uniform(xLo, xHi);
  c.y = stream.uniform(yLo, yHi);

  const double logDensity =
      rng::logTruncatedNormalPdf(c.r, pp.radiusMean, sigma, pp.radiusMin,
                                 pp.radiusMax) -
      std::log((xHi - xLo) * (yHi - yLo));
  return {c, logDensity, true};
}

double birthLogDensity(const model::ModelState& state,
                       const RegionConstraint& rc,
                       const ProposalParams& proposal,
                       const model::Circle& c) {
  const model::PriorParams& pp = state.prior().params();
  const double sigma = pp.radiusStd * proposal.birthRadiusWiden;
  const double xLo = rc.centreXLo(c.r);
  const double xHi = rc.centreXHi(c.r);
  const double yLo = rc.centreYLo(c.r);
  const double yHi = rc.centreYHi(c.r);
  if (xLo >= xHi || yLo >= yHi) return kNegInf;
  if (c.x < xLo || c.x > xHi || c.y < yLo || c.y > yHi) return kNegInf;
  return rng::logTruncatedNormalPdf(c.r, pp.radiusMean, sigma, pp.radiusMin,
                                    pp.radiusMax) -
         std::log((xHi - xLo) * (yHi - yLo));
}

PendingMove AddMove::propose(const model::ModelState& state,
                             const SelectionContext& ctx,
                             rng::Stream& stream) const {
  const RegionConstraint whole = RegionConstraint::wholeDomain(state);
  const RegionConstraint& rc = ctx.region != nullptr ? *ctx.region : whole;

  const BirthDraw draw = drawBirthCircle(state, rc, proposal_, stream);
  if (!draw.valid) return {};

  const std::size_t n = state.config().size();
  // Forward: pick "add" then the circle; reverse: pick "delete" then 1/(n+1).
  const double logQFwd = std::log(weights_.add) + draw.logDensity;
  const double logQRev =
      std::log(weights_.del) - std::log(static_cast<double>(n + 1));

  PendingMove pending;
  pending.op = PendingMove::Op::Add;
  pending.c0 = draw.circle;
  setPosteriorDelta(pending, state.estimateAdd(draw.circle), logQRev, logQFwd);
  return pending;
}

PendingMove DeleteMove::propose(const model::ModelState& state,
                                const SelectionContext& ctx,
                                rng::Stream& stream) const {
  const model::CircleId id = pickCircle(state, ctx, stream);
  if (id == model::kInvalidCircle) return {};
  const std::size_t n = selectableCount(state, ctx);

  const RegionConstraint whole = RegionConstraint::wholeDomain(state);
  const RegionConstraint& rc = ctx.region != nullptr ? *ctx.region : whole;

  const double logQFwd =
      std::log(weights_.del) - std::log(static_cast<double>(n));
  const double logQRev =
      std::log(weights_.add) +
      birthLogDensity(state, rc, proposal_, state.config().get(id));

  PendingMove pending;
  pending.op = PendingMove::Op::Delete;
  pending.id0 = id;
  setPosteriorDelta(pending, state.estimateDelete(id), logQRev, logQFwd);
  return pending;
}

PendingMove ReplaceMove::propose(const model::ModelState& state,
                                 const SelectionContext& ctx,
                                 rng::Stream& stream) const {
  const model::CircleId id = pickCircle(state, ctx, stream);
  if (id == model::kInvalidCircle) return {};

  const RegionConstraint whole = RegionConstraint::wholeDomain(state);
  const RegionConstraint& rc = ctx.region != nullptr ? *ctx.region : whole;

  const BirthDraw draw = drawBirthCircle(state, rc, proposal_, stream);
  if (!draw.valid) return {};

  // Selection (1/n) and the move probability cancel between the directions;
  // what remains is the birth density of the outgoing vs. incoming circle.
  const double logQFwd = draw.logDensity;
  const double logQRev =
      birthLogDensity(state, rc, proposal_, state.config().get(id));

  PendingMove pending;
  pending.op = PendingMove::Op::Replace;
  pending.id0 = id;
  pending.c0 = draw.circle;
  setPosteriorDelta(pending, state.estimateReplace(id, draw.circle), logQRev,
                    logQFwd);
  return pending;
}

}  // namespace mcmcpar::mcmc
