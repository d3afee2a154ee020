#include "mcmc/moves_local.hpp"

#include <algorithm>
#include <cmath>

#include "rng/distributions.hpp"

namespace mcmcpar::mcmc {

PendingMove MoveCentreMove::propose(const model::ModelState& state,
                                    const SelectionContext& ctx,
                                    rng::Stream& stream) const {
  const model::CircleId id = pickCircle(state, ctx, stream);
  if (id == model::kInvalidCircle) return {};
  const model::Circle c = state.config().get(id);

  const RegionConstraint whole = RegionConstraint::wholeDomain(state);
  const RegionConstraint& rc = ctx.region != nullptr ? *ctx.region : whole;

  const double xLo = rc.centreXLo(c.r);
  const double xHi = rc.centreXHi(c.r);
  const double yLo = rc.centreYLo(c.r);
  const double yHi = rc.centreYHi(c.r);
  if (xLo >= xHi || yLo >= yHi) return {};

  model::Circle moved = c;
  moved.x = rng::truncatedNormal(stream, c.x, proposal_.positionSigma, xLo, xHi);
  moved.y = rng::truncatedNormal(stream, c.y, proposal_.positionSigma, yLo, yHi);

  const double logQFwd =
      rng::logTruncatedNormalPdf(moved.x, c.x, proposal_.positionSigma, xLo, xHi) +
      rng::logTruncatedNormalPdf(moved.y, c.y, proposal_.positionSigma, yLo, yHi);
  const double logQRev =
      rng::logTruncatedNormalPdf(c.x, moved.x, proposal_.positionSigma, xLo, xHi) +
      rng::logTruncatedNormalPdf(c.y, moved.y, proposal_.positionSigma, yLo, yHi);

  PendingMove pending;
  pending.op = PendingMove::Op::Replace;
  pending.id0 = id;
  pending.c0 = moved;
  setPosteriorDelta(pending, state.estimateReplace(id, moved), logQRev, logQFwd);
  return pending;
}

PendingMove ResizeMove::propose(const model::ModelState& state,
                                const SelectionContext& ctx,
                                rng::Stream& stream) const {
  const model::CircleId id = pickCircle(state, ctx, stream);
  if (id == model::kInvalidCircle) return {};
  const model::Circle c = state.config().get(id);

  const RegionConstraint whole = RegionConstraint::wholeDomain(state);
  const RegionConstraint& rc = ctx.region != nullptr ? *ctx.region : whole;

  const model::PriorParams& pp = state.prior().params();
  const double rLo = pp.radiusMin;
  const double rHi = std::min(pp.radiusMax, rc.maxRadiusAt(c.x, c.y));
  if (rLo >= rHi) return {};

  model::Circle resized = c;
  resized.r = rng::truncatedNormal(stream, c.r, proposal_.radiusSigma, rLo, rHi);

  const double logQFwd =
      rng::logTruncatedNormalPdf(resized.r, c.r, proposal_.radiusSigma, rLo, rHi);
  const double logQRev =
      rng::logTruncatedNormalPdf(c.r, resized.r, proposal_.radiusSigma, rLo, rHi);

  PendingMove pending;
  pending.op = PendingMove::Op::Replace;
  pending.id0 = id;
  pending.c0 = resized;
  setPosteriorDelta(pending, state.estimateReplace(id, resized), logQRev,
                    logQFwd);
  return pending;
}

}  // namespace mcmcpar::mcmc
