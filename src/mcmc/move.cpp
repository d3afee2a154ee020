#include "mcmc/move.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace mcmcpar::mcmc {

Move::~Move() = default;

double RegionConstraint::maxRadiusAt(double x, double y) const noexcept {
  const double dx = std::min(x - rect.x0, rect.x1 - x) - margin;
  const double dy = std::min(y - rect.y0, rect.y1 - y) - margin;
  return std::min(dx, dy);
}

void setPosteriorDelta(PendingMove& pending,
                       const model::ModelState::DeltaEstimate& delta,
                       double logQRev, double logQFwd) noexcept {
  pending.logPosteriorDelta = delta.delta;
  pending.estimated = delta.estimated;
  pending.deltaError = delta.error;
  pending.logQRev = logQRev;
  pending.logQFwd = logQFwd;
  pending.logAlpha = pending.logPosteriorDelta + logQRev - logQFwd;
}

void temper(PendingMove& pending, double beta) noexcept {
  const double remainder = pending.logAlpha - pending.logPosteriorDelta;
  pending.logAlpha = beta * pending.logPosteriorDelta + remainder;
  pending.beta = beta;
}

double logAlphaError(const PendingMove& pending) noexcept {
  // First-order error propagation with u = eps/2: logAlpha's two additions
  // round by at most u times their magnitudes on each path, the tempering's
  // product, difference and sum likewise, and each path's inputs differ by
  // deltaError (by the untempered bound for the remainder). Every rounding
  // term is doubled, which also absorbs the second-order ones.
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  const double scale = std::fabs(pending.logPosteriorDelta) +
                       pending.deltaError + std::fabs(pending.logQRev) +
                       std::fabs(pending.logQFwd);
  const double error = pending.deltaError + 2.0 * kEps * scale;
  if (!pending.beta) return error;
  const double beta = std::fabs(*pending.beta);
  return beta * pending.deltaError + 2.0 * error +
         2.0 * kEps * (beta + 3.0) * scale;
}

void refine(const model::ModelState& state, PendingMove& pending) {
  if (!pending.estimated) return;
  using Op = PendingMove::Op;
  double exact = 0.0;
  switch (pending.op) {
    case Op::Add:
      exact = state.deltaAdd(pending.c0);
      break;
    case Op::Delete:
      exact = state.deltaDelete(pending.id0);
      break;
    case Op::Replace:
      exact = state.deltaReplace(pending.id0, pending.c0);
      break;
    case Op::Merge:
    case Op::Split:
    case Op::None:
      assert(false && "only add, delete and replace proposals are estimated");
      return;
  }
  const std::optional<double> beta = pending.beta;
  setPosteriorDelta(pending, model::ModelState::DeltaEstimate{exact, 0.0, false},
                    pending.logQRev, pending.logQFwd);
  if (beta) temper(pending, *beta);
}

bool decideMove(const model::ModelState& state, PendingMove& pending,
                rng::Stream& stream) {
  if (!pending.valid()) return false;
  if (pending.estimated) {
    const double upper = pending.logAlpha + logAlphaError(pending);
    if (upper < 0.0) {
      // The exact logAlpha <= upper < 0 draws this same u, and rejects
      // whenever log u >= upper.
      const double u = stream.uniform();
      if (u <= 0.0) return false;
      const double logU = std::log(u);
      if (logU >= upper) return false;
      refine(state, pending);
      return logU < pending.logAlpha;
    }
    refine(state, pending);
  }
  // alpha >= 1 accepts unconditionally; otherwise accept with prob alpha.
  if (pending.logAlpha < 0.0) {
    const double u = stream.uniform();
    if (u <= 0.0 || std::log(u) >= pending.logAlpha) return false;
  }
  return true;
}

void commitPending(model::ModelState& state, const PendingMove& pending) {
  if (pending.estimated) {
    PendingMove exact = pending;
    refine(state, exact);
    commitPending(state, exact);
    return;
  }
  // Apply through the raw likelihood/configuration operations using the
  // pre-evaluated posterior delta; the convenience ModelState::commit*
  // methods would re-evaluate the delta a second time.
  using Op = PendingMove::Op;
  model::PixelLikelihood& lik = state.likelihoodMutable();
  model::Configuration& cfg = state.configMutable();
  state.adjustLogPosterior(pending.logPosteriorDelta);
  switch (pending.op) {
    case Op::Add:
      lik.adjustCoveredGain(lik.applyAdd(pending.c0));
      cfg.insert(pending.c0);
      break;
    case Op::Delete:
      lik.adjustCoveredGain(lik.applyRemove(cfg.get(pending.id0)));
      cfg.erase(pending.id0);
      break;
    case Op::Replace:
      lik.adjustCoveredGain(lik.applyRemove(cfg.get(pending.id0)));
      lik.adjustCoveredGain(lik.applyAdd(pending.c0));
      cfg.replace(pending.id0, pending.c0);
      break;
    case Op::Merge:
      lik.adjustCoveredGain(lik.applyRemove(cfg.get(pending.id0)));
      lik.adjustCoveredGain(lik.applyRemove(cfg.get(pending.id1)));
      lik.adjustCoveredGain(lik.applyAdd(pending.c0));
      cfg.erase(pending.id0);
      cfg.erase(pending.id1);
      cfg.insert(pending.c0);
      break;
    case Op::Split:
      lik.adjustCoveredGain(lik.applyRemove(cfg.get(pending.id0)));
      lik.adjustCoveredGain(lik.applyAdd(pending.c0));
      lik.adjustCoveredGain(lik.applyAdd(pending.c1));
      cfg.erase(pending.id0);
      cfg.insert(pending.c0);
      cfg.insert(pending.c1);
      break;
    case Op::None:
      break;
  }
}

bool acceptAndCommit(model::ModelState& state, PendingMove pending,
                     rng::Stream& stream) {
  if (!decideMove(state, pending, stream)) return false;
  commitPending(state, pending);
  return true;
}

model::CircleId pickCircle(const model::ModelState& state,
                           const SelectionContext& ctx,
                           rng::Stream& stream) noexcept {
  if (ctx.candidates != nullptr) {
    if (ctx.candidates->empty()) return model::kInvalidCircle;
    return (*ctx.candidates)[static_cast<std::size_t>(
        stream.below(ctx.candidates->size()))];
  }
  if (state.config().empty()) return model::kInvalidCircle;
  return state.config().randomAlive(stream);
}

std::size_t selectableCount(const model::ModelState& state,
                            const SelectionContext& ctx) noexcept {
  return ctx.candidates != nullptr ? ctx.candidates->size()
                                   : state.config().size();
}

}  // namespace mcmcpar::mcmc
