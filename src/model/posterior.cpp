#include "model/posterior.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

namespace mcmcpar::model {

namespace {

Bounds boundsOf(const PixelLikelihood& lik) {
  Bounds b;
  b.x0 = lik.originX();
  b.y0 = lik.originY();
  b.x1 = lik.originX() + lik.width();
  b.y1 = lik.originY() + lik.height();
  return b;
}

Configuration makeConfig(const Bounds& b, const CirclePrior& prior) {
  // Grid cell size must cover the largest neighbour query: the overlap
  // interaction range. Merge-partner searches use a distance configured in
  // the move set; 2*radiusMax dominates for any sane merge distance.
  // The grid is indexed in domain-local coordinates? No: circle coordinates
  // are global, so the grid spans [0, x1) x [0, y1) to keep indexing simple;
  // cells left of the crop stay empty.
  return Configuration(b.x1, b.y1, std::max(prior.interactionRange(), 8.0));
}

}  // namespace

ModelState::ModelState(const img::ImageF& filtered, const PriorParams& prior,
                       const LikelihoodParams& likelihood, int originX,
                       int originY)
    : prior_(prior, filtered.width(), filtered.height()),
      likelihood_(filtered, likelihood, originX, originY),
      bounds_(boundsOf(likelihood_)),
      config_(makeConfig(bounds_, prior_)) {
  logPosterior_ = recomputeLogPosterior();
}

ModelState::ModelState(PixelLikelihood likelihood, const PriorParams& prior)
    : prior_(prior, likelihood.width(), likelihood.height()),
      likelihood_(std::move(likelihood)),
      bounds_(boundsOf(likelihood_)),
      config_(makeConfig(bounds_, prior_)) {
  logPosterior_ = recomputeLogPosterior();
}

double ModelState::recomputeLogPosterior() const {
  const auto circles = config_.snapshot();
  // No circles cover nothing: the reference sum would add a +0.0 per row.
  const double coveredGain =
      circles.empty() ? 0.0 : likelihood_.referenceCoveredGain(circles);
  const double logLik =
      likelihood_.logLikelihood() - likelihood_.coveredGain() + coveredGain;
  return prior_.logPrior(config_) + logLik;
}

void ModelState::resynchronise() {
  likelihood_.resynchronise();
  logPosterior_ = prior_.logPrior(config_) + likelihood_.logLikelihood();
}

double ModelState::deltaAdd(const Circle& c) const {
  return prior_.deltaAdd(config_, c) + likelihood_.deltaAdd(c);
}

double ModelState::deltaDelete(CircleId id) const {
  return prior_.deltaDelete(config_, id) +
         likelihood_.deltaRemove(config_.get(id));
}

double ModelState::deltaReplace(CircleId id, const Circle& c) const {
  return prior_.deltaReplace(config_, id, c) +
         likelihood_.deltaReplace(config_.get(id), c);
}

double ModelState::deltaMerge(CircleId a, CircleId b, const Circle& m) const {
  const std::array<Circle, 2> removed{config_.get(a), config_.get(b)};
  const std::array<Circle, 1> added{m};
  return prior_.deltaMerge(config_, a, b, m) +
         likelihood_.deltaMultiple(removed, added);
}

double ModelState::deltaSplit(CircleId id, const Circle& c1,
                              const Circle& c2) const {
  const std::array<Circle, 1> removed{config_.get(id)};
  const std::array<Circle, 2> added{c1, c2};
  return prior_.deltaSplit(config_, id, c1, c2) +
         likelihood_.deltaMultiple(removed, added);
}

namespace {

/// Fold the exact prior delta into a likelihood estimate. The exact path
/// computes prior + exactLik, so the two sums differ by at most the
/// likelihood bound plus one rounding of each.
ModelState::DeltaEstimate withPrior(double prior,
                                    PixelLikelihood::Estimate lik) noexcept {
  const double delta = prior + lik.delta;
  const double rounding = std::numeric_limits<double>::epsilon() *
                          (std::fabs(prior) + std::fabs(lik.delta) + lik.error);
  return {delta, lik.error + rounding, true};
}

}  // namespace

ModelState::DeltaEstimate ModelState::estimateAdd(const Circle& c) const {
  bool clear = false;
  const double prior = prior_.deltaAdd(config_, c, &clear);
  if (!clear || !std::isfinite(prior)) {
    return {prior + likelihood_.deltaAdd(c), 0.0, false};
  }
  return withPrior(prior, likelihood_.estimateAdd(c));
}

ModelState::DeltaEstimate ModelState::estimateDelete(CircleId id) const {
  bool clear = false;
  const double prior = prior_.deltaDelete(config_, id, &clear);
  if (!clear || !std::isfinite(prior)) {
    return {prior + likelihood_.deltaRemove(config_.get(id)), 0.0, false};
  }
  return withPrior(prior, likelihood_.estimateRemove(config_.get(id)));
}

ModelState::DeltaEstimate ModelState::estimateReplace(CircleId id,
                                                      const Circle& c) const {
  bool clear = false;
  const double prior = prior_.deltaReplace(config_, id, c, &clear);
  if (!clear || !std::isfinite(prior)) {
    return {prior + likelihood_.deltaReplace(config_.get(id), c), 0.0, false};
  }
  return withPrior(prior, likelihood_.estimateReplace(config_.get(id), c));
}

CircleId ModelState::commitAdd(const Circle& c) {
  logPosterior_ += deltaAdd(c);
  likelihood_.adjustCoveredGain(likelihood_.applyAdd(c));
  return config_.insert(c);
}

void ModelState::commitDelete(CircleId id) {
  logPosterior_ += deltaDelete(id);
  likelihood_.adjustCoveredGain(likelihood_.applyRemove(config_.get(id)));
  config_.erase(id);
}

void ModelState::commitReplace(CircleId id, const Circle& c) {
  logPosterior_ += deltaReplace(id, c);
  likelihood_.adjustCoveredGain(likelihood_.applyRemove(config_.get(id)));
  likelihood_.adjustCoveredGain(likelihood_.applyAdd(c));
  config_.replace(id, c);
}

CircleId ModelState::commitMerge(CircleId a, CircleId b, const Circle& m) {
  logPosterior_ += deltaMerge(a, b, m);
  likelihood_.adjustCoveredGain(likelihood_.applyRemove(config_.get(a)));
  likelihood_.adjustCoveredGain(likelihood_.applyRemove(config_.get(b)));
  likelihood_.adjustCoveredGain(likelihood_.applyAdd(m));
  config_.erase(a);
  config_.erase(b);
  return config_.insert(m);
}

std::pair<CircleId, CircleId> ModelState::commitSplit(CircleId id,
                                                      const Circle& c1,
                                                      const Circle& c2) {
  logPosterior_ += deltaSplit(id, c1, c2);
  likelihood_.adjustCoveredGain(likelihood_.applyRemove(config_.get(id)));
  likelihood_.adjustCoveredGain(likelihood_.applyAdd(c1));
  likelihood_.adjustCoveredGain(likelihood_.applyAdd(c2));
  config_.erase(id);
  const CircleId i1 = config_.insert(c1);
  const CircleId i2 = config_.insert(c2);
  return {i1, i2};
}

void ModelState::initialiseRandom(std::size_t count, rng::Stream& stream) {
  const PriorParams& p = prior_.params();
  for (std::size_t i = 0; i < count; ++i) {
    Circle c;
    c.r = std::clamp(stream.normal(p.radiusMean, p.radiusStd), p.radiusMin,
                     p.radiusMax);
    // Keep the whole disc inside the domain; skip circles that cannot fit.
    if (bounds_.width() <= 2 * c.r || bounds_.height() <= 2 * c.r) continue;
    c.x = stream.uniform(bounds_.x0 + c.r, bounds_.x1 - c.r);
    c.y = stream.uniform(bounds_.y0 + c.r, bounds_.y1 - c.r);
    commitAdd(c);
  }
}

double scoreConfiguration(const img::ImageF& filtered, const PriorParams& prior,
                          const LikelihoodParams& likelihood,
                          std::span<const Circle> circles) {
  ModelState state(filtered, prior, likelihood);
  for (const Circle& circle : circles) state.commitAdd(circle);
  return state.logPosterior();
}

}  // namespace mcmcpar::model
