#include "model/prior.hpp"

#include <cmath>
#include <limits>

#include "rng/distributions.hpp"

namespace mcmcpar::model {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}

CirclePrior::CirclePrior(const PriorParams& params, double domainWidth,
                         double domainHeight)
    : params_(params),
      logPositionDensity_(-std::log(domainWidth * domainHeight)) {}

double CirclePrior::logRadius(double r) const noexcept {
  if (!radiusInSupport(r)) return kNegInf;
  return rng::logNormalPdf(r, params_.radiusMean, params_.radiusStd);
}

double CirclePrior::logCount(std::size_t n) const noexcept {
  return rng::logPoissonPmf(n, params_.expectedCount);
}

double CirclePrior::pairPenalty(const Circle& a, const Circle& b) const noexcept {
  if (!discsIntersect(a, b)) return 0.0;
  const double shared = overlapArea(a, b);
  const double smaller = std::min(discArea(a), discArea(b));
  if (smaller <= 0.0) return 0.0;
  return -params_.overlapPenalty * (shared / smaller);
}

double CirclePrior::penaltyAgainstAll(const Configuration& config,
                                      const Circle& c, CircleId excludeA,
                                      CircleId excludeB, bool* clear) const {
  double total = 0.0;
  bool isClear = true;
  // A partner can intersect c only if its centre is within c.r + radiusMax.
  // The scan reaches kPixelShareSlack further for the pixel-share test: the
  // grid walks the wider scan's cells in the same row-major order and the
  // range test below is forEachNeighbour's own, so the in-range partners
  // are summed in the order a scan of `range` alone would give.
  const double range = c.r + params_.radiusMax;
  config.forEachNeighbour(
      c.x, c.y, range + kPixelShareSlack, [&](CircleId id, const Circle& other) {
        if (id == excludeA || id == excludeB) return;
        const double dx = other.x - c.x;
        const double dy = other.y - c.y;
        const double dist2 = dx * dx + dy * dy;
        const double touch = c.r + other.r + kPixelShareSlack;
        if (dist2 <= touch * touch) isClear = false;
        if (dist2 <= range * range) total += pairPenalty(c, other);
      });
  if (clear != nullptr) *clear = isClear;
  return total;
}

double CirclePrior::logPrior(const Configuration& config) const {
  double total = logCount(config.size());
  config.forEach([&](CircleId, const Circle& c) {
    total += logRadius(c.r) + logPosition();
  });
  // Pairwise overlap: each unordered pair once. Iterate circles and count a
  // pair at the circle with the smaller id (ties impossible).
  config.forEach([&](CircleId id, const Circle& c) {
    const double range = c.r + params_.radiusMax;
    config.forEachNeighbour(c.x, c.y, range, [&](CircleId other, const Circle& o) {
      if (other < id) total += pairPenalty(c, o);
    });
  });
  return total;
}

double CirclePrior::deltaAdd(const Configuration& config, const Circle& c,
                             bool* clear) const {
  const std::size_t n = config.size();
  return (logCount(n + 1) - logCount(n)) + logRadius(c.r) + logPosition() +
         penaltyAgainstAll(config, c, kInvalidCircle, kInvalidCircle, clear);
}

double CirclePrior::deltaDelete(const Configuration& config, CircleId id,
                                bool* clear) const {
  const std::size_t n = config.size();
  const Circle& c = config.get(id);
  return (logCount(n - 1) - logCount(n)) - logRadius(c.r) - logPosition() -
         penaltyAgainstAll(config, c, id, kInvalidCircle, clear);
}

double CirclePrior::deltaReplace(const Configuration& config, CircleId id,
                                 const Circle& replacement, bool* clear) const {
  const Circle& old = config.get(id);
  bool newClear = false;
  bool oldClear = false;
  const double delta =
      (logRadius(replacement.r) - logRadius(old.r)) +
      (penaltyAgainstAll(config, replacement, id, kInvalidCircle, &newClear) -
       penaltyAgainstAll(config, old, id, kInvalidCircle, &oldClear));
  if (clear != nullptr) *clear = newClear && oldClear;
  return delta;
}

double CirclePrior::deltaMerge(const Configuration& config, CircleId a,
                               CircleId b, const Circle& m) const {
  const std::size_t n = config.size();
  const Circle& ca = config.get(a);
  const Circle& cb = config.get(b);
  double delta = logCount(n - 1) - logCount(n);
  delta += logRadius(m.r) - logRadius(ca.r) - logRadius(cb.r);
  delta -= logPosition();  // two positions out, one in
  // Remove penalties of a and b against everyone else; the (a, b) pair
  // appears in both sweeps, so exclude it from the second.
  delta -= penaltyAgainstAll(config, ca, a);
  delta -= penaltyAgainstAll(config, cb, a, b);
  delta += penaltyAgainstAll(config, m, a, b);
  return delta;
}

double CirclePrior::deltaSplit(const Configuration& config, CircleId id,
                               const Circle& c1, const Circle& c2) const {
  const std::size_t n = config.size();
  const Circle& c = config.get(id);
  double delta = logCount(n + 1) - logCount(n);
  delta += logRadius(c1.r) + logRadius(c2.r) - logRadius(c.r);
  delta += logPosition();
  delta -= penaltyAgainstAll(config, c, id);
  delta += penaltyAgainstAll(config, c1, id);
  delta += penaltyAgainstAll(config, c2, id);
  delta += pairPenalty(c1, c2);  // the new pair interacts with itself
  return delta;
}

}  // namespace mcmcpar::model
