#pragma once

#include "model/circle.hpp"
#include "model/configuration.hpp"

namespace mcmcpar::model {

/// Parameters of the Bayesian prior over circle configurations.
///
/// The paper's case study (§III) encodes three pieces of prior knowledge:
/// the expected number of nuclei (Poisson on the count), their expected size
/// (normal on the radius, hard-bounded), and "the degree to which overlap is
/// tolerated" (a pairwise penalty on intersecting discs).
struct PriorParams {
  double expectedCount = 100.0;  ///< Poisson mean for the number of circles
  double radiusMean = 10.0;
  double radiusStd = 1.5;
  double radiusMin = 2.0;   ///< hard support bound (prior = 0 outside)
  double radiusMax = 30.0;  ///< hard support bound
  /// Log-penalty per unit of normalised overlap: a pair of discs sharing a
  /// fraction f of the smaller disc's area contributes -overlapPenalty * f.
  double overlapPenalty = 10.0;
};

/// Centre-distance slack of the "no shared pixel" test: two discs can share
/// a pixel (img::pixelInDisc) only if their centres lie within r1 + r2 plus
/// the rounding of that test, a few ulps of the coordinates, which stays
/// far below this for any raster an int can index.
inline constexpr double kPixelShareSlack = 1e-3;

/// Log-prior of a configuration and cheap deltas for every move type.
///
/// log p(config) = logPoisson(n; lambda)
///               + sum_i [ logNormal(r_i) + logUniform(position) ]
///               - overlapPenalty * sum_{i<j} overlap(i,j)/min(area_i, area_j)
///
/// Deltas are exact: they evaluate only the terms a move changes, using the
/// configuration's spatial grid for the pairwise sums. Property tests check
/// delta == full(after) - full(before).
class CirclePrior {
 public:
  CirclePrior() = default;

  /// Prior over a domainWidth x domainHeight image region.
  CirclePrior(const PriorParams& params, double domainWidth,
              double domainHeight);

  [[nodiscard]] const PriorParams& params() const noexcept { return params_; }

  /// Replace the expected-count parameter (used by the per-partition prior
  /// re-estimation of eq. 5). Other parameters are unchanged.
  void setExpectedCount(double lambda) noexcept {
    params_.expectedCount = lambda;
  }

  /// Largest centre distance at which two circles can interact through the
  /// overlap term (= 2 * radiusMax). Neighbour queries use this.
  [[nodiscard]] double interactionRange() const noexcept {
    return 2.0 * params_.radiusMax;
  }

  /// True when r lies in the hard radius support.
  [[nodiscard]] bool radiusInSupport(double r) const noexcept {
    return r >= params_.radiusMin && r <= params_.radiusMax;
  }

  /// log of the radius density (normal, hard-bounded; -inf outside).
  [[nodiscard]] double logRadius(double r) const noexcept;

  /// log of the (uniform) position density for one circle.
  [[nodiscard]] double logPosition() const noexcept { return logPositionDensity_; }

  /// log of the Poisson count pmf.
  [[nodiscard]] double logCount(std::size_t n) const noexcept;

  /// Overlap penalty contribution of one pair (<= 0).
  [[nodiscard]] double pairPenalty(const Circle& a, const Circle& b) const noexcept;

  /// Sum of pair penalties between `c` and all alive circles except
  /// `excludeA`/`excludeB` (pass kInvalidCircle for no exclusion).
  ///
  /// With `clear` set, the same neighbour scan also reports whether no
  /// included circle can share a raster pixel with c: *clear becomes false
  /// when some centre lies within c.r + other.r + kPixelShareSlack. That
  /// needs alive radii in [radiusMin, radiusMax], as every insertion path
  /// (proposals, random and warm starts) guarantees.
  [[nodiscard]] double penaltyAgainstAll(
      const Configuration& config, const Circle& c,
      CircleId excludeA = kInvalidCircle,
      CircleId excludeB = kInvalidCircle, bool* clear = nullptr) const;

  /// Full recompute, O(n * neighbours).
  [[nodiscard]] double logPrior(const Configuration& config) const;

  // --- exact deltas -------------------------------------------------------
  // With `clear` set, add, delete and replace also report whether the discs
  // they change share no pixel with any other alive disc (see
  // penaltyAgainstAll); the delta is the same either way.

  [[nodiscard]] double deltaAdd(const Configuration& config, const Circle& c,
                                bool* clear = nullptr) const;
  [[nodiscard]] double deltaDelete(const Configuration& config, CircleId id,
                                   bool* clear = nullptr) const;
  [[nodiscard]] double deltaReplace(const Configuration& config, CircleId id,
                                    const Circle& replacement,
                                    bool* clear = nullptr) const;
  /// a and b merge into m (count n -> n-1).
  [[nodiscard]] double deltaMerge(const Configuration& config, CircleId a,
                                  CircleId b, const Circle& m) const;
  /// id splits into c1 and c2 (count n -> n+1).
  [[nodiscard]] double deltaSplit(const Configuration& config, CircleId id,
                                  const Circle& c1, const Circle& c2) const;

 private:
  PriorParams params_;
  double logPositionDensity_ = 0.0;
};

}  // namespace mcmcpar::model
