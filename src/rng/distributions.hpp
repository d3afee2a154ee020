#pragma once

#include <cstdint>
#include <vector>

#include "rng/stream.hpp"

namespace mcmcpar::rng {

/// Density/log-density helpers shared by priors, proposal ratios and tests.
/// All log densities return -inf outside the support rather than throwing,
/// because MCMC acceptance ratios treat out-of-support states as "reject".

/// Thread-safe log-gamma: std::lgamma writes the process-global `signgam`
/// on glibc/macOS (a data race between concurrent chains); this wrapper
/// routes through lgamma_r there and std::lgamma elsewhere.
[[nodiscard]] double logGamma(double x) noexcept;

/// log(sqrt(2 * pi)), the normal density's constant term.
inline constexpr double kLogSqrt2Pi = 0.9189385332046727;

/// log N(x; mu, sigma) = -0.5 * z * z - log(sigma) - kLogSqrt2Pi with
/// z = (x - mu) / sigma. Precondition: sigma > 0.
[[nodiscard]] double logNormalPdf(double x, double mu, double sigma) noexcept;

/// log of the Poisson pmf P(k; mean). Returns -inf for mean <= 0 unless k==0.
[[nodiscard]] double logPoissonPmf(std::uint64_t k, double mean) noexcept;

/// log of the uniform density on [lo, hi]; -inf outside.
[[nodiscard]] double logUniformPdf(double x, double lo, double hi) noexcept;

/// Draw from N(mu, sigma) truncated to [lo, hi] by rejection; falls back to
/// inverse-CDF-free clamped re-draws. Preconditions: sigma > 0, lo < hi.
[[nodiscard]] double truncatedNormal(Stream& s, double mu, double sigma,
                                     double lo, double hi) noexcept;

/// Standardised distance beyond which a truncation bound removes no mass
/// in double precision: with (hi - mu) / sigma >= kMassOneZ and
/// (lo - mu) / sigma <= -kMassOneZ, the computed normal mass on [lo, hi] is
/// exactly 1.0 (test_rng sweeps this identity on the platform it runs on).
inline constexpr double kMassOneZ = 9.0;

/// log density of the truncated normal above (normalised on [lo, hi]).
/// When both bounds lie kMassOneZ or more standard deviations from mu the
/// normaliser log(1.0) == 0 is skipped: the value is logNormalPdf's, bit for
/// bit, without the two erfc calls.
[[nodiscard]] double logTruncatedNormalPdf(double x, double mu, double sigma,
                                           double lo, double hi) noexcept;

/// Walker alias table for O(1) sampling from a fixed discrete distribution.
///
/// Used to pick MCMC move types with the configured proposal probabilities.
/// Construction is O(n); sampling costs one uniform + one table lookup.
class AliasTable {
 public:
  AliasTable() = default;

  /// Build from non-negative weights (not necessarily normalised).
  /// Precondition: at least one weight > 0.
  explicit AliasTable(const std::vector<double>& weights);

  /// Sample an index in [0, size()).
  [[nodiscard]] std::size_t sample(Stream& s) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return prob_.size(); }

  /// Normalised probability of index i (for tests / proposal ratios).
  [[nodiscard]] double probability(std::size_t i) const noexcept {
    return normalised_[i];
  }

 private:
  std::vector<double> prob_;        // acceptance probability per slot
  std::vector<std::size_t> alias_;  // alias index per slot
  std::vector<double> normalised_;  // original weights, normalised
};

}  // namespace mcmcpar::rng
