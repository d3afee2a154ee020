#include "rng/distributions.hpp"

#include <cmath>
#include <limits>
#include <numbers>

namespace mcmcpar::rng {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

double normalCdf(double z) noexcept {
  return 0.5 * std::erfc(-z / std::numbers::sqrt2);
}
}  // namespace

double logGamma(double x) noexcept {
#if defined(__GLIBC__) || defined(__APPLE__)
  // std::lgamma writes the process-global `signgam`, a data race when
  // concurrent chains evaluate Poisson priors; lgamma_r keeps the sign in a
  // local instead.
  int sign = 0;
  return lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

double logNormalPdf(double x, double mu, double sigma) noexcept {
  const double z = (x - mu) / sigma;
  return -0.5 * z * z - std::log(sigma) - kLogSqrt2Pi;
}

double logPoissonPmf(std::uint64_t k, double mean) noexcept {
  if (mean <= 0.0) return k == 0 ? 0.0 : kNegInf;
  const auto kd = static_cast<double>(k);
  return kd * std::log(mean) - mean - logGamma(kd + 1.0);
}

double logUniformPdf(double x, double lo, double hi) noexcept {
  if (x < lo || x > hi || hi <= lo) return kNegInf;
  return -std::log(hi - lo);
}

double truncatedNormal(Stream& s, double mu, double sigma, double lo,
                       double hi) noexcept {
  // Rejection from the untruncated normal is efficient whenever [lo, hi]
  // carries non-trivial mass, which holds for every proposal in this library
  // (radius and position jitter windows are several sigma wide). Bound the
  // loop and fall back to a uniform draw on the window for pathological
  // parameters so the function stays total.
  for (int attempt = 0; attempt < 256; ++attempt) {
    const double x = s.normal(mu, sigma);
    if (x >= lo && x <= hi) return x;
  }
  return s.uniform(lo, hi);
}

double logTruncatedNormalPdf(double x, double mu, double sigma, double lo,
                             double hi) noexcept {
  if (x < lo || x > hi || hi <= lo) return kNegInf;
  const double zHi = (hi - mu) / sigma;
  const double zLo = (lo - mu) / sigma;
  if (zHi >= kMassOneZ && zLo <= -kMassOneZ) return logNormalPdf(x, mu, sigma);
  const double mass = normalCdf(zHi) - normalCdf(zLo);
  if (mass <= 0.0) return kNegInf;
  return logNormalPdf(x, mu, sigma) - std::log(mass);
}

AliasTable::AliasTable(const std::vector<double>& weights) {
  const std::size_t n = weights.size();
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  normalised_.assign(n, 0.0);

  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    normalised_[i] = (weights[i] > 0.0 ? weights[i] : 0.0) / total;
  }

  // Walker/Vose: partition scaled probabilities into small/large worklists.
  std::vector<double> scaled(n);
  std::vector<std::size_t> small, large;
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = normalised_[i] * static_cast<double>(n);
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const std::size_t s = small.back();
    small.pop_back();
    const std::size_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (std::size_t i : large) prob_[i] = 1.0;
  for (std::size_t i : small) prob_[i] = 1.0;  // numerical leftovers
}

std::size_t AliasTable::sample(Stream& s) const noexcept {
  const std::size_t slot = static_cast<std::size_t>(s.below(prob_.size()));
  return s.uniform() < prob_[slot] ? slot : alias_[slot];
}

}  // namespace mcmcpar::rng
