#include "rng/stream.hpp"

#include <array>
#include <cmath>
#include <numbers>

#include "rng/splitmix64.hpp"

namespace mcmcpar::rng {

Stream Stream::substream(unsigned k) const noexcept {
  Xoshiro256 g = gen_;
  for (unsigned i = 0; i < k; ++i) g.jump();
  return Stream(g);
}

Stream Stream::derive(std::uint64_t tag) const noexcept {
  // Absorb each of the four parent state words (plus the tag) through a
  // chained SplitMix64, drawing one child state word per absorption step.
  // Child word i therefore depends on parent words 0..i and the tag, so
  // parents differing in any state word — including only the high ones —
  // derive different children. (Folding the 256-bit state into a single
  // 64-bit seed would confine all derived streams to a 2^64 subspace and
  // let distinct parents collide.)
  const auto& s = gen_.state();
  std::array<std::uint64_t, 4> child;
  std::uint64_t h = tag ^ 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < 4; ++i) {
    SplitMix64 mix(h ^ s[i]);
    h = mix.next();
    child[i] = mix.next();
  }
  // Xoshiro256 requires a not-all-zero state (probability 2^-256, but free
  // to guard).
  if ((child[0] | child[1] | child[2] | child[3]) == 0) child[0] = 1;
  return Stream(Xoshiro256(child));
}

double Stream::uniform() noexcept {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(gen_.next() >> 11) * 0x1.0p-53;
}

double Stream::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Stream::below(std::uint64_t n) noexcept {
  // Lemire 2019 unbiased bounded generation.
  std::uint64_t x = gen_.next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (~n + 1) % n;  // 2^64 mod n
    while (lo < threshold) {
      x = gen_.next();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Stream::between(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

bool Stream::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Stream::normal() noexcept {
  if (hasCachedNormal_) {
    hasCachedNormal_ = false;
    return cachedNormal_;
  }
  // Box-Muller; u1 must be > 0.
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cachedNormal_ = r * std::sin(theta);
  hasCachedNormal_ = true;
  return r * std::cos(theta);
}

double Stream::exponential(double lambda) noexcept {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / lambda;
}

}  // namespace mcmcpar::rng
