#pragma once

#include <cstdint>

#include "rng/xoshiro256.hpp"

namespace mcmcpar::rng {

/// A reproducible random stream with convenience draws.
///
/// `Stream` wraps a Xoshiro256 generator and adds the floating-point and
/// integer draws the MCMC code needs. Substreams are derived either by
/// `substream(k)` (k jumps ahead: disjoint blocks of 2^128 draws) or by
/// `derive(tag)` (hash-mixed reseed; used when an unbounded number of
/// independent streams is needed, e.g. one per (phase, partition) pair).
class Stream {
 public:
  /// Root stream from a 64-bit seed.
  explicit Stream(std::uint64_t seed = 42) noexcept : gen_(seed) {}

  explicit Stream(Xoshiro256 gen) noexcept : gen_(gen) {}

  /// The k-th jump-ahead substream (this stream advanced k * 2^128 draws).
  /// The parent is unaffected. Substreams with distinct k never overlap.
  [[nodiscard]] Stream substream(unsigned k) const noexcept;

  /// Derive an independent stream by mixing `tag` into the state hash.
  /// Streams derived with distinct tags are statistically independent.
  [[nodiscard]] Stream derive(std::uint64_t tag) const noexcept;

  /// Next raw 64-bit word.
  std::uint64_t bits() noexcept { return gen_.next(); }

  /// Uniform double in [0, 1) with 53-bit resolution.
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Precondition: n > 0. Uses Lemire's
  /// multiply-shift rejection method (no modulo bias).
  std::uint64_t below(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept;

  /// True with probability p (p clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Standard normal via Box-Muller with cached second value.
  double normal() noexcept;

  /// Normal with mean mu, standard deviation sigma.
  double normal(double mu, double sigma) noexcept { return mu + sigma * normal(); }

  /// Exponential with rate lambda (> 0).
  double exponential(double lambda) noexcept;

  /// Underlying generator (tests, serialisation).
  [[nodiscard]] const Xoshiro256& generator() const noexcept { return gen_; }

  /// UniformRandomBitGenerator interface for <random> interop.
  using result_type = std::uint64_t;
  std::uint64_t operator()() noexcept { return gen_.next(); }
  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept { return ~0ULL; }

 private:
  Xoshiro256 gen_;
  double cachedNormal_ = 0.0;
  bool hasCachedNormal_ = false;
};

}  // namespace mcmcpar::rng
