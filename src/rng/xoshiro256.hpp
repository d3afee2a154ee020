#pragma once

#include <array>
#include <cstdint>

namespace mcmcpar::rng {

/// xoshiro256++ 1.0 (Blackman & Vigna 2019).
///
/// The library's workhorse generator: 256 bits of state, period 2^256-1,
/// passes BigCrush, and supports an O(1)-space `jump()` that advances the
/// stream by 2^128 steps. Jumps are what
/// make parallel MCMC reproducible: each partition/phase derives a disjoint
/// substream, so results do not depend on thread scheduling.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seed all 256 bits of state from one 64-bit seed via SplitMix64
  /// (the seeding procedure recommended by the xoshiro authors).
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// Construct from explicit state; must not be all-zero.
  explicit Xoshiro256(const std::array<std::uint64_t, 4>& state) noexcept
      : s_(state) {}

  /// Next 64-bit value.
  std::uint64_t next() noexcept;

  /// UniformRandomBitGenerator interface (usable with <random>).
  std::uint64_t operator()() noexcept { return next(); }
  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept { return ~0ULL; }

  /// Advance this generator 2^128 steps. 2^128 non-overlapping substreams
  /// of length 2^128 each are reachable by repeated jumps.
  void jump() noexcept;

  /// Access raw state (serialisation, tests).
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const noexcept {
    return s_;
  }

 private:
  std::array<std::uint64_t, 4> s_;
};

}  // namespace mcmcpar::rng
