#include "rng/xoshiro256.hpp"

#include "rng/splitmix64.hpp"

namespace mcmcpar::rng {

namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.next();
  // All-zero state is the one invalid state; SplitMix64 cannot produce four
  // consecutive zeros from any seed, but guard anyway for belt and braces.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

std::uint64_t Xoshiro256::next() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

void Xoshiro256::jump() noexcept {
  constexpr std::array<std::uint64_t, 4> kJump{
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::array<std::uint64_t, 4> acc{0, 0, 0, 0};
  for (std::uint64_t word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (word & (std::uint64_t{1} << b)) {
        acc[0] ^= s_[0];
        acc[1] ^= s_[1];
        acc[2] ^= s_[2];
        acc[3] ^= s_[3];
      }
      next();
    }
  }
  s_ = acc;
}

}  // namespace mcmcpar::rng
