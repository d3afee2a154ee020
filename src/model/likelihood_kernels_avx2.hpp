#pragma once

// Internal: AVX2 definitions of the span kernels, compiled separately with
// -mavx2 (CMake adds the TU and defines MCMCPAR_HAVE_AVX2_KERNELS only when
// the option is on and the compiler targets x86-64). Callers must check
// kernels::avx2Available() before dispatching here. Each function implements
// bit-for-bit the lane arithmetic documented in likelihood_kernels.hpp.
// The AVX2 TU must not include likelihood_kernels.hpp: its inline functions
// would be emitted with -mavx2 and could win the link-time pick of the one
// out-of-line copy that scalar-only CPUs also run.

#include <cstddef>
#include <cstdint>

namespace mcmcpar::model::kernels::avx2 {

double spanDeltaAdd(const float* gain, const std::uint16_t* cov,
                    std::size_t n) noexcept;
double spanDeltaRemove(const float* gain, const std::uint16_t* cov,
                       std::size_t n) noexcept;
double spanApplyAdd(const float* gain, std::uint16_t* cov,
                    std::size_t n) noexcept;
double spanApplyRemove(const float* gain, std::uint16_t* cov,
                       std::size_t n) noexcept;
double spanSumCovered(const float* gain, const std::uint16_t* cov,
                      std::size_t n) noexcept;
double spanTransitionDelta(const float* gain, const std::uint16_t* cov,
                           const std::int16_t* dOld, const std::int16_t* dNew,
                           std::size_t n) noexcept;

}  // namespace mcmcpar::model::kernels::avx2
