// AVX2 span kernels. Compiled with -mavx2 (see CMakeLists.txt); only ever
// entered after a runtime __builtin_cpu_supports("avx2") check.
//
// Bit-exactness contract with the scalar backend (likelihood_kernels.cpp):
// the two 4-double accumulators acc0/acc1 are lanes 0..3 / 4..7 of the
// fixed 8-lane bank, span element i lands in lane (i % 8), masked-out
// elements contribute +0.0 (identical to the scalar ternary's 0.0 arm),
// the float->double widening is exact, and the tail (<8 elements) plus the
// final lane combine run the very same scalar code. There are no multiplies,
// so FMA contraction cannot perturb the sums.

#include "model/likelihood_kernels_avx2.hpp"

#include <immintrin.h>

namespace mcmcpar::model::kernels::avx2 {

namespace {

/// 8 x 32-bit lane mask (0 / 0xFFFFFFFF) from an 8 x 16-bit compare result.
inline __m256 expandMask16(__m128i mask16) noexcept {
  return _mm256_castsi256_ps(_mm256_cvtepi16_epi32(mask16));
}

inline double combineLanes(const double lanes[8]) noexcept {
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

inline void accumulate(__m256d& acc0, __m256d& acc1, __m256 vals) noexcept {
  acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(vals)));
  acc1 = _mm256_add_pd(acc1, _mm256_cvtps_pd(_mm256_extractf128_ps(vals, 1)));
}

inline void deaccumulate(__m256d& acc0, __m256d& acc1, __m256 vals) noexcept {
  acc0 = _mm256_sub_pd(acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(vals)));
  acc1 = _mm256_sub_pd(acc1, _mm256_cvtps_pd(_mm256_extractf128_ps(vals, 1)));
}

inline void storeLanes(double lanes[8], __m256d acc0, __m256d acc1) noexcept {
  _mm256_storeu_pd(lanes, acc0);
  _mm256_storeu_pd(lanes + 4, acc1);
}

}  // namespace

double spanDeltaAdd(const float* gain, const std::uint16_t* cov,
                    std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i cv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cov + i));
    const __m128i eq0 = _mm_cmpeq_epi16(cv, _mm_setzero_si128());
    const __m256 vals =
        _mm256_and_ps(_mm256_loadu_ps(gain + i), expandMask16(eq0));
    accumulate(acc0, acc1, vals);
  }
  double lanes[8];
  storeLanes(lanes, acc0, acc1);
  for (; i < n; ++i) {
    lanes[i & 7] += cov[i] == 0 ? static_cast<double>(gain[i]) : 0.0;
  }
  return combineLanes(lanes);
}

double spanDeltaRemove(const float* gain, const std::uint16_t* cov,
                       std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i cv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cov + i));
    const __m128i eq1 = _mm_cmpeq_epi16(cv, _mm_set1_epi16(1));
    const __m256 vals =
        _mm256_and_ps(_mm256_loadu_ps(gain + i), expandMask16(eq1));
    deaccumulate(acc0, acc1, vals);
  }
  double lanes[8];
  storeLanes(lanes, acc0, acc1);
  for (; i < n; ++i) {
    lanes[i & 7] -= cov[i] == 1 ? static_cast<double>(gain[i]) : 0.0;
  }
  return combineLanes(lanes);
}

double spanApplyAdd(const float* gain, std::uint16_t* cov,
                    std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i* covPtr = reinterpret_cast<__m128i*>(cov + i);
    const __m128i cv = _mm_loadu_si128(covPtr);
    const __m128i eq0 = _mm_cmpeq_epi16(cv, _mm_setzero_si128());
    const __m256 vals =
        _mm256_and_ps(_mm256_loadu_ps(gain + i), expandMask16(eq0));
    accumulate(acc0, acc1, vals);
    // Saturating increment == the scalar backend's 65535 clamp.
    _mm_storeu_si128(covPtr, _mm_adds_epu16(cv, _mm_set1_epi16(1)));
  }
  double lanes[8];
  storeLanes(lanes, acc0, acc1);
  for (; i < n; ++i) {
    const std::uint16_t old = cov[i];
    lanes[i & 7] += old == 0 ? static_cast<double>(gain[i]) : 0.0;
    cov[i] = old == 65535 ? old : static_cast<std::uint16_t>(old + 1);
  }
  return combineLanes(lanes);
}

double spanApplyRemove(const float* gain, std::uint16_t* cov,
                       std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i* covPtr = reinterpret_cast<__m128i*>(cov + i);
    const __m128i cv = _mm_loadu_si128(covPtr);
    const __m128i eq0 = _mm_cmpeq_epi16(cv, _mm_setzero_si128());
    const __m128i eq1 = _mm_cmpeq_epi16(cv, _mm_set1_epi16(1));
    const __m256 vals =
        _mm256_and_ps(_mm256_loadu_ps(gain + i), expandMask16(eq1));
    deaccumulate(acc0, acc1, vals);
    // Decrement where cov > 0; already-zero pixels clamp at zero instead of
    // wrapping to 65535.
    const __m128i dec = _mm_andnot_si128(eq0, _mm_set1_epi16(1));
    _mm_storeu_si128(covPtr, _mm_sub_epi16(cv, dec));
  }
  double lanes[8];
  storeLanes(lanes, acc0, acc1);
  for (; i < n; ++i) {
    const std::uint16_t old = cov[i];
    lanes[i & 7] -= old == 1 ? static_cast<double>(gain[i]) : 0.0;
    cov[i] = static_cast<std::uint16_t>(old - (old > 0 ? 1 : 0));
  }
  return combineLanes(lanes);
}

double spanSumCovered(const float* gain, const std::uint16_t* cov,
                      std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i cv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cov + i));
    const __m128i eq0 = _mm_cmpeq_epi16(cv, _mm_setzero_si128());
    const __m256 vals =
        _mm256_andnot_ps(expandMask16(eq0), _mm256_loadu_ps(gain + i));
    accumulate(acc0, acc1, vals);
  }
  double lanes[8];
  storeLanes(lanes, acc0, acc1);
  for (; i < n; ++i) {
    lanes[i & 7] += cov[i] > 0 ? static_cast<double>(gain[i]) : 0.0;
  }
  return combineLanes(lanes);
}

double spanTransitionDelta(const float* gain, const std::uint16_t* cov,
                           const std::int16_t* dOld, const std::int16_t* dNew,
                           std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  const __m256i zero = _mm256_setzero_si256();
  const __m256 signBit = _mm256_set1_ps(-0.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // The count arithmetic runs in 32 bits, like the scalar int: cov up to
    // 65535 minus/plus int16 deltas cannot overflow there.
    const __m256i cur = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cov + i)));
    const __m256i lost = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dOld + i)));
    const __m256i gained = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dNew + i)));
    const __m256i was = _mm256_cmpgt_epi32(cur, zero);
    const __m256i now = _mm256_cmpgt_epi32(
        _mm256_add_epi32(_mm256_sub_epi32(cur, lost), gained), zero);
    // Flipped pixels contribute their gain; those becoming bare (was and
    // not now) get the sign bit flipped, the exact -gain of the scalar arm.
    // Unflipped pixels contribute +0.0, as the scalar 0.0 arm does.
    const __m256 flipped =
        _mm256_castsi256_ps(_mm256_xor_si256(was, now));
    const __m256 bare = _mm256_castsi256_ps(_mm256_andnot_si256(now, was));
    const __m256 vals =
        _mm256_xor_ps(_mm256_and_ps(_mm256_loadu_ps(gain + i), flipped),
                      _mm256_and_ps(bare, signBit));
    accumulate(acc0, acc1, vals);
  }
  double lanes[8];
  storeLanes(lanes, acc0, acc1);
  for (; i < n; ++i) {
    const int cur = cov[i];
    const bool was = cur > 0;
    const bool now = cur - dOld[i] + dNew[i] > 0;
    lanes[i & 7] += was == now ? 0.0
                    : now      ? static_cast<double>(gain[i])
                               : -static_cast<double>(gain[i]);
  }
  return combineLanes(lanes);
}

}  // namespace mcmcpar::model::kernels::avx2
