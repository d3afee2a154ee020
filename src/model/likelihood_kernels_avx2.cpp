// AVX2 span kernels. Compiled with -mavx2 -ffp-contract=off (see
// CMakeLists.txt); only ever entered after a runtime
// __builtin_cpu_supports("avx2") check.
//
// Bit-exactness contract with the scalar backend (likelihood_kernels.cpp):
//  * Sums: the two 4-double accumulators acc0/acc1 are lanes 0..3 / 4..7 of
//    the fixed 8-lane bank, span element i lands in lane (i % 8), masked-out
//    elements contribute +0.0 (identical to the scalar ternary's 0.0 arm),
//    the float->double widening is exact, and the tail (<8 elements) plus
//    the final lane combine run the very same scalar code.
//  * Geometry (discRows): each lane runs img::discRowSpan's IEEE operations
//    in its order — dy, r*r - dy*dy, sqrt, (cx -/+ half) - 0.5, ceil/floor,
//    the clamps and the slack test — and a lane that would take the rim
//    nudge is recomputed by the scalar function. Those multiplies and
//    subtractions are why the TU is built with -ffp-contract=off: a later
//    -mfma or -march must not fuse r*r - dy*dy and move a span endpoint.

#include "model/likelihood_kernels_avx2.hpp"

#include <immintrin.h>

#include <cmath>

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

void discRows(double cx, double cy, double r, img::RowRange rows, int width,
              img::RowSpan* out, RowSpanFn scalarRowSpan) noexcept {
  static_assert(sizeof(img::RowSpan) == 2 * sizeof(int),
                "spans are stored as interleaved (x0, x1) int pairs");
  if (rows.y0 > rows.y1) return;
  const int n = rows.y1 - rows.y0 + 1;
  const __m256d cxv = _mm256_set1_pd(cx);
  const __m256d cyv = _mm256_set1_pd(cy);
  const __m256d rr = _mm256_set1_pd(r * r);
  const __m256d absCx = _mm256_set1_pd(std::fabs(cx));
  const __m256d pointFive = _mm256_set1_pd(0.5);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d minusOne = _mm256_set1_pd(-1.0);
  const __m256d widthV = _mm256_set1_pd(static_cast<double>(width));
  const __m256d lastCol = _mm256_set1_pd(static_cast<double>(width) - 1.0);
  const __m256d slackScale = _mm256_set1_pd(1e-12);
  __m128i y =
      _mm_add_epi32(_mm_set1_epi32(rows.y0), _mm_setr_epi32(0, 1, 2, 3));
  for (int k = 0; k < n; k += 4) {
    const __m256d dy =
        _mm256_sub_pd(_mm256_add_pd(_mm256_cvtepi32_pd(y), pointFive), cyv);
    const __m256d disc = _mm256_sub_pd(rr, _mm256_mul_pd(dy, dy));
    const __m256d half = _mm256_sqrt_pd(disc);
    const __m256d lo = _mm256_sub_pd(_mm256_sub_pd(cxv, half), pointFive);
    const __m256d hi = _mm256_sub_pd(_mm256_add_pd(cxv, half), pointFive);
    const __m256d cLo =
        _mm256_round_pd(lo, _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC);
    const __m256d fHi =
        _mm256_round_pd(hi, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
    // std::clamp's value for every non-NaN input (a NaN lane is redone).
    __m256d x0 = _mm256_min_pd(_mm256_max_pd(cLo, zero), widthV);
    __m256d x1 = _mm256_min_pd(_mm256_max_pd(fHi, minusOne), lastCol);
    const __m256d slack = _mm256_mul_pd(
        slackScale,
        _mm256_add_pd(
            _mm256_mul_pd(_mm256_add_pd(_mm256_add_pd(absCx, half), one), half),
            rr));
    const __m256d dLo = _mm256_mul_pd(_mm256_sub_pd(cLo, lo), half);
    const __m256d dHi = _mm256_mul_pd(_mm256_sub_pd(hi, fHi), half);
    // A lane keeps its vector span iff none of the scalar nudge conditions
    // holds; the ordered compares are false on NaN, so a NaN lane is redone.
    __m256d keep = _mm256_cmp_pd(half, one, _CMP_GE_OQ);
    keep = _mm256_and_pd(keep, _mm256_cmp_pd(dLo, slack, _CMP_GE_OQ));
    keep = _mm256_and_pd(
        keep, _mm256_cmp_pd(_mm256_sub_pd(half, dLo), slack, _CMP_GE_OQ));
    keep = _mm256_and_pd(keep, _mm256_cmp_pd(dHi, slack, _CMP_GE_OQ));
    keep = _mm256_and_pd(
        keep, _mm256_cmp_pd(_mm256_sub_pd(half, dHi), slack, _CMP_GE_OQ));
    // Rows that miss the disc are the scalar early return {0, 0}.
    const __m256d outside = _mm256_cmp_pd(disc, zero, _CMP_LT_OQ);
    x0 = _mm256_blendv_pd(x0, zero, outside);
    x1 = _mm256_blendv_pd(x1, minusOne, outside);
    const __m128i x0i = _mm256_cvttpd_epi32(x0);
    const __m128i x1i =
        _mm_add_epi32(_mm256_cvttpd_epi32(x1), _mm_set1_epi32(1));
    const __m128i spans01 = _mm_unpacklo_epi32(x0i, x1i);
    const __m128i spans23 = _mm_unpackhi_epi32(x0i, x1i);
    img::RowSpan* dst = out + k;
    const int count = n - k < 4 ? n - k : 4;
    if (count == 4) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), spans01);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 2), spans23);
    } else {
      img::RowSpan tail[4];
      _mm_storeu_si128(reinterpret_cast<__m128i*>(tail), spans01);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(tail + 2), spans23);
      for (int lane = 0; lane < count; ++lane) dst[lane] = tail[lane];
    }
    unsigned redo = ~static_cast<unsigned>(
                        _mm256_movemask_pd(_mm256_or_pd(keep, outside))) &
                    ((1u << count) - 1u);
    while (redo != 0) {
      const int lane = __builtin_ctz(redo);
      dst[lane] = scalarRowSpan(cx, cy, r, rows.y0 + k + lane, width);
      redo &= redo - 1;
    }
    y = _mm_add_epi32(y, _mm_set1_epi32(4));
  }
}

}  // namespace mcmcpar::model::kernels::avx2
