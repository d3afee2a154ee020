#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "img/row_span.hpp"

namespace mcmcpar::model::kernels {

/// Row-span accumulation kernels of the likelihood hot path.
///
/// Every strategy in the repo bottoms out in these loops: given a contiguous
/// slice of the per-pixel `gain` row and the matching `coverage` counts, sum
/// the gains of pixels whose covered/uncovered state a move flips. The span
/// layout (img::forEachDiscSpan) makes the slices contiguous, so the inner
/// loops vectorise; this header is the single place the summation semantics
/// are defined.
///
/// Determinism policy (load-bearing: warm-start determinism and remote-tile
/// bit-exactness assert bit-identical log-likelihoods):
///
///  * Each kernel accumulates into a FIXED-WIDTH bank of kLanes independent
///    double accumulators — element i of a span goes to lane (i % kLanes),
///    floats are widened to double (exact) before the add — and the lanes are
///    combined in the fixed order ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).
///  * Every backend (plain scalar loops, AVX2 intrinsics)
///    implements EXACTLY this arithmetic, so results are bit-identical across
///    backends and across machines by construction; vectorisation never needs
///    to be gated for reproducibility. test_likelihood_kernels asserts the
///    scalar/AVX2 bit-equality on random inputs.
///  * Cross-span/cross-row totals are the caller's job and must be summed in
///    row order (PixelLikelihood uses a plain double for move deltas and a
///    KahanSum for whole-image totals).
///  * The row geometry (SpanKernels::discRows) returns, on every backend,
///    exactly the spans img::discRowSpan computes: the AVX2 lanes run that
///    function's IEEE operations in the same order, and any row its slack
///    test would send to the rim nudge is handed to img::discRowSpan itself.
inline constexpr std::size_t kLanes = 8;

/// Which implementation the span kernels dispatch to.
enum class Backend {
  Scalar,  ///< portable loops (auto-vectorised where the compiler can)
  Avx2,    ///< AVX2 intrinsics (x86-64, compiled in and CPU-supported only)
};

/// True iff the AVX2 kernels were compiled in AND this CPU supports AVX2.
[[nodiscard]] bool avx2Available() noexcept;

/// Currently active backend. Defaults to Avx2 when available, else Scalar;
/// the environment variable MCMCPAR_SIMD=scalar|avx2 overrides the default
/// (useful for A/B benchmarking — results are bit-identical either way).
[[nodiscard]] Backend activeBackend() noexcept;
[[nodiscard]] const char* backendName() noexcept;

/// Force a backend (tests/benchmarks). Returns false — and leaves the active
/// backend unchanged — when the requested backend is unavailable. Not
/// intended to be raced against in-flight kernel calls.
bool setBackend(Backend backend) noexcept;

// --- span kernels ---------------------------------------------------------
// `gain` and `cov` point at the same span of one raster row; n is the span
// length. All return the covered-gain delta contribution of that span.

using SpanDeltaFn = double (*)(const float* gain, const std::uint16_t* cov,
                               std::size_t n) noexcept;
using SpanApplyFn = double (*)(const float* gain, std::uint16_t* cov,
                               std::size_t n) noexcept;
using SpanTransitionFn = double (*)(const float* gain,
                                    const std::uint16_t* cov,
                                    const std::int16_t* dOld,
                                    const std::int16_t* dNew,
                                    std::size_t n) noexcept;
using DiscRowsFn = void (*)(double cx, double cy, double r,
                            img::RowRange rows, int width,
                            img::RowSpan* out) noexcept;

/// One backend's span kernels. A likelihood method looks the table up once
/// per call (spanKernels()) and then calls through it for every span, so the
/// backend switch is paid per move rather than per span.
struct SpanKernels {
  /// Sum of gain[i] where cov[i] == 0 (delta of adding a disc over the span).
  SpanDeltaFn deltaAdd;
  /// Negated sum of gain[i] where cov[i] == 1 (delta of removing a disc).
  SpanDeltaFn deltaRemove;
  /// deltaAdd + increment every cov[i] (saturating at 65535 instead of
  /// wrapping; >65535 overlapping discs is unreachable in practice).
  SpanApplyFn applyAdd;
  /// deltaRemove + decrement every cov[i]. The decrement CLAMPS at zero: an
  /// uncovered pixel stays 0 (debug builds assert) rather than wrapping the
  /// uint16 to 65535 and silently corrupting every subsequent delta.
  SpanApplyFn applyRemove;
  /// Sum of gain[i] where cov[i] > 0 (resynchronise / reference recompute).
  SpanDeltaFn sumCovered;
  /// Joint coverage-transition delta for multi-disc moves: pixel i currently
  /// has count cov[i], loses dOld[i] discs and gains dNew[i]; the result sums
  /// +gain where the pixel becomes covered and -gain where it becomes bare.
  SpanTransitionFn transitionDelta;
  /// Row geometry of a disc: out[k] = img::discRowSpan(cx, cy, r,
  /// rows.y0 + k, width) bit for bit, for every row of `rows` (inside the
  /// raster; nothing is written when the range is empty). One call per disc
  /// lets a backend compute several rows per instruction.
  DiscRowsFn discRows;
};

/// The kernel table of the active backend.
[[nodiscard]] const SpanKernels& spanKernels() noexcept;

// Single-span entry points over the active backend (tests, benchmarks and
// one-off callers; loops over many spans should hoist spanKernels()).

[[nodiscard]] inline double spanDeltaAdd(const float* gain,
                                         const std::uint16_t* cov,
                                         std::size_t n) noexcept {
  return spanKernels().deltaAdd(gain, cov, n);
}

[[nodiscard]] inline double spanDeltaRemove(const float* gain,
                                            const std::uint16_t* cov,
                                            std::size_t n) noexcept {
  return spanKernels().deltaRemove(gain, cov, n);
}

inline double spanApplyAdd(const float* gain, std::uint16_t* cov,
                           std::size_t n) noexcept {
  return spanKernels().applyAdd(gain, cov, n);
}

inline double spanApplyRemove(const float* gain, std::uint16_t* cov,
                              std::size_t n) noexcept {
  return spanKernels().applyRemove(gain, cov, n);
}

[[nodiscard]] inline double spanSumCovered(const float* gain,
                                           const std::uint16_t* cov,
                                           std::size_t n) noexcept {
  return spanKernels().sumCovered(gain, cov, n);
}

[[nodiscard]] inline double spanTransitionDelta(const float* gain,
                                                const std::uint16_t* cov,
                                                const std::int16_t* dOld,
                                                const std::int16_t* dNew,
                                                std::size_t n) noexcept {
  return spanKernels().transitionDelta(gain, cov, dOld, dNew, n);
}

// --- short spans ------------------------------------------------------------
// Spans shorter than one lane bank (n < kLanes; the 1-4 pixel ring segments
// of a replace move are the common case) are evaluated inline, without a
// call through the table. Each element lands in its own lane, so this is
// exactly the kernels' tail loop: lanes start at +0.0, lane i accumulates
// element i, and the bank combines in the fixed pairwise order. The results
// are therefore bit-identical to the table kernels of either backend.

[[nodiscard]] inline double combineLanes(const double lanes[kLanes]) noexcept {
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

/// spanDeltaAdd for n < kLanes.
[[nodiscard]] inline double shortSpanDeltaAdd(const float* gain,
                                              const std::uint16_t* cov,
                                              std::size_t n) noexcept {
  assert(n < kLanes);
  double lanes[kLanes] = {};
  for (std::size_t i = 0; i < n; ++i) {
    lanes[i] += cov[i] == 0 ? static_cast<double>(gain[i]) : 0.0;
  }
  return combineLanes(lanes);
}

/// spanDeltaRemove for n < kLanes.
[[nodiscard]] inline double shortSpanDeltaRemove(const float* gain,
                                                 const std::uint16_t* cov,
                                                 std::size_t n) noexcept {
  assert(n < kLanes);
  double lanes[kLanes] = {};
  for (std::size_t i = 0; i < n; ++i) {
    lanes[i] -= cov[i] == 1 ? static_cast<double>(gain[i]) : 0.0;
  }
  return combineLanes(lanes);
}

// --- compensated accumulation ---------------------------------------------

/// Kahan-compensated running sum for whole-image totals (constTerm_,
/// resynchronise): millions of naive float-to-double adds drift by ~1e-7
/// relative; compensation holds the error at a few ulps of the total.
/// Must not be compiled with fast-math (the repo never does).
struct KahanSum {
  double sum = 0.0;
  double comp = 0.0;

  void add(double v) noexcept {
    const double y = v - comp;
    const double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
  }
  [[nodiscard]] double value() const noexcept { return sum; }
};

}  // namespace mcmcpar::model::kernels
