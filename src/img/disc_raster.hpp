#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "img/image.hpp"
#include "img/row_span.hpp"

namespace mcmcpar::img {

/// A horizontal run of pixels belonging to a disc: row y, columns [x0, x1).
struct Span {
  int y;
  int x0;
  int x1;
};

/// Pixel-membership rule used everywhere in the library: pixel (x, y) belongs
/// to the disc of centre (cx, cy) and radius r iff its centre point
/// (x+0.5, y+0.5) lies inside the circle. The rule is shared by the
/// likelihood, the renderer and the estimators so their pixel sets agree.
[[nodiscard]] inline bool pixelInDisc(int x, int y, double cx, double cy,
                                      double r) noexcept {
  const double dx = (static_cast<double>(x) + 0.5) - cx;
  const double dy = (static_cast<double>(y) + 0.5) - cy;
  return dx * dx + dy * dy <= r * r;
}

/// Inclusive range of raster rows that can contain disc pixels, clipped to
/// [0, height). Tight: row y holds a pixel centre iff |y+0.5-cy| <= r, so
/// yLo = ceil(cy-r-0.5) and yHi = floor(cy+r-0.5) — the ceil-based upper
/// bound used previously visited one extra row per disc that the
/// `disc < 0` guard then rejected at the cost of the dy² test.
/// Empty iff y0 > y1.
[[nodiscard]] inline RowRange discRowRange(double cy, double r,
                                           int height) noexcept {
  const int y0 = static_cast<int>(std::ceil(std::max(cy - r - 0.5, 0.0)));
  const int y1 = static_cast<int>(std::floor(
      std::min(cy + r - 0.5, static_cast<double>(height) - 1.0)));
  return {y0, y1};
}

/// Column span [x0, x1) of the disc on raster row y, clipped to [0, width).
/// Empty (x0 >= x1) when the row does not intersect the disc. One sqrt.
/// The clamps happen in double before the int casts, so arbitrarily large
/// radii/centres cannot overflow the conversion. This is the one definition
/// of a disc's pixel set: kernels::SpanKernels::discRows batches it and must
/// return the same spans bit for bit.
[[nodiscard]] inline RowSpan discRowSpan(double cx, double cy, double r, int y,
                                         int width) noexcept {
  const double dy = (static_cast<double>(y) + 0.5) - cy;
  const double disc = r * r - dy * dy;
  if (disc < 0.0) return {0, 0};
  const double half = std::sqrt(disc);
  // Solve (x + 0.5 - cx)^2 <= disc for integer x: the span is the integers in
  // [lo, hi]. The clamps happen in double, so giant radii cannot overflow the
  // int casts.
  const double lo = cx - half - 0.5;
  const double hi = cx + half - 0.5;
  const double cLo = std::ceil(lo);
  const double fHi = std::floor(hi);
  int x0 = static_cast<int>(std::clamp(cLo, 0.0, static_cast<double>(width)));
  int x1 = static_cast<int>(
      std::clamp(fHi, -1.0, static_cast<double>(width) - 1.0));
  // The sqrt estimate can misplace an endpoint by one pixel when a pixel
  // centre lies exactly on the rim (e.g. a 0.6/0.8/1.0 triangle), because
  // sqrt(r^2 - dy^2) and dx^2 + dy^2 <= r^2 round differently. That is only
  // possible when an endpoint sits within the floating-point slop of the rim:
  // dist * half < slackNum bounds that slop (scaled by half to avoid a
  // divide) with several orders of magnitude of safety over the true few-ulp
  // error, so the hot path skips the verification entirely; rows thinner
  // than a pixel always verify.
  const double slackNum = 1e-12 * ((std::fabs(cx) + half + 1.0) * half + r * r);
  const double dLo = (cLo - lo) * half;
  const double dHi = (hi - fHi) * half;
  if (half < 1.0 || dLo < slackNum || half - dLo < slackNum ||
      dHi < slackNum || half - dHi < slackNum) {
    // Nudge the endpoints until they agree with the membership rule, so every
    // enumerator matches pixelInDisc bit-for-bit. Membership along a row is a
    // contiguous interval even in floating point (rounding preserves the
    // monotonicity of dx^2 in |dx|), so endpoint correction is exact.
    while (x0 <= x1 && !pixelInDisc(x0, y, cx, cy, r)) ++x0;
    while (x1 >= x0 && !pixelInDisc(x1, y, cx, cy, r)) --x1;
    while (x0 > 0 && pixelInDisc(x0 - 1, y, cx, cy, r)) --x0;
    while (x1 + 1 < width && pixelInDisc(x1 + 1, y, cx, cy, r)) ++x1;
  }
  return {x0, x1 + 1};
}

/// Invoke fn(y, x0, x1) for every non-empty row span of the disc clipped to a
/// width x height raster (x1 exclusive): one sqrt per row, and the [x0, x1)
/// payload is contiguous in memory, so the per-span work vectorises. The
/// likelihood visits exactly these rows and spans, with the spans computed
/// in one batched call per disc (kernels::SpanKernels::discRows).
/// forEachDiscPixel and discSpans are thin wrappers, guaranteeing all three
/// enumerate identical pixel sets.
template <typename Fn>
void forEachDiscSpan(double cx, double cy, double r, int width, int height,
                     Fn&& fn) {
  if (!(r > 0.0) || width <= 0 || height <= 0) return;
  const RowRange rows = discRowRange(cy, r, height);
  for (int y = rows.y0; y <= rows.y1; ++y) {
    const RowSpan s = discRowSpan(cx, cy, r, y, width);
    if (s.x0 < s.x1) fn(y, s.x0, s.x1);
  }
}

/// Invoke fn(x, y) for every pixel of the disc clipped to a width x height
/// raster. Spans are computed per row with one sqrt, so the cost is
/// O(r) sqrt calls + O(area) callback invocations.
template <typename Fn>
void forEachDiscPixel(double cx, double cy, double r, int width, int height,
                      Fn&& fn) {
  forEachDiscSpan(cx, cy, r, width, height, [&](int y, int x0, int x1) {
    for (int x = x0; x < x1; ++x) fn(x, y);
  });
}

/// Collect the clipped disc as spans (used where a materialised list beats
/// repeated recomputation, e.g. the split/merge executor's pixel transfer).
[[nodiscard]] std::vector<Span> discSpans(double cx, double cy, double r,
                                          int width, int height);

/// Number of raster pixels of the clipped disc.
[[nodiscard]] std::size_t discPixelCount(double cx, double cy, double r,
                                         int width, int height) noexcept;

/// Additively render a disc with intensity `peak` and a linear soft edge of
/// width `softness` pixels (intensity ramps to 0 across the rim band).
void renderSoftDisc(ImageF& image, double cx, double cy, double r, float peak,
                    double softness);

}  // namespace mcmcpar::img
