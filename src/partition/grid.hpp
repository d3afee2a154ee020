#pragma once

#include <vector>

#include "model/posterior.hpp"
#include "rng/stream.hpp"

namespace mcmcpar::partition {

/// Integer pixel rectangle [x0, x0+w) x [y0, y0+h) (crops, partitions).
struct IRect {
  int x0 = 0;
  int y0 = 0;
  int w = 0;
  int h = 0;

  [[nodiscard]] long long area() const noexcept {
    return static_cast<long long>(w) * h;
  }
  [[nodiscard]] bool containsPoint(double x, double y) const noexcept {
    return x >= x0 && x < x0 + w && y >= y0 && y < y0 + h;
  }
  [[nodiscard]] model::Bounds toBounds() const noexcept {
    return model::Bounds{static_cast<double>(x0), static_cast<double>(y0),
                         static_cast<double>(x0 + w),
                         static_cast<double>(y0 + h)};
  }

  friend bool operator==(const IRect&, const IRect&) = default;
};

/// A uniform partition grid with spacing (xm, ym) and a per-phase random
/// offset, as in §V: "we partition the image with a uniform grid of spacing
/// xm along the x-axis and ym along the y-axis ... for each phase of Ml
/// moves performed, a new x and y offset for the grid is chosen at random
/// from the ranges 0..xm and 0..ym".
struct GridSpec {
  double spacingX = 256.0;
  double spacingY = 256.0;
  double offsetX = 0.0;
  double offsetY = 0.0;

  /// Same spacing with offsets drawn uniformly from [0, spacing).
  [[nodiscard]] GridSpec withRandomOffset(rng::Stream& stream) const;
};

/// Cells of the offset grid clipped to `domain`; empty cells are dropped.
/// Cells tile the domain exactly (half-open, disjoint).
[[nodiscard]] std::vector<model::Bounds> gridPartitions(
    const model::Bounds& domain, const GridSpec& spec);

/// The §VII experimental layout: four rectangles meeting at one interior
/// cross point (grid squares larger than the image). The cross point should
/// be drawn uniformly per phase.
[[nodiscard]] std::vector<model::Bounds> crossPartitions(
    const model::Bounds& domain, double crossX, double crossY);

/// Uniform random cross point with a relative border margin (avoids
/// degenerate slivers; marginFraction 0.1 keeps the point in the central
/// 80% of each axis).
[[nodiscard]] std::vector<model::Bounds> randomCrossPartitions(
    const model::Bounds& domain, rng::Stream& stream,
    double marginFraction = 0.05);

/// Integer tiling of a W x H image into gx x gy near-equal cells
/// (blind partitioning's "simple grid"; also used to build crop rects).
[[nodiscard]] std::vector<IRect> tileImage(int width, int height, int gx, int gy);

/// Round each edge to the nearest pixel. Cells sharing a cut line round it
/// identically, so rounding a disjoint tiling keeps it disjoint — this is
/// what the split/merge executor uses to turn grid cells into crop rects.
[[nodiscard]] IRect roundToPixels(const model::Bounds& b, int imageWidth,
                                  int imageHeight);

}  // namespace mcmcpar::partition
