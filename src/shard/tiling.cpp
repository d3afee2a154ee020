#include "shard/tiling.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace mcmcpar::shard {

namespace {

/// Grow `core` by `halo` (already clamped) and clip to the image — the one
/// halo rule shared by the fixed and adaptive grids. long long keeps an
/// untrusted near-INT_MAX halo from overflowing the edge arithmetic.
TileSpec makeTile(const partition::IRect& core, int halo, int width,
                  int height, int ix, int iy) {
  TileSpec tile;
  tile.ix = ix;
  tile.iy = iy;
  tile.core = core;
  const long long x1 = core.x0 + core.w;
  const long long y1 = core.y0 + core.h;
  const int hx0 = std::max(0, core.x0 - halo);
  const int hy0 = std::max(0, core.y0 - halo);
  const int hx1 = static_cast<int>(std::min<long long>(width, x1 + halo));
  const int hy1 = static_cast<int>(std::min<long long>(height, y1 + halo));
  tile.halo = partition::IRect{hx0, hy0, hx1 - hx0, hy1 - hy0};
  return tile;
}

/// Reject a negative halo, then cap it before the edge arithmetic: anything
/// past the image just clips away, and an untrusted @halo near INT_MAX must
/// not overflow `core.x0 + core.w + halo` (the same bug class as over-range
/// @shard counts, which parseTileCount rejects).
int clampHalo(int halo, int width, int height, const std::string& caller) {
  if (halo < 0) {
    throw std::invalid_argument(caller + ": halo must be >= 0, got " +
                                std::to_string(halo));
  }
  return std::min(halo, std::max(width, height));
}

}  // namespace

TileGrid makeTileGrid(int width, int height, int gx, int gy, int halo) {
  if (width <= 0 || height <= 0) {
    throw std::invalid_argument("makeTileGrid: empty image (" +
                                std::to_string(width) + "x" +
                                std::to_string(height) + ")");
  }
  if (gx <= 0 || gy <= 0) {
    throw std::invalid_argument("makeTileGrid: tile counts must be >= 1, got " +
                                std::to_string(gx) + "x" + std::to_string(gy));
  }
  // More tiles than pixels along an axis would produce empty cores.
  if (gx > width || gy > height) {
    throw std::invalid_argument(
        "makeTileGrid: " + std::to_string(gx) + "x" + std::to_string(gy) +
        " tiles do not fit a " + std::to_string(width) + "x" +
        std::to_string(height) + " image");
  }

  TileGrid grid;
  grid.gridX = gx;
  grid.gridY = gy;
  halo = clampHalo(halo, width, height, "makeTileGrid");
  grid.halo = halo;
  const std::vector<partition::IRect> cores =
      partition::tileImage(width, height, gx, gy);
  grid.tiles.reserve(cores.size());
  for (int iy = 0; iy < gy; ++iy) {
    for (int ix = 0; ix < gx; ++ix) {
      grid.tiles.push_back(makeTile(cores[static_cast<std::size_t>(iy) * gx +
                                          ix],
                                    halo, width, height, ix, iy));
    }
  }
  return grid;
}

void parseTileCount(const std::string& text, int& gx, int& gy) {
  const auto fail = [&text] {
    throw std::invalid_argument("expected tiles=KxL (e.g. 2x2), got '" + text +
                                "'");
  };
  const std::size_t x = text.find('x');
  if (x == std::string::npos || x == 0 || x + 1 >= text.size()) fail();
  const std::string left = text.substr(0, x);
  const std::string right = text.substr(x + 1);
  for (const char c : left) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) fail();
  }
  for (const char c : right) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) fail();
  }
  // stoi throws std::out_of_range (not invalid_argument) past INT_MAX, and
  // no real grid needs five digits — reject early so callers only ever see
  // invalid_argument.
  if (left.size() > 4 || right.size() > 4) fail();
  gx = std::stoi(left);
  gy = std::stoi(right);
  if (gx < 1 || gy < 1) fail();
}

DensityMap scanDensity(const img::ImageF& image, int blockSize) {
  if (image.width() <= 0 || image.height() <= 0) {
    throw std::invalid_argument("scanDensity: empty image");
  }
  if (blockSize <= 0) {
    throw std::invalid_argument("scanDensity: block size must be >= 1, got " +
                                std::to_string(blockSize));
  }
  DensityMap density;
  density.width = image.width();
  density.height = image.height();
  density.blockSize = blockSize;
  density.blocksX = (image.width() + blockSize - 1) / blockSize;
  density.blocksY = (image.height() + blockSize - 1) / blockSize;
  density.activity.assign(
      static_cast<std::size_t>(density.blocksX) * density.blocksY, 0.0);

  double globalSum = 0.0;
  for (int y = 0; y < image.height(); ++y) {
    const float* row = image.row(y);
    for (int x = 0; x < image.width(); ++x) globalSum += row[x];
  }
  const double globalMean =
      globalSum / static_cast<double>(image.pixelCount());

  // Per-block mean brightness above the global mean: artifacts are bright
  // discs on a darker background, so excess brightness localises the work.
  std::vector<double> excess(density.activity.size(), 0.0);
  double maxExcess = 0.0;
  for (int by = 0; by < density.blocksY; ++by) {
    for (int bx = 0; bx < density.blocksX; ++bx) {
      const int x0 = bx * blockSize;
      const int y0 = by * blockSize;
      const int x1 = std::min(x0 + blockSize, image.width());
      const int y1 = std::min(y0 + blockSize, image.height());
      double sum = 0.0;
      for (int y = y0; y < y1; ++y) {
        const float* row = image.row(y);
        for (int x = x0; x < x1; ++x) sum += row[x];
      }
      const double mean =
          sum / static_cast<double>((x1 - x0) * (y1 - y0));
      const double value = std::max(0.0, mean - globalMean);
      excess[static_cast<std::size_t>(by) * density.blocksX + bx] = value;
      maxExcess = std::max(maxExcess, value);
    }
  }
  // Normalise to [0, 1] by the brightest block; a flat image (noise only,
  // no contrast) has no preferred region and scans as all-zero activity.
  if (maxExcess > 1e-12) {
    for (std::size_t i = 0; i < excess.size(); ++i) {
      density.activity[i] = excess[i] / maxExcess;
    }
  }
  return density;
}

namespace {

/// Overlap area of `region` with block (bx, by), in pixels.
double blockOverlap(const DensityMap& density, const partition::IRect& region,
                    int bx, int by) {
  const int x0 = std::max(region.x0, bx * density.blockSize);
  const int y0 = std::max(region.y0, by * density.blockSize);
  const int x1 = std::min({region.x0 + region.w,
                           (bx + 1) * density.blockSize, density.width});
  const int y1 = std::min({region.y0 + region.h,
                           (by + 1) * density.blockSize, density.height});
  if (x1 <= x0 || y1 <= y0) return 0.0;
  return static_cast<double>(x1 - x0) * static_cast<double>(y1 - y0);
}

/// Shared accumulation of regionWorkload / regionMeanActivity: the
/// covered area and the activity-weighted integral.
std::pair<double, double> accumulateRegion(const DensityMap& density,
                                           const partition::IRect& region) {
  double area = 0.0;
  double weightedActivity = 0.0;
  if (region.w <= 0 || region.h <= 0) return {area, weightedActivity};
  const int bx0 = std::max(0, region.x0 / density.blockSize);
  const int by0 = std::max(0, region.y0 / density.blockSize);
  const int bx1 = std::min(density.blocksX - 1,
                           (region.x0 + region.w - 1) / density.blockSize);
  const int by1 = std::min(density.blocksY - 1,
                           (region.y0 + region.h - 1) / density.blockSize);
  for (int by = by0; by <= by1; ++by) {
    for (int bx = bx0; bx <= bx1; ++bx) {
      const double overlap = blockOverlap(density, region, bx, by);
      area += overlap;
      weightedActivity += overlap * density.at(bx, by);
    }
  }
  return {area, weightedActivity};
}

/// The two halves of `region` cut at x = `cut` (vertical) or y = `cut`.
std::pair<partition::IRect, partition::IRect> splitAt(
    const partition::IRect& region, int cut, bool vertical) {
  partition::IRect left = region;
  partition::IRect right = region;
  if (vertical) {
    left.w = cut - region.x0;
    right.x0 = cut;
    right.w = region.x0 + region.w - cut;
  } else {
    left.h = cut - region.y0;
    right.y0 = cut;
    right.h = region.y0 + region.h - cut;
  }
  return {left, right};
}

}  // namespace

double regionWorkload(const DensityMap& density,
                      const partition::IRect& region, double densityWeight) {
  const auto [area, weightedActivity] = accumulateRegion(density, region);
  return area + densityWeight * weightedActivity;
}

double regionMeanActivity(const DensityMap& density,
                          const partition::IRect& region) {
  const auto [area, weightedActivity] = accumulateRegion(density, region);
  return area > 0.0 ? weightedActivity / area : 0.0;
}

TileGrid makeAdaptiveTileGrid(const DensityMap& density, int maxTiles,
                              int halo, int minTileSize,
                              double densityWeight) {
  if (density.width <= 0 || density.height <= 0 ||
      density.activity.empty()) {
    throw std::invalid_argument("makeAdaptiveTileGrid: empty density map");
  }
  if (maxTiles < 1) {
    throw std::invalid_argument(
        "makeAdaptiveTileGrid: max tiles must be >= 1, got " +
        std::to_string(maxTiles));
  }
  if (minTileSize < 1) {
    throw std::invalid_argument(
        "makeAdaptiveTileGrid: min tile size must be >= 1, got " +
        std::to_string(minTileSize));
  }
  halo = clampHalo(halo, density.width, density.height,
                   "makeAdaptiveTileGrid");

  // Candidate cuts along one axis: block boundaries inside the admissible
  // band (both sides >= minTileSize), plus the band edges so a region
  // narrower than two blocks can still split. Returns the cut with the
  // best workload balance, or 0 when the axis cannot split.
  const auto bestCut = [&](const partition::IRect& region, bool vertical) {
    const int extent = vertical ? region.w : region.h;
    if (extent < 2 * minTileSize) return 0;
    const int lo = (vertical ? region.x0 : region.y0) + minTileSize;
    const int hi = (vertical ? region.x0 + region.w : region.y0 + region.h) -
                   minTileSize;
    std::vector<int> cuts;
    cuts.push_back(lo);
    if (hi != lo) cuts.push_back(hi);
    const int firstBlock = lo / density.blockSize + 1;
    for (int b = firstBlock; b * density.blockSize < hi; ++b) {
      const int cut = b * density.blockSize;
      if (cut > lo && cut < hi) cuts.push_back(cut);
    }
    int best = 0;
    double bestImbalance = 0.0;
    for (const int cut : cuts) {
      const auto [left, right] = splitAt(region, cut, vertical);
      const double imbalance =
          std::abs(regionWorkload(density, left, densityWeight) -
                   regionWorkload(density, right, densityWeight));
      if (best == 0 || imbalance < bestImbalance) {
        best = cut;
        bestImbalance = imbalance;
      }
    }
    return best;
  };

  std::vector<partition::IRect> regions{
      partition::IRect{0, 0, density.width, density.height}};
  while (static_cast<int>(regions.size()) < maxTiles) {
    // Split the heaviest splittable region; equal weights break to the
    // earlier region so the decomposition is deterministic.
    std::size_t heaviest = regions.size();
    double heaviestWork = 0.0;
    for (std::size_t i = 0; i < regions.size(); ++i) {
      const partition::IRect& region = regions[i];
      if (region.w < 2 * minTileSize && region.h < 2 * minTileSize) continue;
      const double work = regionWorkload(density, region, densityWeight);
      if (heaviest == regions.size() || work > heaviestWork) {
        heaviest = i;
        heaviestWork = work;
      }
    }
    if (heaviest == regions.size()) break;  // nothing splittable left

    partition::IRect region = regions[heaviest];
    // Prefer cutting across the longer axis (squarer children keep halo
    // overhead low); fall back to the other axis when it cannot split.
    const bool preferVertical = region.w >= region.h;
    int cut = bestCut(region, preferVertical);
    bool vertical = preferVertical;
    if (cut == 0) {
      cut = bestCut(region, !preferVertical);
      vertical = !preferVertical;
    }
    if (cut == 0) break;  // defensive: the heaviest check said splittable

    const auto [left, right] = splitAt(region, cut, vertical);
    regions[heaviest] = left;
    regions.push_back(right);
  }

  // Deterministic tile order regardless of split history.
  std::sort(regions.begin(), regions.end(),
            [](const partition::IRect& a, const partition::IRect& b) {
              return a.y0 != b.y0 ? a.y0 < b.y0 : a.x0 < b.x0;
            });

  TileGrid grid;
  grid.gridX = static_cast<int>(regions.size());
  grid.gridY = 1;
  grid.halo = halo;
  grid.adaptive = true;
  grid.tiles.reserve(regions.size());
  for (std::size_t i = 0; i < regions.size(); ++i) {
    grid.tiles.push_back(makeTile(regions[i], halo, density.width,
                                  density.height, static_cast<int>(i), 0));
  }
  return grid;
}

}  // namespace mcmcpar::shard
