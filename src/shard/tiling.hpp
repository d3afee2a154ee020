#pragma once

#include <string>
#include <vector>

#include "img/image.hpp"
#include "model/circle.hpp"
#include "partition/grid.hpp"

namespace mcmcpar::shard {

/// One tile of a sharded image: the `core` rectangles of a grid tile the
/// image exactly (disjoint, half-open), while `halo` is the core grown by
/// the halo margin and clipped to the image — the pixels a tile's sampler
/// actually sees, so circles near a cut line keep their full likelihood
/// support. Ownership is by core: a detected circle belongs to the single
/// tile whose core contains its centre.
struct TileSpec {
  partition::IRect core;  ///< owned region (disjoint across tiles)
  partition::IRect halo;  ///< core + margin, clipped (the cropped image)
  int ix = 0;             ///< column in the tile grid
  int iy = 0;             ///< row in the tile grid

  /// Centre-ownership test against the core, in full-image coordinates.
  [[nodiscard]] bool ownsCentre(const model::Circle& c) const noexcept {
    return core.containsPoint(c.x, c.y);
  }

  friend bool operator==(const TileSpec&, const TileSpec&) = default;
};

/// Shape of a shard decomposition: a gx x gy grid with `halo` pixels of
/// overlap margin on every interior edge. An *adaptive* grid (tiles=auto)
/// is an irregular KD-split decomposition carried as a flat tile list
/// (gridX = tile count, gridY = 1, ix = index): the stitcher keys only on
/// the cores, never on row/column regularity, so both shapes flow through
/// the same merge path.
struct TileGrid {
  int gridX = 1;
  int gridY = 1;
  int halo = 0;
  bool adaptive = false;        ///< built by makeAdaptiveTileGrid
  std::vector<TileSpec> tiles;  ///< row-major, iy * gridX + ix
};

/// Decompose a width x height image into a gx x gy grid of near-equal core
/// rectangles (partition::tileImage), each with a halo of `halo` pixels
/// clipped to the image. Throws std::invalid_argument on an empty image,
/// non-positive grid, or negative halo.
[[nodiscard]] TileGrid makeTileGrid(int width, int height, int gx, int gy,
                                    int halo);

/// Parse a "KxL" tile-count token ("2x2", "4x1"); throws
/// std::invalid_argument on anything else (including zero counts).
void parseTileCount(const std::string& text, int& gx, int& gy);

/// Coarse content-density scan feeding the §IX cost model: per-block mean
/// activity in [0, 1], where activity is brightness above the global image
/// mean (artifacts are bright discs on a darker background) normalised by
/// the brightest block. Blocks are blockSize x blockSize, edge blocks
/// clipped. Cheap by construction — one pass over the pixels — because it
/// runs at admission time on every adaptive shard run.
struct DensityMap {
  int width = 0;   ///< image width the scan covered
  int height = 0;  ///< image height the scan covered
  int blockSize = 16;
  int blocksX = 0;
  int blocksY = 0;
  std::vector<double> activity;  ///< row-major by * blocksX + bx, in [0, 1]

  [[nodiscard]] double at(int bx, int by) const {
    return activity[static_cast<std::size_t>(by) * blocksX + bx];
  }
};

/// Scan `image` into a DensityMap. Throws std::invalid_argument on an empty
/// image or non-positive block size.
[[nodiscard]] DensityMap scanDensity(const img::ImageF& image,
                                     int blockSize = 16);

/// Predicted relative workload of `region`: the integral over its pixels of
/// (1 + densityWeight * activity), i.e. area weighted up where content is.
/// Dimensionless — callers turn it into seconds via the cost calibration.
[[nodiscard]] double regionWorkload(const DensityMap& density,
                                    const partition::IRect& region,
                                    double densityWeight);

/// Mean activity of `region` in [0, 1] (area-weighted over blocks).
[[nodiscard]] double regionMeanActivity(const DensityMap& density,
                                        const partition::IRect& region);

/// The tiles=auto decomposition: recursively split the region with the
/// largest predicted workload at the cut that best balances the two halves
/// (along its longer splittable axis), until `maxTiles` regions exist or
/// nothing splittable remains. Every core keeps both sides >= minTileSize
/// where the image allows it; cores stay disjoint and cover the image, and
/// halos clip to the image exactly as in makeTileGrid. Throws
/// std::invalid_argument on an empty density map or non-positive
/// maxTiles/minTileSize or negative halo.
[[nodiscard]] TileGrid makeAdaptiveTileGrid(const DensityMap& density,
                                            int maxTiles, int halo,
                                            int minTileSize = 32,
                                            double densityWeight = 4.0);

}  // namespace mcmcpar::shard
