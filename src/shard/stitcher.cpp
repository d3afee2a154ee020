#include "shard/stitcher.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/matching.hpp"

namespace mcmcpar::shard {

namespace {

/// Distance from a circle's centre to the nearest edge of its tile core —
/// the "depth" used to rank rival detections of one physical artifact.
double coreDepth(const model::Circle& c, const partition::IRect& core) {
  const double left = c.x - core.x0;
  const double right = core.x0 + core.w - c.x;
  const double top = c.y - core.y0;
  const double bottom = core.y0 + core.h - c.y;
  return std::min(std::min(left, right), std::min(top, bottom));
}

struct Candidate {
  model::Circle circle;
  std::size_t tile = 0;
  std::size_t order = 0;  ///< detection order within the tile (tie-break)
  double depth = 0.0;
};

}  // namespace

StitchResult stitchCircles(
    const TileGrid& grid,
    const std::vector<std::vector<model::Circle>>& perTile,
    const StitchOptions& options) {
  if (perTile.size() != grid.tiles.size()) {
    throw std::invalid_argument(
        "stitchCircles: expected " + std::to_string(grid.tiles.size()) +
        " tile detection lists, got " + std::to_string(perTile.size()));
  }

  StitchResult result;
  result.keptPerTile.assign(grid.tiles.size(), 0);

  std::vector<Candidate> candidates;
  for (std::size_t t = 0; t < grid.tiles.size(); ++t) {
    const TileSpec& tile = grid.tiles[t];
    for (std::size_t i = 0; i < perTile[t].size(); ++i) {
      const model::Circle& circle = perTile[t][i];
      if (!tile.ownsCentre(circle)) {
        ++result.haloDropped;
        continue;
      }
      candidates.push_back(
          Candidate{circle, t, i, coreDepth(circle, tile.core)});
    }
  }

  // Deepest-in-core first, so the greedy pass below always keeps the copy
  // with the most halo support. Strict ordering keeps the merge
  // deterministic across thread schedules.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.depth != b.depth) return a.depth > b.depth;
                     if (a.tile != b.tile) return a.tile < b.tile;
                     return a.order < b.order;
                   });

  std::vector<const Candidate*> accepted;
  accepted.reserve(candidates.size());
  for (const Candidate& candidate : candidates) {
    bool duplicate = false;
    for (const Candidate* kept : accepted) {
      if (kept->tile == candidate.tile) continue;  // same chain: no rival
      // Cheap reject before the lens-area formula.
      const double reach = kept->circle.r + candidate.circle.r;
      if (model::centreDistance2(kept->circle, candidate.circle) >
          reach * reach) {
        continue;
      }
      if (analysis::circleIoU(kept->circle, candidate.circle) >= options.iouThreshold) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      ++result.duplicatesRemoved;
      continue;
    }
    accepted.push_back(&candidate);
  }

  // Emit in (tile, detection) order so the merged set is independent of the
  // depth ranking used for conflict resolution.
  std::sort(accepted.begin(), accepted.end(),
            [](const Candidate* a, const Candidate* b) {
              if (a->tile != b->tile) return a->tile < b->tile;
              return a->order < b->order;
            });
  result.circles.reserve(accepted.size());
  for (const Candidate* candidate : accepted) {
    result.circles.push_back(candidate->circle);
    ++result.keptPerTile[candidate->tile];
  }
  return result;
}

}  // namespace mcmcpar::shard
