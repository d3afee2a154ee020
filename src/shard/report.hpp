#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mcmc/diagnostics.hpp"
#include "model/circle.hpp"
#include "shard/tiling.hpp"

/// Diagnostics types of the sharded-execution subsystem. Kept free of
/// engine dependencies so engine::RunReport can carry a ShardReport in its
/// extras variant while the coordinator itself (shard/strategy.*) builds on
/// top of the engine and serving layers.
namespace mcmcpar::shard {

/// Outcome of one tile's run, in full-image coordinates.
struct TileRun {
  TileSpec spec;
  std::string label;             ///< "tile-<ix>x<iy>"
  std::uint64_t iterations = 0;  ///< chain iterations spent on this tile
  /// The tile's sampler wall time: the inner RunReport.wallSeconds, which
  /// both backends copy (the socket backend from the remote REPORT). It
  /// excludes queue wait, state build and transfer.
  double wallSeconds = 0.0;
  double acceptanceRate = 0.0;
  double logPosterior = 0.0;  ///< of the tile-local model (not comparable
                              ///< across tiles; the merged value lives in
                              ///< RunReport.logPosterior)
  std::size_t circlesFound = 0;    ///< detections before stitching
  std::size_t circlesKept = 0;     ///< detections surviving the stitch
  bool cancelled = false;
  std::string error;  ///< non-empty when the tile job failed
  mcmc::Diagnostics diagnostics;

  std::string endpoint;   ///< "host:port" that ran it ("" = local backend)
  unsigned attempts = 1;  ///< submissions including requeues after failures
  bool hedged = false;    ///< this result came from a hedge replica
};

/// The merged outcome of a sharded run: tile layout, per-tile diagnostics
/// and the stitcher's de-duplication accounting. Carried as
/// engine::RunReport::extras by the "sharded" strategy.
struct ShardReport {
  int gridX = 1;
  int gridY = 1;
  int halo = 0;
  bool adaptive = false;      ///< tiles=auto (gridX is then the tile count)
  std::string backend;        ///< "local" or "socket"
  std::string innerStrategy;  ///< registry key run on each tile
  std::vector<TileRun> tiles;

  std::size_t haloDropped = 0;  ///< detections outside their tile's core
  std::size_t duplicatesRemoved = 0;  ///< cross-tile IoU duplicates removed

  /// Socket-backend resilience accounting: tiles re-submitted after a
  /// transport failure or transient rejection, and endpoints the
  /// coordinator considered dead by the end of the run.
  std::size_t requeues = 0;
  std::size_t endpointsDead = 0;

  /// Straggler hedging (hedge-factor option): replicas issued for slow
  /// tiles, and how many of those replicas beat their primary. Replicas
  /// are bit-identical, so a hedge changes only latency, never the result.
  std::size_t hedgesIssued = 0;
  std::size_t hedgesWon = 0;

  double maxTileSeconds = 0.0;  ///< slowest tile (the parallel wall floor)
  double sumTileSeconds = 0.0;  ///< total tile compute (the serial cost)
  double mergeSeconds = 0.0;    ///< stitch + merged-posterior evaluation

  [[nodiscard]] std::size_t tileFailures() const noexcept {
    std::size_t n = 0;
    for (const TileRun& tile : tiles) n += tile.error.empty() ? 0 : 1;
    return n;
  }
};

}  // namespace mcmcpar::shard
