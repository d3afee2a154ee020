// The sharded-execution subsystem (src/shard): tile geometry with halo,
// halo reconciliation (ownership + IoU de-dup), the remote report parser,
// the @shard manifest sugar, and the "sharded" strategy end-to-end through
// the registry — local backend under a shared budget and socket backend
// against an in-process serve::Server.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/batch.hpp"
#include "engine/registry.hpp"
#include "img/synth.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "shard/endpoints.hpp"
#include "shard/remote.hpp"
#include "shard/report.hpp"
#include "shard/stitcher.hpp"
#include "shard/tiling.hpp"

namespace mcmcpar {
namespace {

// ---------------------------------------------------------------------------
// Tile geometry
// ---------------------------------------------------------------------------

TEST(Tiling, CoresTileTheImageExactlyAndHalosClip) {
  const shard::TileGrid grid = shard::makeTileGrid(100, 80, 2, 2, 10);
  ASSERT_EQ(grid.tiles.size(), 4u);
  EXPECT_EQ(grid.gridX, 2);
  EXPECT_EQ(grid.gridY, 2);
  EXPECT_EQ(grid.halo, 10);

  long long coreArea = 0;
  for (const shard::TileSpec& tile : grid.tiles) {
    coreArea += tile.core.area();
    // The halo contains the core and never leaves the image.
    EXPECT_LE(tile.halo.x0, tile.core.x0);
    EXPECT_LE(tile.halo.y0, tile.core.y0);
    EXPECT_GE(tile.halo.x0 + tile.halo.w, tile.core.x0 + tile.core.w);
    EXPECT_GE(tile.halo.y0 + tile.halo.h, tile.core.y0 + tile.core.h);
    EXPECT_GE(tile.halo.x0, 0);
    EXPECT_GE(tile.halo.y0, 0);
    EXPECT_LE(tile.halo.x0 + tile.halo.w, 100);
    EXPECT_LE(tile.halo.y0 + tile.halo.h, 80);
  }
  EXPECT_EQ(coreArea, 100ll * 80ll);

  // Interior edges carry the full halo margin; image edges are clipped.
  const shard::TileSpec& topLeft = grid.tiles[0];
  EXPECT_EQ(topLeft.halo.x0, 0);
  EXPECT_EQ(topLeft.halo.y0, 0);
  EXPECT_EQ(topLeft.halo.w, topLeft.core.w + 10);
  EXPECT_EQ(topLeft.halo.h, topLeft.core.h + 10);

  // Cores are disjoint: every pixel centre is owned by exactly one tile.
  for (int y = 0; y < 80; y += 7) {
    for (int x = 0; x < 100; x += 7) {
      int owners = 0;
      for (const shard::TileSpec& tile : grid.tiles) {
        owners += tile.core.containsPoint(x + 0.5, y + 0.5) ? 1 : 0;
      }
      EXPECT_EQ(owners, 1) << "pixel (" << x << ", " << y << ")";
    }
  }
}

TEST(Tiling, SingleTileIsTheWholeImage) {
  const shard::TileGrid grid = shard::makeTileGrid(64, 48, 1, 1, 16);
  ASSERT_EQ(grid.tiles.size(), 1u);
  EXPECT_EQ(grid.tiles[0].core, (partition::IRect{0, 0, 64, 48}));
  EXPECT_EQ(grid.tiles[0].halo, grid.tiles[0].core);  // nothing to grow into
}

TEST(Tiling, HugeHaloClampsToTheImageWithoutOverflow) {
  // An untrusted @halo near INT_MAX must clamp (everything past the image
  // clips away anyway), never overflow the edge arithmetic into negative
  // crop sizes.
  const shard::TileGrid grid =
      shard::makeTileGrid(100, 80, 2, 2, std::numeric_limits<int>::max());
  for (const shard::TileSpec& tile : grid.tiles) {
    EXPECT_EQ(tile.halo, (partition::IRect{0, 0, 100, 80}));
  }
}

TEST(Tiling, RejectsDegenerateShapes) {
  EXPECT_THROW((void)shard::makeTileGrid(0, 10, 1, 1, 0),
               std::invalid_argument);
  EXPECT_THROW((void)shard::makeTileGrid(10, 10, 0, 1, 0),
               std::invalid_argument);
  EXPECT_THROW((void)shard::makeTileGrid(10, 10, 1, 1, -1),
               std::invalid_argument);
  EXPECT_THROW((void)shard::makeTileGrid(4, 4, 8, 1, 0),
               std::invalid_argument);
}

TEST(Tiling, ParseTileCount) {
  int gx = 0;
  int gy = 0;
  shard::parseTileCount("3x2", gx, gy);
  EXPECT_EQ(gx, 3);
  EXPECT_EQ(gy, 2);
  // Over-range counts must reject as invalid_argument, never escape as
  // std::out_of_range (which once aborted a live server via SUBMIT).
  for (const char* bad : {"", "x2", "2x", "2y3", "0x2", "2x0", "a2x2",
                          "99999999999x2", "2x99999999999"}) {
    EXPECT_THROW(shard::parseTileCount(bad, gx, gy), std::invalid_argument)
        << bad;
  }
}

TEST(Tiling, DiscIoU) {
  const model::Circle a{10.0, 10.0, 5.0};
  EXPECT_DOUBLE_EQ(shard::discIoU(a, a), 1.0);
  EXPECT_DOUBLE_EQ(shard::discIoU(a, model::Circle{30.0, 10.0, 5.0}), 0.0);
  const double partial = shard::discIoU(a, model::Circle{13.0, 10.0, 5.0});
  EXPECT_GT(partial, 0.0);
  EXPECT_LT(partial, 1.0);
}

// ---------------------------------------------------------------------------
// Stitcher
// ---------------------------------------------------------------------------

/// 2x1 grid over a 100x50 image with the cut at x = 50.
shard::TileGrid twoTiles(int halo = 10) {
  return shard::makeTileGrid(100, 50, 2, 1, halo);
}

TEST(Stitcher, DropsHaloDetectionsOutsideTheOwnCore) {
  const shard::TileGrid grid = twoTiles();
  // Tile 1 detects a circle whose centre lies in tile 0's core: a halo
  // observation that tile 0 is responsible for (and here missed).
  const std::vector<std::vector<model::Circle>> perTile = {
      {}, {model::Circle{45.0, 25.0, 4.0}}};
  const shard::StitchResult result = shard::stitchCircles(grid, perTile);
  EXPECT_TRUE(result.circles.empty());
  EXPECT_EQ(result.haloDropped, 1u);
  EXPECT_EQ(result.duplicatesRemoved, 0u);
}

TEST(Stitcher, CollapsesSeamDuplicatesKeepingTheDeeperCopy) {
  const shard::TileGrid grid = twoTiles();
  // One physical artifact at the cut, detected by both tiles with centres
  // landing in different cores. The copy deeper inside its core (tile 1's,
  // 2.5 px past the cut vs 0.5 px) must win.
  const model::Circle left{49.5, 25.0, 4.0};
  const model::Circle right{52.5, 25.0, 4.0};
  const std::vector<std::vector<model::Circle>> perTile = {{left}, {right}};
  const shard::StitchResult result = shard::stitchCircles(grid, perTile);
  ASSERT_EQ(result.circles.size(), 1u);
  EXPECT_EQ(result.circles[0], right);
  EXPECT_EQ(result.duplicatesRemoved, 1u);
  EXPECT_EQ(result.haloDropped, 0u);
  EXPECT_EQ(result.keptPerTile[0], 0u);
  EXPECT_EQ(result.keptPerTile[1], 1u);
}

TEST(Stitcher, KeepsDistinctCirclesAcrossTiles) {
  const shard::TileGrid grid = twoTiles();
  const std::vector<std::vector<model::Circle>> perTile = {
      {model::Circle{20.0, 25.0, 4.0}, model::Circle{48.0, 10.0, 3.0}},
      {model::Circle{80.0, 25.0, 4.0}}};
  const shard::StitchResult result = shard::stitchCircles(grid, perTile);
  EXPECT_EQ(result.circles.size(), 3u);
  EXPECT_EQ(result.duplicatesRemoved, 0u);
  // Output order is (tile, detection order), independent of depth ranks.
  EXPECT_EQ(result.circles[0], perTile[0][0]);
  EXPECT_EQ(result.circles[1], perTile[0][1]);
  EXPECT_EQ(result.circles[2], perTile[1][0]);
}

TEST(Stitcher, RejectsMismatchedTileCount) {
  const shard::TileGrid grid = twoTiles();
  EXPECT_THROW((void)shard::stitchCircles(grid, {{}}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// REPORT JSON round trip
// ---------------------------------------------------------------------------

TEST(RemoteReport, RoundTripsThroughProtocolReportJson) {
  serve::JobStatus status;
  status.id = 9;
  status.state = serve::JobState::Done;
  status.label = "tile-0x1";
  status.image = "/tmp/tile.pgm";
  status.strategy = "serial";
  engine::RunReport report;
  report.strategy = "serial";
  report.iterations = 1234;
  report.wallSeconds = 0.5;
  report.acceptanceRate = 0.25;
  report.logPosterior = -321.5;
  report.circles = {model::Circle{1.5, 2.25, 3.0},
                    model::Circle{40.0, 8.125, 5.5}};

  const std::string json = serve::protocol::reportJson(status, report);
  const shard::remote::TileReportJson parsed =
      shard::remote::parseReportJson(json);
  EXPECT_EQ(parsed.state, "done");
  EXPECT_EQ(parsed.error, "");
  EXPECT_EQ(parsed.iterations, 1234u);
  EXPECT_DOUBLE_EQ(parsed.wallSeconds, 0.5);
  EXPECT_DOUBLE_EQ(parsed.acceptance, 0.25);
  EXPECT_DOUBLE_EQ(parsed.logPosterior, -321.5);
  EXPECT_FALSE(parsed.cancelled);
  ASSERT_EQ(parsed.circles.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.circles[0].x, 1.5);
  EXPECT_DOUBLE_EQ(parsed.circles[0].y, 2.25);
  EXPECT_DOUBLE_EQ(parsed.circles[0].r, 3.0);
  EXPECT_DOUBLE_EQ(parsed.circles[1].r, 5.5);
}

TEST(RemoteReport, ResultJsonWithoutCircleDetailIsRejected) {
  serve::JobStatus status;
  status.state = serve::JobState::Done;
  const engine::RunReport report;
  EXPECT_THROW((void)shard::remote::parseReportJson(
                   serve::protocol::jobJson(status, report)),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Endpoint fleets
// ---------------------------------------------------------------------------

TEST(Endpoints, ParsesListWithWeights) {
  const std::vector<shard::Endpoint> fleet =
      shard::parseEndpointList("alpha:7001,beta:7002*3");
  ASSERT_EQ(fleet.size(), 2u);
  EXPECT_EQ(fleet[0].host, "alpha");
  EXPECT_EQ(fleet[0].port, 7001);
  EXPECT_EQ(fleet[0].weight, 1u);
  EXPECT_EQ(fleet[1].host, "beta");
  EXPECT_EQ(fleet[1].port, 7002);
  EXPECT_EQ(fleet[1].weight, 3u);
  EXPECT_EQ(shard::formatEndpointList(fleet), "alpha:7001,beta:7002*3");
  EXPECT_TRUE(shard::parseEndpointList("").empty());
}

TEST(Endpoints, RejectsMalformedListEntries) {
  for (const char* bad :
       {"nope", ":7001", "host:", "host:0", "host:99999", "host:7001*0",
        "host:7001*bogus", "host:7001*9999999"}) {
    EXPECT_THROW((void)shard::parseEndpointList(bad), engine::EngineError)
        << bad;
  }
}

TEST(Endpoints, ParsesFileWithCommentsAndWeights) {
  std::istringstream in(
      "# fleet\n"
      "\n"
      "alpha:7001\n"
      "beta:7002 3  # the big box\n");
  const std::vector<shard::Endpoint> fleet =
      shard::parseEndpointsFile(in, "fleet.txt");
  ASSERT_EQ(fleet.size(), 2u);
  EXPECT_EQ(fleet[0].label(), "alpha:7001");
  EXPECT_EQ(fleet[1].label(), "beta:7002");
  EXPECT_EQ(fleet[1].weight, 3u);
}

TEST(Endpoints, FileDiagnosticsCarryLineNumbers) {
  {
    // Duplicate host:port — names both the offending and defining lines.
    std::istringstream in("alpha:7001\n# x\nalpha:7001 2\n");
    try {
      (void)shard::parseEndpointsFile(in, "fleet.txt");
      FAIL() << "duplicate endpoint accepted";
    } catch (const engine::EngineError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("fleet.txt' line 3"), std::string::npos) << what;
      EXPECT_NE(what.find("first defined on line 1"), std::string::npos)
          << what;
    }
  }
  {
    std::istringstream in("alpha:7001 0\n");
    try {
      (void)shard::parseEndpointsFile(in, "fleet.txt");
      FAIL() << "zero weight accepted";
    } catch (const engine::EngineError& e) {
      EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
    }
  }
  {
    std::istringstream in("alpha:7001 2 junk\n");
    EXPECT_THROW((void)shard::parseEndpointsFile(in, "fleet.txt"),
                 engine::EngineError);
  }
}

TEST(Endpoints, PoolPicksWeightedLeastLoadedAndSkipsDead) {
  shard::EndpointPool pool(
      shard::parseEndpointList("alpha:7001,beta:7002*2"));
  // All probes unrun: the pool starts optimistic (checkAll is the caller's
  // startup gate). Four picks: beta takes twice alpha's share.
  std::size_t alpha = 0;
  std::size_t beta = 0;
  for (int i = 0; i < 6; ++i) {
    const auto picked = pool.pick();
    ASSERT_TRUE(picked.has_value());
    (*picked == 0 ? alpha : beta) += 1;
  }
  EXPECT_EQ(alpha, 2u);
  EXPECT_EQ(beta, 4u);

  pool.markDead(1);
  EXPECT_EQ(pool.deadCount(), 1u);
  const auto survivor = pool.pick();
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(*survivor, 0u);
  // Excluding the lone survivor leaves nothing.
  EXPECT_FALSE(pool.pick(std::vector<char>{1, 0}).has_value());
}

TEST(RemoteFailure, ClassifiesTransportBusyAndFatal) {
  using shard::remote::FailureKind;
  using shard::remote::classifyFailure;
  EXPECT_EQ(classifyFailure("connect to 127.0.0.1:1 failed: refused"),
            FailureKind::EndpointDown);
  EXPECT_EQ(classifyFailure("read timed out after 30s"),
            FailureKind::EndpointDown);
  EXPECT_EQ(classifyFailure("SUBMIT rejected: ERR QUEUE_FULL queue full"),
            FailureKind::EndpointBusy);
  EXPECT_EQ(classifyFailure("SUBMIT rejected: ERR SHUTTING_DOWN bye"),
            FailureKind::EndpointBusy);
  EXPECT_EQ(classifyFailure("SUBMIT rejected: ERR BAD_JOB no such strategy"),
            FailureKind::Fatal);
  EXPECT_EQ(classifyFailure("UPLOAD rejected: ERR TOO_LARGE frame"),
            FailureKind::Fatal);
}

// ---------------------------------------------------------------------------
// @shard manifest sugar
// ---------------------------------------------------------------------------

TEST(ShardDirective, DesugarsIntoTheShardedStrategy) {
  const engine::ManifestEntry entry = engine::parseManifestLine(
      "synth mc3 chains=2 @shard=3x1 @halo=4 @iters=500 @label=demo");
  EXPECT_EQ(entry.strategy, "sharded");
  EXPECT_EQ(entry.label, "demo");
  ASSERT_TRUE(entry.iterations.has_value());
  EXPECT_EQ(*entry.iterations, 500u);
  const std::vector<std::string> expected = {"tiles=3x1", "halo=4",
                                             "strategy=mc3",
                                             "inner.chains=2"};
  EXPECT_EQ(entry.options, expected);
}

TEST(ShardDirective, HaloRequiresShardAndShardRejectsSharded) {
  EXPECT_THROW((void)engine::parseManifestLine("synth serial @halo=4"),
               engine::EngineError);
  EXPECT_THROW((void)engine::parseManifestLine("synth sharded @shard=2x2"),
               engine::EngineError);
  EXPECT_THROW((void)engine::parseManifestLine("synth serial @shard=2y2"),
               engine::EngineError);
  // Over-range tile counts are an EngineError like any other bad grammar —
  // front-ends reply BAD_JOB instead of dying on std::out_of_range.
  EXPECT_THROW(
      (void)engine::parseManifestLine("synth serial @shard=99999999999x2"),
      engine::EngineError);
}

TEST(RadiusDirective, OverridesThePriorPerJob) {
  const engine::ManifestEntry entry =
      engine::parseManifestLine("synth serial @radius=12.5");
  ASSERT_TRUE(entry.radius.has_value());
  EXPECT_DOUBLE_EQ(*entry.radius, 12.5);
  EXPECT_FALSE(engine::parseManifestLine("synth serial").radius.has_value());
  EXPECT_THROW((void)engine::parseManifestLine("synth serial @radius=0"),
               engine::EngineError);
  EXPECT_THROW((void)engine::parseManifestLine("synth serial @radius=-3"),
               engine::EngineError);
  EXPECT_THROW((void)engine::parseManifestLine("synth serial @radius=big"),
               engine::EngineError);
}

// ---------------------------------------------------------------------------
// The "sharded" strategy through the registry
// ---------------------------------------------------------------------------

img::Scene shardScene() {
  return img::generateScene(img::cellScene(96, 96, 6, 8.0, 17));
}

engine::Problem shardProblem(const img::Scene& scene) {
  engine::Problem problem;
  problem.filtered = &scene.image;
  problem.prior.radiusMean = 8.0;
  problem.prior.radiusStd = 1.0;
  problem.prior.radiusMin = 4.0;
  problem.prior.radiusMax = 14.0;
  return problem;
}

TEST(ShardedStrategy, RejectsBadOptionsAtCreation) {
  const engine::StrategyRegistry& registry =
      engine::StrategyRegistry::builtin();
  EXPECT_TRUE(registry.contains("sharded"));
  EXPECT_THROW((void)registry.create("sharded", {}, {"tiles=banana"}),
               engine::EngineError);
  // Rejected at admission, not after an int cast wrapped negative at run
  // time on a worker.
  EXPECT_THROW((void)registry.create("sharded", {}, {"halo=3000000000"}),
               engine::EngineError);
  EXPECT_THROW((void)registry.create("sharded", {}, {"backend=carrier"}),
               engine::EngineError);
  EXPECT_THROW((void)registry.create("sharded", {}, {"backend=socket"}),
               engine::EngineError);  // endpoints required
  EXPECT_THROW((void)registry.create("sharded", {},
                                     {"backend=socket", "endpoints=nope"}),
               engine::EngineError);
  EXPECT_THROW((void)registry.create("sharded", {}, {"strategy=sharded"}),
               engine::EngineError);  // no recursive sharding
  EXPECT_THROW((void)registry.create("sharded", {}, {"bogus=1"}),
               engine::EngineError);
  // Inner options are validated against the inner strategy at creation.
  EXPECT_THROW((void)registry.create("sharded", {},
                                     {"strategy=serial", "inner.lanes=2"}),
               engine::EngineError);
  EXPECT_NO_THROW((void)registry.create(
      "sharded", {}, {"strategy=speculative", "inner.lanes=2"}));
}

TEST(ShardedStrategy, LocalBackendMergesTilesIntoOneReport) {
  const img::Scene scene = shardScene();
  const engine::Engine engine(engine::ExecResources{2, false, 21});
  const engine::RunReport report =
      engine.run("sharded", shardProblem(scene), engine::RunBudget{8000, 0},
                 {}, {"tiles=2x2", "halo=12", "min-tile-iters=500"});

  EXPECT_EQ(report.strategy, "sharded");
  EXPECT_FALSE(report.cancelled);
  EXPECT_GE(report.iterations, 8000u);
  EXPECT_GT(report.circles.size(), 2u);
  EXPECT_LT(report.circles.size(), 12u);
  EXPECT_GT(report.logPosterior, 0.0);

  const auto& extras = std::get<shard::ShardReport>(report.extras);
  EXPECT_EQ(extras.gridX, 2);
  EXPECT_EQ(extras.gridY, 2);
  EXPECT_EQ(extras.halo, 12);
  EXPECT_EQ(extras.backend, "local");
  EXPECT_EQ(extras.innerStrategy, "serial");
  ASSERT_EQ(extras.tiles.size(), 4u);
  std::uint64_t tileIters = 0;
  std::size_t kept = 0;
  for (const shard::TileRun& tile : extras.tiles) {
    EXPECT_TRUE(tile.error.empty());
    EXPECT_GE(tile.circlesFound, tile.circlesKept);
    tileIters += tile.iterations;
    kept += tile.circlesKept;
  }
  EXPECT_EQ(tileIters, report.iterations);
  EXPECT_EQ(kept, report.circles.size());
  // Every merged circle is inside the image and owned by exactly one core.
  for (const model::Circle& circle : report.circles) {
    int owners = 0;
    for (const shard::TileRun& tile : extras.tiles) {
      owners += tile.spec.ownsCentre(circle) ? 1 : 0;
    }
    EXPECT_EQ(owners, 1);
  }
}

TEST(ShardedStrategy, FixedExpectedCountScalesToTileAreaShare) {
  // With estimateCount off, the caller's whole-image count prior must be
  // split across tiles, not copied — four tiles each expecting all six
  // circles would over-detect dramatically.
  const img::Scene scene = shardScene();
  engine::Problem problem = shardProblem(scene);
  problem.estimateCount = false;
  problem.prior.expectedCount = 6.0;
  const engine::Engine engine(engine::ExecResources{2, false, 11});
  const engine::RunReport report =
      engine.run("sharded", problem, engine::RunBudget{8000, 0}, {},
                 {"tiles=2x2", "halo=12", "min-tile-iters=500"});
  EXPECT_FALSE(report.cancelled);
  EXPECT_GT(report.circles.size(), 2u);
  EXPECT_LT(report.circles.size(), 12u);
}

TEST(ShardedStrategy, SameSeedSameMergedCircles) {
  const img::Scene scene = shardScene();
  const engine::Engine engine(engine::ExecResources{2, false, 33});
  const std::vector<std::string> options = {"tiles=2x2", "halo=12",
                                            "min-tile-iters=500"};
  const engine::RunReport a = engine.run(
      "sharded", shardProblem(scene), engine::RunBudget{4000, 0}, {}, options);
  const engine::RunReport b = engine.run(
      "sharded", shardProblem(scene), engine::RunBudget{4000, 0}, {}, options);
  ASSERT_EQ(a.circles.size(), b.circles.size());
  for (std::size_t i = 0; i < a.circles.size(); ++i) {
    EXPECT_EQ(a.circles[i], b.circles[i]) << i;
  }
  EXPECT_DOUBLE_EQ(a.logPosterior, b.logPosterior);
}

TEST(ShardedStrategy, CancellationBeforeStartYieldsCancelledReport) {
  const img::Scene scene = shardScene();
  const engine::Engine engine(engine::ExecResources{2, false, 5});
  engine::RunHooks hooks;
  hooks.cancelRequested = [] { return true; };
  const engine::RunReport report =
      engine.run("sharded", shardProblem(scene), engine::RunBudget{4000, 0},
                 hooks, {"tiles=2x2"});
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.iterations, 0u);
}

TEST(ShardedStrategy, SocketBackendRoundTripsThroughALiveServer) {
  serve::ServerOptions serverOptions;
  serverOptions.threads = 2;
  serverOptions.radius = 8.0;
  serve::Server server(serverOptions);
  serve::SocketFrontend socket(server, 0);

  const img::Scene scene = shardScene();
  const engine::Engine engine(engine::ExecResources{2, false, 7});
  const engine::RunReport report = engine.run(
      "sharded", shardProblem(scene), engine::RunBudget{4000, 0}, {},
      {"tiles=2x1", "halo=12", "min-tile-iters=500", "backend=socket",
       "endpoints=127.0.0.1:" + std::to_string(socket.port())});

  EXPECT_FALSE(report.cancelled);
  EXPECT_GT(report.circles.size(), 1u);
  const auto& extras = std::get<shard::ShardReport>(report.extras);
  EXPECT_EQ(extras.backend, "socket");
  ASSERT_EQ(extras.tiles.size(), 2u);
  for (const shard::TileRun& tile : extras.tiles) {
    EXPECT_TRUE(tile.error.empty()) << tile.error;
    EXPECT_GT(tile.iterations, 0u);
  }
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.jobs.done, 2u);

  socket.stop();
  server.shutdown(5.0);
}

TEST(ShardedStrategy, SocketBackendMatchesLocalBackendBitExactly) {
  // The binary data plane closes the fidelity gap: float32 frames carry the
  // coordinator's crop pixels exactly, the %.17g prior directives carry its
  // prior exactly, and @seed pins the tile chains — so for a default-theta
  // default-likelihood problem the socket backend must reproduce the local
  // backend circle-for-circle, not just statistically.
  serve::ServerOptions serverOptions;
  serverOptions.threads = 2;
  serve::Server server(serverOptions);
  serve::SocketFrontend socket(server, 0);

  const img::Scene scene = shardScene();
  const engine::Engine engine(engine::ExecResources{2, false, 7});
  const std::vector<std::string> common = {"tiles=2x1", "halo=12",
                                           "min-tile-iters=500"};
  std::vector<std::string> viaSocket = common;
  viaSocket.push_back("backend=socket");
  viaSocket.push_back("endpoints=127.0.0.1:" +
                      std::to_string(socket.port()));

  const engine::RunReport local = engine.run(
      "sharded", shardProblem(scene), engine::RunBudget{4000, 0}, {}, common);
  const engine::RunReport remote =
      engine.run("sharded", shardProblem(scene), engine::RunBudget{4000, 0},
                 {}, viaSocket);

  ASSERT_EQ(local.circles.size(), remote.circles.size());
  for (std::size_t i = 0; i < local.circles.size(); ++i) {
    EXPECT_EQ(local.circles[i], remote.circles[i]) << i;
  }
  EXPECT_DOUBLE_EQ(local.logPosterior, remote.logPosterior);
  EXPECT_EQ(local.iterations, remote.iterations);

  // A caller-fixed count: the forwarded @count= carries each tile's
  // area-share scaling at %.17g, so the remote tiles still match exactly.
  engine::Problem fixedCount = shardProblem(scene);
  fixedCount.estimateCount = false;
  fixedCount.prior.expectedCount = 6.0;
  const engine::RunReport localFixed = engine.run(
      "sharded", fixedCount, engine::RunBudget{4000, 0}, {}, common);
  const engine::RunReport remoteFixed = engine.run(
      "sharded", fixedCount, engine::RunBudget{4000, 0}, {}, viaSocket);
  ASSERT_EQ(localFixed.circles.size(), remoteFixed.circles.size());
  for (std::size_t i = 0; i < localFixed.circles.size(); ++i) {
    EXPECT_EQ(localFixed.circles[i], remoteFixed.circles[i]) << i;
  }
  EXPECT_DOUBLE_EQ(localFixed.logPosterior, remoteFixed.logPosterior);

  socket.stop();
  server.shutdown(5.0);
}

TEST(ShardedStrategy, BothBackendsBeatProgressInIterations) {
  // One unit for every driver (mcmc::RunProgress counts logical
  // iterations): each resolved tile adds its budget, so a local and a
  // socket run of one problem beat monotonically up to the same
  // (sum of budgets, sum of budgets).
  serve::ServerOptions serverOptions;
  serverOptions.threads = 2;
  serve::Server server(serverOptions);
  serve::SocketFrontend socket(server, 0);

  const img::Scene scene = shardScene();
  const engine::Engine engine(engine::ExecResources{2, false, 7});
  const std::vector<std::string> common = {"tiles=2x2", "halo=12",
                                           "min-tile-iters=500"};
  std::vector<std::string> viaSocket = common;
  viaSocket.push_back("backend=socket");
  viaSocket.push_back("endpoints=127.0.0.1:" +
                      std::to_string(socket.port()));

  for (const std::vector<std::string>& options : {common, viaSocket}) {
    std::vector<engine::RunProgress> beats;
    engine::RunHooks hooks;
    hooks.onProgress = [&](const engine::RunProgress& p) {
      beats.push_back(p);
    };
    const engine::RunReport report =
        engine.run("sharded", shardProblem(scene),
                   engine::RunBudget{4000, 0}, hooks, options);
    ASSERT_EQ(beats.size(), 4u);  // one per resolved tile
    for (std::size_t i = 0; i < beats.size(); ++i) {
      EXPECT_STREQ(beats[i].phase, "shard");
      EXPECT_EQ(beats[i].total, report.iterations);  // serial: = budgets
      if (i > 0) {
        EXPECT_GT(beats[i].done, beats[i - 1].done);
      }
    }
    EXPECT_EQ(beats.back().done, beats.back().total);
  }

  socket.stop();
  server.shutdown(5.0);
}

TEST(ShardedStrategy, SocketBackendFailsLoudlyOnDeadEndpoint) {
  const img::Scene scene = shardScene();
  const engine::Engine engine(engine::ExecResources{1, false, 7});
  EXPECT_THROW(
      (void)engine.run("sharded", shardProblem(scene),
                       engine::RunBudget{500, 0}, {},
                       {"tiles=1x1", "backend=socket", "timeout=2",
                        "endpoints=127.0.0.1:1"}),
      engine::EngineError);
}

TEST(ShardedStrategy, FatalRejectionCancelsHealthySiblingTiles) {
  // Endpoint A is healthy; endpoint B's image cache is too small for any
  // tile frame, so its UPLOAD replies ERR TOO_LARGE — a deterministic
  // (Fatal) rejection that must doom the run and cancel the sibling tile
  // already running on A after a cancel quantum, not after its (enormous)
  // full budget. A requeue onto A would be wrong: TOO_LARGE is the
  // coordinator's mistake, not B's.
  serve::ServerOptions optionsA;
  optionsA.threads = 2;
  serve::Server serverA(optionsA);
  serve::SocketFrontend socketA(serverA, 0);
  serve::ServerOptions optionsB;
  optionsB.threads = 2;
  optionsB.cacheBytes = 64;  // no tile frame fits
  serve::Server serverB(optionsB);
  serve::SocketFrontend socketB(serverB, 0);

  const img::Scene scene = shardScene();
  const engine::Engine engine(engine::ExecResources{2, false, 7});
  // Weighted least-loaded placement: tile 0 lands on A (listed first),
  // tile 1 on the still-idle B.
  EXPECT_THROW(
      (void)engine.run("sharded", shardProblem(scene),
                       engine::RunBudget{400000000, 0}, {},
                       {"tiles=2x1", "backend=socket", "timeout=30",
                        "endpoints=127.0.0.1:" +
                            std::to_string(socketA.port()) + ",127.0.0.1:" +
                            std::to_string(socketB.port())}),
      engine::EngineError);
  const serve::ServerStats statsA = serverA.stats();
  EXPECT_EQ(statsA.jobs.done, 0u);
  EXPECT_EQ(statsA.jobs.cancelled, 1u);
  EXPECT_EQ(serverB.stats().jobs.submitted, 0u);

  socketA.stop();
  serverA.shutdown(5.0);
  socketB.stop();
  serverB.shutdown(5.0);
}

TEST(ShardedStrategy, DeadEndpointMidRunRequeuesTilesOntoSurvivor) {
  // Two endpoints take two tiles; endpoint B is stopped while its tile is
  // still running. The coordinator must classify the broken WAIT as
  // EndpointDown, mark B dead and requeue the tile onto A — completing the
  // run with every tile accounted for and the requeue visible in the
  // ShardReport.
  serve::ServerOptions options;
  options.threads = 2;
  serve::Server serverA(options);
  serve::SocketFrontend socketA(serverA, 0);
  auto serverB = std::make_unique<serve::Server>(options);
  auto socketB = std::make_unique<serve::SocketFrontend>(*serverB, 0);

  const img::Scene scene = shardScene();
  const std::uint16_t portB = socketB->port();
  std::atomic<bool> killed{false};
  std::thread killer([&] {
    // Wait until B has real work, then kill it mid-flight.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (std::chrono::steady_clock::now() < deadline) {
      if (serverB->stats().jobs.running > 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    socketB->stop();
    serverB->shutdown(0.0);
    socketB.reset();
    serverB.reset();
    killed = true;
  });

  const engine::Engine engine(engine::ExecResources{2, false, 7});
  const engine::RunReport report = engine.run(
      "sharded", shardProblem(scene), engine::RunBudget{600000, 0}, {},
      {"tiles=2x1", "halo=12", "min-tile-iters=500", "backend=socket",
       "timeout=15",
       "endpoints=127.0.0.1:" + std::to_string(socketA.port()) +
           ",127.0.0.1:" + std::to_string(portB)});
  killer.join();
  ASSERT_TRUE(killed.load());

  EXPECT_FALSE(report.cancelled);
  const auto& extras = std::get<shard::ShardReport>(report.extras);
  ASSERT_EQ(extras.tiles.size(), 2u);
  for (const shard::TileRun& tile : extras.tiles) {
    EXPECT_TRUE(tile.error.empty()) << tile.error;
    EXPECT_GT(tile.iterations, 0u);
    // Every survivor ran on A by the end.
    EXPECT_EQ(tile.endpoint,
              "127.0.0.1:" + std::to_string(socketA.port()));
  }
  EXPECT_GE(extras.requeues, 1u);
  EXPECT_EQ(extras.endpointsDead, 1u);

  socketA.stop();
  serverA.shutdown(5.0);
}

}  // namespace
}  // namespace mcmcpar
