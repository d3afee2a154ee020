// The streaming frame-sequence subsystem (src/stream): disc-IoU matching,
// the deterministic cross-frame Tracker, the synthetic drifting-circles
// generator, SequenceRunner determinism and cancellation, the @sequence /
// @warm-start / @track manifest directives, and the warm-start acceptance
// band — a warm-started frame must reach the detection band in at most
// half the iterations a cold start needs.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "analysis/matching.hpp"
#include "analysis/metrics.hpp"
#include "engine/registry.hpp"
#include "img/synth.hpp"
#include "serve/job_line.hpp"
#include "stream/sequence.hpp"
#include "stream/tracker.hpp"

namespace fs = std::filesystem;

namespace mcmcpar {
namespace {

std::vector<model::Circle> toCircles(const std::vector<img::SceneCircle>& in) {
  std::vector<model::Circle> out;
  out.reserve(in.size());
  for (const img::SceneCircle& c : in) out.push_back({c.x, c.y, c.r});
  return out;
}

// ---------------------------------------------------------------------------
// Disc IoU and IoU matching
// ---------------------------------------------------------------------------

TEST(Matching, CircleIoUIdenticalDisjointAndPartial) {
  const model::Circle a{10.0, 10.0, 5.0};
  EXPECT_DOUBLE_EQ(analysis::circleIoU(a, a), 1.0);
  EXPECT_DOUBLE_EQ(analysis::circleIoU(a, {30.0, 10.0, 5.0}), 0.0);
  const double partial = analysis::circleIoU(a, {12.0, 10.0, 5.0});
  EXPECT_GT(partial, 0.0);
  EXPECT_LT(partial, 1.0);
  // Symmetric.
  EXPECT_DOUBLE_EQ(partial, analysis::circleIoU({12.0, 10.0, 5.0}, a));
}

TEST(Matching, IoUMatchingPairsGreedilyAndReportsLeftovers) {
  const std::vector<model::Circle> truth{{10, 10, 5}, {40, 40, 5}};
  const std::vector<model::Circle> found{
      {41, 40, 5},    // matches truth[1]
      {10.5, 10, 5},  // matches truth[0]
      {80, 80, 5},    // false positive
  };
  const analysis::IouMatchResult result =
      analysis::matchCirclesIoU(found, truth, 0.25);
  ASSERT_EQ(result.matches.size(), 2u);
  for (const analysis::IouMatch& m : result.matches) {
    if (m.truthIndex == 0) {
      EXPECT_EQ(m.foundIndex, 1u);
    }
    if (m.truthIndex == 1) {
      EXPECT_EQ(m.foundIndex, 0u);
    }
    EXPECT_GE(m.iou, 0.25);
  }
  ASSERT_EQ(result.unmatchedFound.size(), 1u);
  EXPECT_EQ(result.unmatchedFound[0], 2u);
  EXPECT_TRUE(result.unmatchedTruth.empty());
}

TEST(Matching, IoUGateExcludesWeakOverlaps) {
  const std::vector<model::Circle> truth{{10, 10, 5}};
  const std::vector<model::Circle> found{{18, 10, 5}};  // slivers of overlap
  const analysis::IouMatchResult strict =
      analysis::matchCirclesIoU(found, truth, 0.5);
  EXPECT_TRUE(strict.matches.empty());
  EXPECT_EQ(strict.unmatchedFound.size(), 1u);
  EXPECT_EQ(strict.unmatchedTruth.size(), 1u);
}

// ---------------------------------------------------------------------------
// Tracker
// ---------------------------------------------------------------------------

TEST(Tracker, AssignsStableIdsAcrossFrames) {
  stream::Tracker tracker(0.25);

  const stream::Tracker::FrameUpdate f0 =
      tracker.update(0, {{10, 10, 5}, {30, 30, 5}});
  EXPECT_EQ(f0.born, 2u);
  EXPECT_EQ(f0.ended, 0u);
  ASSERT_EQ(f0.ids.size(), 2u);
  EXPECT_EQ(f0.ids[0], 1u);
  EXPECT_EQ(f0.ids[1], 2u);

  // Object 1 drifts one pixel, object 2 vanishes, a new object appears.
  const stream::Tracker::FrameUpdate f1 =
      tracker.update(1, {{11, 10, 5}, {60, 60, 5}});
  EXPECT_EQ(f1.born, 1u);
  EXPECT_EQ(f1.ended, 1u);
  ASSERT_EQ(f1.ids.size(), 2u);
  EXPECT_EQ(f1.ids[0], 1u);  // the drifting disc keeps its id
  EXPECT_EQ(f1.ids[1], 3u);  // the newcomer gets the next fresh id
  EXPECT_EQ(tracker.activeTracks(), 2u);

  const std::vector<stream::TrackSummary> tracks = tracker.tracks();
  ASSERT_EQ(tracks.size(), 3u);
  EXPECT_EQ(tracks[0].id, 1u);
  EXPECT_EQ(tracks[0].firstFrame, 0u);
  EXPECT_EQ(tracks[0].lastFrame, 1u);
  EXPECT_EQ(tracks[0].length(), 2u);
  EXPECT_EQ(tracks[1].id, 2u);
  EXPECT_EQ(tracks[1].lastFrame, 0u);
  EXPECT_EQ(tracks[2].id, 3u);
  EXPECT_EQ(tracks[2].firstFrame, 1u);
}

TEST(Tracker, IsDeterministicForTheSameDetectionSequence) {
  const std::vector<std::vector<model::Circle>> frames{
      {{10, 10, 5}, {30, 30, 5}, {50, 50, 5}},
      {{11, 11, 5}, {31, 29, 5}},
      {{12, 12, 5}, {70, 70, 5}, {32, 28, 5}},
  };
  stream::Tracker a(0.25), b(0.25);
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const auto ua = a.update(k, frames[k]);
    const auto ub = b.update(k, frames[k]);
    EXPECT_EQ(ua.ids, ub.ids);
    EXPECT_EQ(ua.born, ub.born);
    EXPECT_EQ(ua.ended, ub.ended);
  }
  const auto ta = a.tracks();
  const auto tb = b.tracks();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].id, tb[i].id);
    EXPECT_EQ(ta[i].firstFrame, tb[i].firstFrame);
    EXPECT_EQ(ta[i].lastFrame, tb[i].lastFrame);
  }
}

// ---------------------------------------------------------------------------
// Drifting-circles sequence generator
// ---------------------------------------------------------------------------

TEST(DriftingSequence, FrameZeroMatchesGenerateSceneExactly) {
  img::DriftSpec spec;
  spec.scene = img::cellScene(64, 64, 4, 8.0, 7);
  spec.frames = 3;
  const std::vector<img::Scene> frames = img::generateDriftingSequence(spec);
  ASSERT_EQ(frames.size(), 3u);

  const img::Scene base = img::generateScene(spec.scene);
  ASSERT_EQ(frames[0].image.width(), base.image.width());
  ASSERT_EQ(frames[0].image.height(), base.image.height());
  EXPECT_EQ(frames[0].image.pixels(), base.image.pixels());
}

TEST(DriftingSequence, IsBitIdenticalAcrossCallsAndMovesTheTruth) {
  img::DriftSpec spec;
  spec.scene = img::cellScene(64, 64, 4, 8.0, 11);
  spec.frames = 4;
  const std::vector<img::Scene> a = img::generateDriftingSequence(spec);
  const std::vector<img::Scene> b = img::generateDriftingSequence(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].truth.size(), b[k].truth.size());
    for (std::size_t i = 0; i < a[k].truth.size(); ++i) {
      EXPECT_EQ(a[k].truth[i].x, b[k].truth[i].x);
      EXPECT_EQ(a[k].truth[i].y, b[k].truth[i].y);
      EXPECT_EQ(a[k].truth[i].r, b[k].truth[i].r);
    }
    ASSERT_EQ(a[k].image.pixels(), b[k].image.pixels());
  }

  // Motion actually happens: at least one circle moved between frames.
  bool moved = false;
  for (std::size_t i = 0; i < a[0].truth.size(); ++i) {
    moved |= a[0].truth[i].x != a[1].truth[i].x ||
             a[0].truth[i].y != a[1].truth[i].y;
  }
  EXPECT_TRUE(moved);

  // The drift stays within the per-frame speed bound (modulo reflection).
  for (std::size_t i = 0; i < a[0].truth.size(); ++i) {
    EXPECT_LE(std::abs(a[1].truth[i].x - a[0].truth[i].x),
              spec.maxSpeed + 1e-9);
    EXPECT_LE(std::abs(a[1].truth[i].y - a[0].truth[i].y),
              spec.maxSpeed + 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Frame-list helpers
// ---------------------------------------------------------------------------

TEST(FrameHelpers, ParseFrameCountAcceptsOnlyPositiveDecimals) {
  EXPECT_EQ(stream::parseFrameCount("8"), 8u);
  EXPECT_EQ(stream::parseFrameCount("123456789"), 123456789u);
  EXPECT_FALSE(stream::parseFrameCount("0").has_value());
  EXPECT_FALSE(stream::parseFrameCount("").has_value());
  EXPECT_FALSE(stream::parseFrameCount("12x").has_value());
  EXPECT_FALSE(stream::parseFrameCount("-3").has_value());
  EXPECT_FALSE(stream::parseFrameCount("frames/*.pgm").has_value());
  EXPECT_FALSE(stream::parseFrameCount("1234567890").has_value());  // > 9 digits
}

TEST(FrameHelpers, GlobExpandsSortedAndPassesPlainPathsThrough) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("mcmcpar_stream_glob_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  for (const char* name : {"f2.pgm", "f0.pgm", "f1.pgm", "other.txt"}) {
    std::ofstream(dir / name) << "x";
  }

  const std::vector<std::string> matches =
      stream::expandFrameGlob((dir / "f*.pgm").string());
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(fs::path(matches[0]).filename(), "f0.pgm");
  EXPECT_EQ(fs::path(matches[1]).filename(), "f1.pgm");
  EXPECT_EQ(fs::path(matches[2]).filename(), "f2.pgm");

  const std::vector<std::string> plain =
      stream::expandFrameGlob((dir / "f0.pgm").string());
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_EQ(plain[0], (dir / "f0.pgm").string());

  EXPECT_TRUE(stream::expandFrameGlob("/no/such/dir/*.pgm").empty());
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Manifest directives
// ---------------------------------------------------------------------------

TEST(Manifest, SequenceDirectivesParse) {
  const serve::JobSpec entry = serve::parseManifestLine(
      "synth serial @sequence=8 @warm-start=1 @track=0 @iters=500");
  EXPECT_EQ(entry.sequence, "8");
  ASSERT_TRUE(entry.warmStart.has_value());
  EXPECT_TRUE(*entry.warmStart);
  ASSERT_TRUE(entry.track.has_value());
  EXPECT_FALSE(*entry.track);

  const serve::JobSpec glob =
      serve::parseManifestLine("frames/*.pgm serial @sequence=frames/*.pgm");
  EXPECT_EQ(glob.sequence, "frames/*.pgm");
  EXPECT_FALSE(glob.warmStart.has_value());
  EXPECT_FALSE(glob.track.has_value());
}

TEST(Manifest, SequenceDirectiveValidation) {
  // @warm-start / @track are sequence modifiers, not standalone knobs.
  EXPECT_THROW((void)serve::parseManifestLine("synth serial @warm-start=1"),
               engine::EngineError);
  EXPECT_THROW((void)serve::parseManifestLine("synth serial @track=0"),
               engine::EngineError);
  // A sequence cannot also be sharded.
  EXPECT_THROW(
      (void)serve::parseManifestLine("synth serial @sequence=4 @shard=2x2"),
      engine::EngineError);
  // An empty value is malformed.
  EXPECT_THROW((void)serve::parseManifestLine("synth serial @sequence="),
               engine::EngineError);
}

// ---------------------------------------------------------------------------
// SequenceRunner
// ---------------------------------------------------------------------------

stream::SequenceSpec synthSequence(int frames, std::uint64_t seed,
                                   std::uint64_t iters, int size = 64,
                                   int cells = 4) {
  img::DriftSpec drift;
  drift.scene = img::cellScene(size, size, cells, 8.0, seed);
  drift.frames = frames;
  std::vector<img::Scene> scenes = img::generateDriftingSequence(drift);

  stream::SequenceSpec spec;
  for (std::size_t k = 0; k < scenes.size(); ++k) {
    spec.frames.push_back(
        {std::make_shared<img::ImageF>(std::move(scenes[k].image)),
         "synth." + std::to_string(k)});
  }
  spec.problem.filtered = spec.frames.front().image.get();
  spec.problem.prior.radiusMean = 8.0;
  spec.problem.prior.radiusStd = 1.0;
  spec.problem.prior.radiusMin = 4.0;
  spec.problem.prior.radiusMax = 14.0;
  spec.budget = engine::RunBudget{iters, 0};
  return spec;
}

TEST(SequenceRunner, RunsEveryFrameAndCarriesWarmStarts) {
  const stream::SequenceSpec spec = synthSequence(3, 21, 800);
  engine::ExecResources resources;
  resources.threads = 1;
  resources.seed = 5;

  std::vector<std::size_t> seenFrames;
  stream::SequenceHooks hooks;
  hooks.onFrame = [&](const stream::FrameResult& frame,
                      const engine::RunReport&) {
    seenFrames.push_back(frame.index);
  };

  const engine::RunReport report =
      stream::SequenceRunner().run(spec, resources, hooks);
  const auto* extras = std::get_if<stream::StreamReport>(&report.extras);
  ASSERT_NE(extras, nullptr);
  ASSERT_EQ(extras->perFrame.size(), 3u);
  EXPECT_EQ(extras->frameCount, 3u);
  EXPECT_EQ(seenFrames, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(report.iterations, 3u * 800u);
  EXPECT_FALSE(report.cancelled);

  // Frame 0 is cold; later frames carry the previous frame's detections.
  EXPECT_EQ(extras->perFrame[0].carried, 0u);
  EXPECT_EQ(extras->perFrame[1].carried, extras->perFrame[0].circles);
  EXPECT_EQ(extras->perFrame[2].carried, extras->perFrame[1].circles);
  EXPECT_FALSE(extras->tracks.empty());
}

TEST(SequenceRunner, SameSeedSameFramesIsBitIdentical) {
  engine::ExecResources resources;
  resources.threads = 1;
  resources.seed = 17;

  const engine::RunReport a =
      stream::SequenceRunner().run(synthSequence(4, 13, 600), resources);
  const engine::RunReport b =
      stream::SequenceRunner().run(synthSequence(4, 13, 600), resources);

  const auto* ea = std::get_if<stream::StreamReport>(&a.extras);
  const auto* eb = std::get_if<stream::StreamReport>(&b.extras);
  ASSERT_NE(ea, nullptr);
  ASSERT_NE(eb, nullptr);
  ASSERT_EQ(ea->perFrame.size(), eb->perFrame.size());
  for (std::size_t k = 0; k < ea->perFrame.size(); ++k) {
    EXPECT_EQ(ea->perFrame[k].iterations, eb->perFrame[k].iterations);
    EXPECT_EQ(ea->perFrame[k].circles, eb->perFrame[k].circles);
    EXPECT_EQ(ea->perFrame[k].carried, eb->perFrame[k].carried);
    // Bit-identical chains, not just statistically similar.
    EXPECT_EQ(ea->perFrame[k].logPosterior, eb->perFrame[k].logPosterior);
    EXPECT_EQ(ea->perFrame[k].acceptanceRate, eb->perFrame[k].acceptanceRate);
  }
  ASSERT_EQ(a.circles.size(), b.circles.size());
  for (std::size_t i = 0; i < a.circles.size(); ++i) {
    EXPECT_EQ(a.circles[i].x, b.circles[i].x);
    EXPECT_EQ(a.circles[i].y, b.circles[i].y);
    EXPECT_EQ(a.circles[i].r, b.circles[i].r);
  }
  ASSERT_EQ(ea->tracks.size(), eb->tracks.size());
  for (std::size_t i = 0; i < ea->tracks.size(); ++i) {
    EXPECT_EQ(ea->tracks[i].id, eb->tracks[i].id);
    EXPECT_EQ(ea->tracks[i].firstFrame, eb->tracks[i].firstFrame);
    EXPECT_EQ(ea->tracks[i].lastFrame, eb->tracks[i].lastFrame);
  }
}

TEST(SequenceRunner, CancelBetweenFramesStopsTheSequence) {
  const stream::SequenceSpec spec = synthSequence(6, 23, 400);
  engine::ExecResources resources;
  resources.threads = 1;

  std::size_t framesDone = 0;
  stream::SequenceHooks hooks;
  hooks.onFrame = [&](const stream::FrameResult&, const engine::RunReport&) {
    ++framesDone;
  };
  hooks.cancelRequested = [&] { return framesDone >= 2; };

  const engine::RunReport report =
      stream::SequenceRunner().run(spec, resources, hooks);
  EXPECT_TRUE(report.cancelled);
  const auto* extras = std::get_if<stream::StreamReport>(&report.extras);
  ASSERT_NE(extras, nullptr);
  EXPECT_LT(extras->perFrame.size(), 6u);
  EXPECT_GE(extras->perFrame.size(), 2u);
}

TEST(SequenceRunner, RejectsEmptyAndUnknownInputs) {
  engine::ExecResources resources;
  stream::SequenceSpec empty;
  EXPECT_THROW((void)stream::SequenceRunner().run(empty, resources),
               engine::EngineError);

  stream::SequenceSpec bogus = synthSequence(2, 3, 100);
  bogus.strategy = "warp";
  EXPECT_THROW((void)stream::SequenceRunner().run(bogus, resources),
               engine::EngineError);

  stream::SequenceSpec nullFrame = synthSequence(2, 3, 100);
  nullFrame.frames[1].image = nullptr;
  EXPECT_THROW((void)stream::SequenceRunner().run(nullFrame, resources),
               engine::EngineError);
}

// ---------------------------------------------------------------------------
// Warm-start equivalence band (the PR's acceptance bar): a warm-started
// frame must reach the detection band in at most half the iterations a
// cold start needs on the same frame with the same seed.
// ---------------------------------------------------------------------------

/// The detection band: every truth circle matched within 3 px and no more
/// than one spurious detection (tight enough that a random initial
/// configuration cannot sit inside it by luck).
bool inBand(const std::vector<model::Circle>& found,
            const std::vector<model::Circle>& truth) {
  const analysis::QualityMetrics score =
      analysis::scoreCircles(found, truth, 3.0);
  return score.falseNegatives == 0 && score.falsePositives <= 1;
}

/// Smallest budget from an ascending ladder whose run lands in the band;
/// 2x the largest rung when none does.
std::uint64_t iterationsToBand(const engine::Problem& problem,
                               const std::vector<model::Circle>& truth,
                               const engine::ExecResources& resources) {
  const engine::Engine eng(resources);
  const std::uint64_t ladder[] = {125,  250,  500,  1000,
                                  2000, 4000, 8000, 16000};
  for (const std::uint64_t budget : ladder) {
    const engine::RunReport report =
        eng.run("serial", problem, engine::RunBudget{budget, 0}, {}, {});
    if (inBand(report.circles, truth)) return budget;
  }
  return 32000;
}

TEST(SequenceRunner, WarmStartReachesTheBandInHalfTheColdIterations) {
  img::DriftSpec drift;
  drift.scene = img::cellScene(160, 160, 10, 9.0, 3);
  drift.frames = 5;
  const std::vector<img::Scene> frames = img::generateDriftingSequence(drift);

  engine::ExecResources resources;
  resources.threads = 1;
  resources.seed = 41;

  engine::Problem problem;
  problem.prior.radiusMean = 9.0;
  problem.prior.radiusStd = 9.0 / 8.0;
  problem.prior.radiusMin = 4.5;
  problem.prior.radiusMax = 16.2;

  // Converge frame 0 from scratch to obtain the warm-start configuration.
  problem.filtered = &frames[0].image;
  const engine::Engine eng(resources);
  const engine::RunReport frame0 =
      eng.run("serial", problem, engine::RunBudget{12000, 0}, {}, {});
  ASSERT_TRUE(inBand(frame0.circles, toCircles(frames[0].truth)))
      << "frame 0 must converge before the warm/cold comparison";

  // Frame 4 drifted up to 4 * maxSpeed pixels per axis from frame 0.
  const std::vector<model::Circle> truth = toCircles(frames[4].truth);
  problem.filtered = &frames[4].image;

  problem.warmStart.clear();
  const std::uint64_t coldIters =
      iterationsToBand(problem, truth, resources);

  problem.warmStart = frame0.circles;
  const std::uint64_t warmIters =
      iterationsToBand(problem, truth, resources);

  ASSERT_LT(warmIters, 32000u) << "warm start never reached the band";
  EXPECT_LE(2 * warmIters, coldIters)
      << "warm=" << warmIters << " cold=" << coldIters;
}

}  // namespace
}  // namespace mcmcpar
