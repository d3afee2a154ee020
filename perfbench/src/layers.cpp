// Direct probes of single layers, timed from outside through each layer's
// public functions on inputs made from the seed. Every traced run takes
// these metrics from here and from nowhere else.

#include "analysis/matching.hpp"
#include "img/pnm_io.hpp"
#include "mcmc/move_registry.hpp"
#include "mcmc/sampler.hpp"
#include "par/thread_pool.hpp"
#include "serve/protocol.hpp"
#include "shard/remote.hpp"
#include "shard/stitcher.hpp"
#include "stream/tracker.hpp"
#include "common.hpp"

namespace perfbench {

using namespace mcmcpar;

namespace {

/// Median seconds of `repeats` calls of `fn`.
template <typename Fn>
double medianSeconds(int repeats, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    times.push_back(since(t0));
  }
  return median(times);
}

std::vector<model::Circle> circlesOf(const std::vector<img::SceneCircle>& truth) {
  std::vector<model::Circle> circles;
  for (const img::SceneCircle& t : truth) circles.push_back({t.x, t.y, t.r});
  return circles;
}

/// model and mcmc: state construction, then τ and acceptance per move type
/// and the delta costs on a state warmed by a serial chain.
void probeSampling(const img::Scene& scene, std::uint64_t seed,
                   Metrics& out) {
  model::PriorParams prior;
  prior.expectedCount = 150;
  prior.radiusMean = 10.0;
  prior.radiusStd = 1.2;
  prior.radiusMin = 4.0;
  prior.radiusMax = 18.0;
  const model::LikelihoodParams likelihood;
  rng::Stream stream(seed);

  std::optional<model::ModelState> state;
  {
    Trace::Scope span("model", "state build");
    out.set("model.state_build_ms", 1e3 * medianSeconds(3, [&] {
              state.emplace(scene.image, prior, likelihood);
              state->initialiseRandom(150, stream);
            }),
            "ms");
  }
  const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy();
  {
    Trace::Scope span("mcmc", "warm");
    mcmc::Sampler warm(*state, registry, stream.derive(1));
    (void)warm.run(100000);
  }

  const mcmc::SelectionContext whole;
  for (std::size_t m = 0; m < registry.size(); ++m) {
    const mcmc::Move& move = registry.at(m);
    Trace::Scope span("mcmc", std::string("attemptMove ") + move.name());
    constexpr int kAttempts = 2000;
    int accepted = 0;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kAttempts; ++i) {
      accepted += mcmc::attemptMove(*state, move, whole, stream).accepted;
    }
    out.set(std::string("mcmc.tau_us.") + move.name(),
            1e6 * since(t0) / kAttempts, "us");
    out.set(std::string("mcmc.accept.") + move.name(),
            static_cast<double>(accepted) / kAttempts, "ratio");
  }

  Trace::Scope span("model", "delta");
  constexpr int kCalls = 2000;
  const model::Bounds bounds = state->bounds();
  const std::vector<model::CircleId>& alive = state->config().aliveIds();
  double sink = 0.0;
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    const double r = stream.uniform(6.0, 14.0);
    sink += state->deltaAdd({stream.uniform(bounds.x0 + r, bounds.x1 - r),
                             stream.uniform(bounds.y0 + r, bounds.y1 - r), r});
  }
  out.set("model.delta_us.add", 1e6 * since(t0) / kCalls, "us");
  t0 = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    sink += state->deltaDelete(alive[stream.below(alive.size())]);
  }
  out.set("model.delta_us.delete", 1e6 * since(t0) / kCalls, "us");
  t0 = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    const model::CircleId id = alive[stream.below(alive.size())];
    model::Circle c = state->config().get(id);
    c.r = std::clamp(c.r + stream.uniform(-0.5, 0.5), 4.0, 18.0);
    if (state->discInDomain(c)) sink += state->deltaReplace(id, c);
  }
  out.set("model.delta_us.replace", 1e6 * since(t0) / kCalls, "us");
  out.set("model.resync_ms",
          1e3 * medianSeconds(5, [&] { state->resynchronise(); }), "ms");
  out.set("model.recompute_ms", 1e3 * medianSeconds(5, [&] {
            sink += state->recomputeLogPosterior();
          }),
          "ms");
  if (sink == 0.125) std::fprintf(stderr, "\n");  // keep the calls alive
}

void probeRngAndPar(std::uint64_t seed, Metrics& out) {
  {
    Trace::Scope span("rng", "uniform draws");
    rng::Stream stream(seed);
    constexpr int kDraws = 4'000'000;
    double sink = 0.0;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kDraws; ++i) sink += stream.uniform();
    out.set("rng.draw_ns", 1e9 * since(t0) / kDraws, "ns");
    if (sink < 0.0) std::fprintf(stderr, "\n");
  }
  Trace::Scope span("par", "parallelFor");
  par::ThreadPool pool(3);  // + the calling thread = 4
  constexpr int kCalls = 2000;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kCalls; ++i) pool.parallelFor(4, [](std::size_t) {});
  out.set("par.parallel_for_us", 1e6 * since(t0) / kCalls, "us");
}

/// stream: the tracker over the ground truth of a drifting sequence.
void probeTracker(std::uint64_t seed, Metrics& out) {
  Trace::Scope span("stream", "Tracker::update");
  img::DriftSpec spec;
  spec.scene = img::cellScene(512, 512, 60, 8.0, seed);
  spec.frames = 8;
  std::vector<std::vector<model::Circle>> frames;
  for (const img::Scene& frame : img::generateDriftingSequence(spec)) {
    frames.push_back(circlesOf(frame.truth));
  }
  constexpr int kPasses = 50;
  std::size_t tracks = 0;
  const Clock::time_point t0 = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    stream::Tracker tracker;
    for (std::size_t k = 0; k < frames.size(); ++k) {
      (void)tracker.update(k, frames[k]);
    }
    tracks = tracker.tracks().size();
  }
  out.set("stream.tracker_update_us",
          1e6 * since(t0) / (kPasses * static_cast<double>(frames.size())),
          "us");
  out.set("stream.tracks", static_cast<double>(tracks), "count");
}

/// img, shard: PGM decode, the stitcher and the REPORT parser on the scene.
void probeCodecs(const img::Scene& scene, const Options& options,
                 Metrics& out) {
  {
    Trace::Scope span("img", "readPgm");
    const std::string path = options.outDir + "/probe.pgm";
    img::writePgm(img::toU8(scene.image.crop(0, 0, 256, 256)), path);
    out.set("img.pgm_decode_ms",
            1e3 * medianSeconds(20, [&] { (void)img::readPgm(path); }), "ms");
  }
  const std::vector<model::Circle> truth = circlesOf(scene.truth);
  {
    Trace::Scope span("shard", "stitchCircles");
    const shard::TileGrid grid = shard::makeTileGrid(
        scene.image.width(), scene.image.height(), 3, 3, 16);
    std::vector<std::vector<model::Circle>> perTile(grid.tiles.size());
    for (std::size_t t = 0; t < grid.tiles.size(); ++t) {
      const partition::IRect& h = grid.tiles[t].halo;
      for (const model::Circle& c : truth) {
        if (c.x >= h.x0 && c.x < h.x0 + h.w && c.y >= h.y0 && c.y < h.y0 + h.h) {
          perTile[t].push_back(c);
        }
      }
    }
    out.set("shard.stitch_ms", 1e3 * medianSeconds(20, [&] {
              (void)shard::stitchCircles(grid, perTile);
            }),
            "ms");
  }
  Trace::Scope span("shard", "parseReportJson");
  serve::JobStatus status;
  status.id = 1;
  status.state = serve::JobState::Done;
  status.image = "probe";
  status.strategy = "serial";
  engine::RunReport report;
  report.strategy = "serial";
  report.iterations = 200000;
  report.circles = truth;
  const std::string json = serve::protocol::reportJson(status, report);
  out.set("shard.report_parse_ms", 1e3 * medianSeconds(50, [&] {
            (void)shard::remote::parseReportJson(json);
          }),
          "ms");
}

}  // namespace

void probeLayers(const Options& options, Metrics& layers) {
  Metrics probed;
  img::Scene scene;
  {
    Trace::Scope span("img", "generateScene");
    const Clock::time_point t0 = Clock::now();
    scene = makeScene(1024, 1024, 150, 10.0, deriveSeed(options.seed, 1));
    probed.set("img.scene_gen_s", since(t0), "s");
  }
  probeSampling(scene, deriveSeed(options.seed, 2), probed);
  probeRngAndPar(deriveSeed(options.seed, 3), probed);
  probeTracker(deriveSeed(options.seed, 4), probed);
  probeCodecs(scene, options, probed);
  layers.merge(probed);
}

}  // namespace perfbench
