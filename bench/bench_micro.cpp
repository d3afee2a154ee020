// MICRO — google-benchmark microbenchmarks of the substrates the paper's
// per-iteration cost model (tauG, tauL) is made of: incremental likelihood
// deltas, spatial-grid neighbour queries, RNG throughput, disc rasterising,
// and the split/merge crop transfer that dominates periodic overhead.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "core/split_merge.hpp"
#include "img/disc_raster.hpp"
#include "img/synth.hpp"
#include "mcmc/sampler.hpp"
#include "model/likelihood_kernels.hpp"
#include "model/posterior.hpp"
#include "obs/metrics.hpp"
#include "rng/distributions.hpp"
#include "rng/stream.hpp"

using namespace mcmcpar;

namespace {

model::PriorParams microPrior() {
  model::PriorParams p;
  p.expectedCount = 60.0;
  p.radiusMean = 10.0;
  p.radiusStd = 1.2;
  p.radiusMin = 4.0;
  p.radiusMax = 18.0;
  return p;
}

model::ModelState microState(int size, int circles, std::uint64_t seed) {
  static std::map<std::tuple<int, int, std::uint64_t>, img::Scene> cache;
  auto key = std::make_tuple(size, circles, seed);
  if (!cache.count(key)) {
    cache[key] =
        img::generateScene(img::cellScene(size, size, circles, 10.0, seed));
  }
  model::ModelState state(cache[key].image, microPrior(),
                          model::LikelihoodParams{});
  rng::Stream s(seed + 1);
  state.initialiseRandom(static_cast<std::size_t>(circles), s);
  return state;
}

void BM_XoshiroThroughput(benchmark::State& state) {
  rng::Stream s(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.bits());
  }
}
BENCHMARK(BM_XoshiroThroughput);

void BM_NormalDraw(benchmark::State& state) {
  rng::Stream s(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.normal());
  }
}
BENCHMARK(BM_NormalDraw);

void BM_AliasTableSample(benchmark::State& state) {
  const rng::AliasTable table({0.08, 0.08, 0.08, 0.08, 0.08, 0.3, 0.3});
  rng::Stream s(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.sample(s));
  }
}
BENCHMARK(BM_AliasTableSample);

void BM_DiscIteration(benchmark::State& state) {
  const double r = static_cast<double>(state.range(0));
  double sum = 0.0;
  for (auto _ : state) {
    img::forEachDiscPixel(64.5, 64.5, r, 128, 128,
                          [&](int x, int y) { sum += x + y; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(3.14159 * r * r));
}
BENCHMARK(BM_DiscIteration)->Arg(5)->Arg(10)->Arg(20);

// --- CI regression gate pairs ----------------------------------------------
// Each *PerPixel512 benchmark reproduces the pre-span hot path (per-pixel
// callback, one branch and one serial accumulate per pixel); the matching
// *Span512 benchmark runs today's row-span kernel on the identical 512x512
// workload. tools/check_bench_micro.py gates CI on the in-run speedup ratio
// of each pair, which is machine-independent, instead of absolute times.

struct GateWorkload {
  img::ImageF gain{512, 512};
  img::Image<std::uint16_t> cov{512, 512, 0};
  std::vector<model::Circle> probes;
};

const GateWorkload& gateWorkload() {
  static const GateWorkload w = [] {
    GateWorkload out;
    rng::Stream s(29);
    for (float& v : out.gain.pixels()) {
      v = static_cast<float>(s.uniform(-4.0, 4.0));
    }
    // Half the raster pre-covered so the cov==0 branch is exercised both ways.
    for (int i = 0; i < 40; ++i) {
      img::forEachDiscSpan(s.uniform(0, 512), s.uniform(0, 512),
                           s.uniform(15, 40), 512, 512,
                           [&](int y, int x0, int x1) {
                             std::uint16_t* row = out.cov.row(y);
                             for (int x = x0; x < x1; ++x) ++row[x];
                           });
    }
    for (int i = 0; i < 64; ++i) {
      out.probes.push_back(model::Circle{s.uniform(20, 492),
                                         s.uniform(20, 492), 32.0});
    }
    return out;
  }();
  return w;
}

std::int64_t gateDiscPixels(const GateWorkload& w) {
  std::int64_t pixels = 0;
  for (const model::Circle& c : w.probes) {
    pixels += static_cast<std::int64_t>(
        img::discPixelCount(c.x, c.y, c.r, 512, 512));
  }
  return pixels;
}

void BM_GainAccumPerPixel512(benchmark::State& state) {
  const GateWorkload& w = gateWorkload();
  double sum = 0.0;
  for (auto _ : state) {
    for (const model::Circle& c : w.probes) {
      img::forEachDiscPixel(c.x, c.y, c.r, 512, 512, [&](int x, int y) {
        sum += w.cov(x, y) == 0 ? static_cast<double>(w.gain(x, y)) : 0.0;
      });
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * gateDiscPixels(w));
}
BENCHMARK(BM_GainAccumPerPixel512);

void BM_GainAccumSpan512(benchmark::State& state) {
  const GateWorkload& w = gateWorkload();
  double sum = 0.0;
  for (auto _ : state) {
    for (const model::Circle& c : w.probes) {
      img::forEachDiscSpan(c.x, c.y, c.r, 512, 512,
                           [&](int y, int x0, int x1) {
                             sum += model::kernels::spanDeltaAdd(
                                 w.gain.row(y) + x0, w.cov.row(y) + x0,
                                 static_cast<std::size_t>(x1 - x0));
                           });
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * gateDiscPixels(w));
}
BENCHMARK(BM_GainAccumSpan512);

// Instrumented twin of BM_GainAccumSpan512: the identical kernel plus the
// metrics a serving hot path records per probe — one counter add and one
// histogram observe against pointer-stable handles, the pattern the
// instrumented layers use. tools/check_bench_micro.py caps the allowed
// slowdown of this pair so registry overhead cannot creep into the hot path.
void BM_GainAccumSpan512Obs(benchmark::State& state) {
  const GateWorkload& w = gateWorkload();
  static obs::Registry registry;
  obs::Counter& probeCount = registry.counter(
      "mcmcpar_bench_probes_total", "Probes accumulated by the obs gate.");
  obs::Histogram& probeSeconds = registry.histogram(
      "mcmcpar_bench_probe_seconds", "Synthetic per-probe latency.",
      obs::latencyBuckets());
  double sum = 0.0;
  for (auto _ : state) {
    for (const model::Circle& c : w.probes) {
      img::forEachDiscSpan(c.x, c.y, c.r, 512, 512,
                           [&](int y, int x0, int x1) {
                             sum += model::kernels::spanDeltaAdd(
                                 w.gain.row(y) + x0, w.cov.row(y) + x0,
                                 static_cast<std::size_t>(x1 - x0));
                           });
      probeCount.add();
      probeSeconds.observe(1.5e-4);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * gateDiscPixels(w));
}
BENCHMARK(BM_GainAccumSpan512Obs);

void BM_ResyncPerPixel512(benchmark::State& state) {
  const GateWorkload& w = gateWorkload();
  for (auto _ : state) {
    double total = 0.0;
    for (int y = 0; y < 512; ++y) {
      for (int x = 0; x < 512; ++x) {
        total += w.cov(x, y) > 0 ? static_cast<double>(w.gain(x, y)) : 0.0;
      }
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * 512 * 512);
}
BENCHMARK(BM_ResyncPerPixel512);

void BM_ResyncSpan512(benchmark::State& state) {
  const GateWorkload& w = gateWorkload();
  for (auto _ : state) {
    model::kernels::KahanSum total;
    for (int y = 0; y < 512; ++y) {
      total.add(model::kernels::spanSumCovered(w.gain.row(y), w.cov.row(y),
                                               512));
    }
    benchmark::DoNotOptimize(total.value());
  }
  state.SetItemsProcessed(state.iterations() * 512 * 512);
}
BENCHMARK(BM_ResyncSpan512);

void BM_LikelihoodDeltaAdd(benchmark::State& state) {
  model::ModelState s = microState(256, 30, 11);
  rng::Stream stream(12);
  for (auto _ : state) {
    const model::Circle c{stream.uniform(20, 236), stream.uniform(20, 236),
                          10.0};
    benchmark::DoNotOptimize(s.likelihood().deltaAdd(c));
  }
}
BENCHMARK(BM_LikelihoodDeltaAdd);

void BM_LikelihoodDeltaReplace(benchmark::State& state) {
  model::ModelState s = microState(256, 30, 13);
  rng::Stream stream(14);
  const auto ids = s.config().aliveIds();
  for (auto _ : state) {
    const model::CircleId id = ids[stream.below(ids.size())];
    model::Circle c = s.config().get(id);
    c.x += stream.normal(0, 2.0);
    c.y += stream.normal(0, 2.0);
    benchmark::DoNotOptimize(s.deltaReplace(id, c));
  }
}
BENCHMARK(BM_LikelihoodDeltaReplace);

// Gate pair for the replace-move delta (move-centre, resize and replace all
// use it): the reference is the two-pass deltaReplace the one-pass version
// replaced — each disc's rows walked separately, every span and cut
// computed afresh, one kernel dispatch per span — and the candidate is
// PixelLikelihood::deltaReplace, on the same state and move sequence. The
// two return identical bits (test_likelihood pins that).

template <typename Kernel>
double twoPassOutsideCut(const float* gainRow, const std::uint16_t* covRow,
                         int x0, int x1, img::RowSpan cut, Kernel&& kernel) {
  const bool haveCut = cut.x0 < cut.x1;
  const int leftEnd = haveCut ? std::clamp(cut.x0, x0, x1) : x1;
  const int rightBegin = haveCut ? std::clamp(cut.x1, x0, x1) : x1;
  double delta = 0.0;
  if (x0 < leftEnd) {
    delta += kernel(gainRow + x0, covRow + x0,
                    static_cast<std::size_t>(leftEnd - x0));
  }
  if (rightBegin < x1) {
    delta += kernel(gainRow + rightBegin, covRow + rightBegin,
                    static_cast<std::size_t>(x1 - rightBegin));
  }
  return delta;
}

double twoPassDeltaReplace(const model::PixelLikelihood& lik,
                           const model::Circle& oldC,
                           const model::Circle& newC) {
  const img::ImageF& gain = lik.gainRaster();
  const img::Image<std::uint16_t>& coverage = lik.coverageRaster();
  const double ox = oldC.x - lik.originX();
  const double oy = oldC.y - lik.originY();
  const double nx = newC.x - lik.originX();
  const double ny = newC.y - lik.originY();
  const int width = gain.width();
  double delta = 0.0;
  img::forEachDiscSpan(nx, ny, newC.r, width, gain.height(),
                       [&](int y, int x0, int x1) {
                         delta += twoPassOutsideCut(
                             gain.row(y), coverage.row(y), x0, x1,
                             img::discRowSpan(ox, oy, oldC.r, y, width),
                             model::kernels::spanDeltaAdd);
                       });
  img::forEachDiscSpan(ox, oy, oldC.r, width, gain.height(),
                       [&](int y, int x0, int x1) {
                         delta += twoPassOutsideCut(
                             gain.row(y), coverage.row(y), x0, x1,
                             img::discRowSpan(nx, ny, newC.r, y, width),
                             model::kernels::spanDeltaRemove);
                       });
  return delta;
}

/// Times `deltaReplace(lik, old, new)` over small moves of the state's
/// circles (the move-centre proposal's shape).
template <typename DeltaReplace>
void runDeltaReplacePair(benchmark::State& state, DeltaReplace&& deltaReplace) {
  const model::ModelState s = microState(256, 30, 13);
  rng::Stream stream(14);
  const auto ids = s.config().aliveIds();
  for (auto _ : state) {
    const model::Circle c = s.config().get(ids[stream.below(ids.size())]);
    const model::Circle moved{c.x + stream.normal(0, 2.0),
                              c.y + stream.normal(0, 2.0), c.r};
    benchmark::DoNotOptimize(deltaReplace(s.likelihood(), c, moved));
  }
}

void BM_LikelihoodDeltaReplaceTwoPass(benchmark::State& state) {
  runDeltaReplacePair(state, twoPassDeltaReplace);
}
BENCHMARK(BM_LikelihoodDeltaReplaceTwoPass);

void BM_LikelihoodDeltaReplaceOnePass(benchmark::State& state) {
  runDeltaReplacePair(state, [](const model::PixelLikelihood& lik,
                                const model::Circle& oldC,
                                const model::Circle& newC) {
    return lik.deltaReplace(oldC, newC);
  });
}
BENCHMARK(BM_LikelihoodDeltaReplaceOnePass);

// Gate pair for the batched row geometry: the reference computes each
// disc's row spans one img::discRowSpan at a time, the candidate with one
// SpanKernels::discRows call per disc, on the same r~10 discs of a 256x256
// raster. The two write identical spans (test_likelihood_kernels pins that).

struct GeometryDisc {
  double cx, cy, r;
  img::RowRange rows;
};

const std::vector<GeometryDisc>& geometryDiscs() {
  static const std::vector<GeometryDisc> discs = [] {
    rng::Stream s(31);
    std::vector<GeometryDisc> out;
    for (int i = 0; i < 256; ++i) {
      const double cy = s.uniform(12, 244);
      const double r = s.normal(10.0, 1.2);
      out.push_back({s.uniform(12, 244), cy, r, img::discRowRange(cy, r, 256)});
    }
    return out;
  }();
  return discs;
}

template <typename DiscRows>
void runDiscRowsPair(benchmark::State& state, DiscRows&& discRows) {
  const std::vector<GeometryDisc>& discs = geometryDiscs();
  std::vector<img::RowSpan> spans(256);
  for (auto _ : state) {
    for (const GeometryDisc& d : discs) {
      discRows(d, spans.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(discs.size()));
}

void BM_DiscRowsPerRow(benchmark::State& state) {
  runDiscRowsPair(state, [](const GeometryDisc& d, img::RowSpan* out) {
    for (int y = d.rows.y0; y <= d.rows.y1; ++y) {
      out[y - d.rows.y0] = img::discRowSpan(d.cx, d.cy, d.r, y, 256);
    }
  });
}
BENCHMARK(BM_DiscRowsPerRow);

void BM_DiscRowsBatched(benchmark::State& state) {
  const model::kernels::SpanKernels& k = model::kernels::spanKernels();
  runDiscRowsPair(state, [&k](const GeometryDisc& d, img::RowSpan* out) {
    k.discRows(d.cx, d.cy, d.r, d.rows, 256, out);
  });
}
BENCHMARK(BM_DiscRowsBatched);

void BM_FullPosteriorRecompute(benchmark::State& state) {
  model::ModelState s = microState(256, 30, 15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.recomputeLogPosterior());
  }
}
BENCHMARK(BM_FullPosteriorRecompute);

void BM_NeighbourQuery(benchmark::State& state) {
  model::ModelState s = microState(512, static_cast<int>(state.range(0)), 17);
  rng::Stream stream(18);
  for (auto _ : state) {
    std::size_t n = 0;
    s.config().forEachNeighbour(stream.uniform(0, 512), stream.uniform(0, 512),
                                24.0,
                                [&](model::CircleId, const model::Circle&) {
                                  ++n;
                                });
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_NeighbourQuery)->Arg(50)->Arg(200);

void BM_SequentialIteration(benchmark::State& state) {
  model::ModelState s = microState(384, 40, 19);
  const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy();
  mcmc::Sampler sampler(s, registry, 20);
  for (auto _ : state) {
    sampler.step();
  }
  state.SetLabel("one RJ-MCMC iteration (tau of §VI)");
}
BENCHMARK(BM_SequentialIteration);

// Gate pair for the sampler step: BM_SamplerStep512 is Sampler::step() on a
// 512x512 state; the reference twin drives the same moves on the same state
// and seed without the Diagnostics::record call, so both time a prefix of
// the same chain and the ratio isolates the per-step bookkeeping.
// tools/check_bench_micro.py caps the allowed slowdown so per-iteration
// string building cannot creep back into the step.

void BM_SamplerStep512Ref(benchmark::State& state) {
  model::ModelState s = microState(512, 60, 25);
  const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy();
  rng::Stream stream(26);
  const mcmc::SelectionContext ctx{};
  for (auto _ : state) {
    const mcmc::Move& move = registry.sampleAny(stream);
    benchmark::DoNotOptimize(mcmc::attemptMove(s, move, ctx, stream));
  }
}
BENCHMARK(BM_SamplerStep512Ref);

void BM_SamplerStep512(benchmark::State& state) {
  model::ModelState s = microState(512, 60, 25);
  const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy();
  mcmc::Sampler sampler(s, registry, 26);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.step());
  }
}
BENCHMARK(BM_SamplerStep512);

// Gate pair for the deferred exact delta: both drive the case-study moves
// from the same seed on the same warmed 374x374 tile of the §VII scene (a
// shard-socket tile). BM_SamplerStepTile is Sampler::step(), which rejects
// most proposals on their prefix-sum estimate; the reference refines every
// proposal to its exact delta before deciding, which is the exact-delta
// cost plus the estimate it discards. Both record Diagnostics, so they
// time the same chain and differ only in the refinement.

model::ModelState tileState(const mcmc::MoveRegistry& registry) {
  static const img::Scene scene =
      img::generateScene(img::cellScene(1024, 1024, 150, 10.0, 27));
  model::PriorParams prior;
  prior.expectedCount = 20.0;
  model::ModelState s(scene.image.crop(325, 325, 374, 374), prior,
                      model::LikelihoodParams{}, 325, 325);
  rng::Stream init(28);
  s.initialiseRandom(20, init);
  mcmc::Sampler warm(s, registry, 29);
  (void)warm.run(20000);
  return s;
}

void BM_SamplerStepTileRef(benchmark::State& state) {
  const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy();
  model::ModelState s = tileState(registry);
  mcmc::Diagnostics diagnostics;
  rng::Stream stream(30);
  const mcmc::SelectionContext ctx{};
  for (auto _ : state) {
    const mcmc::Move& move = registry.sampleAny(stream);
    mcmc::PendingMove pending = move.propose(s, ctx, stream);
    mcmc::refine(s, pending);
    const bool accepted = mcmc::acceptAndCommit(s, pending, stream);
    diagnostics.record(move.name(), accepted);
    benchmark::DoNotOptimize(accepted);
  }
}
BENCHMARK(BM_SamplerStepTileRef);

void BM_SamplerStepTile(benchmark::State& state) {
  const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy();
  model::ModelState s = tileState(registry);
  mcmc::Sampler sampler(s, registry, 30);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.step());
  }
}
BENCHMARK(BM_SamplerStepTile);

void BM_SubStateBuildMerge(benchmark::State& state) {
  model::ModelState s = microState(512, 60, 21);
  const int half = 256;
  for (auto _ : state) {
    core::SubState sub =
        core::buildSubState(s, partition::IRect{0, 0, half, 512}, 0.0);
    benchmark::DoNotOptimize(core::mergeSubState(s, sub));
  }
  state.SetLabel("split+merge of a 256x512 partition (periodic overhead)");
}
BENCHMARK(BM_SubStateBuildMerge);

void BM_CropTransfer(benchmark::State& state) {
  const img::Scene scene =
      img::generateScene(img::cellScene(512, 512, 60, 10.0, 23));
  model::PixelLikelihood lik(scene.image, model::LikelihoodParams{});
  for (auto _ : state) {
    model::PixelLikelihood crop = lik.crop(0, 0, 256, 512);
    lik.absorbCrop(crop);
    benchmark::DoNotOptimize(lik.coveredGain());
  }
}
BENCHMARK(BM_CropTransfer);

}  // namespace
