#pragma once

// Shared setup for the figure/table reproduction benches. Each bench binary
// regenerates one artefact of the paper's evaluation and prints the
// paper-vs-measured values. All benches accept:
//   --paper-scale   full 1024x1024 / 500k-iteration workloads (§VII scale)
//   --runs=N        repetition count where averaging applies
//   --seed=N        master seed

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "img/synth.hpp"
#include "mcmc/move_registry.hpp"
#include "model/posterior.hpp"
#include "rng/stream.hpp"

namespace bench {

struct Options {
  bool paperScale = false;
  int runs = 0;  // 0 = bench default
  std::uint64_t seed = 1;
};

inline Options parseOptions(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--paper-scale") == 0) {
      opt.paperScale = true;
    } else if (std::strncmp(argv[i], "--runs=", 7) == 0) {
      opt.runs = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      opt.seed = static_cast<std::uint64_t>(std::atoll(argv[i] + 7));
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
    }
  }
  return opt;
}

/// The §VII workload: a size x size image with `cells` nuclei of mean
/// radius 10 (paper: 1024x1024, 150 cells).
struct CellWorkload {
  mcmcpar::img::Scene scene;
  mcmcpar::model::PriorParams prior;
  mcmcpar::model::LikelihoodParams likelihood;
  std::uint64_t iterations;
};

inline CellWorkload makeCellWorkload(const Options& opt) {
  const int size = opt.paperScale ? 1024 : 384;
  const int cells = opt.paperScale ? 150 : 40;
  CellWorkload w{
      mcmcpar::img::generateScene(
          mcmcpar::img::cellScene(size, size, cells, 10.0, opt.seed)),
      {},
      {},
      opt.paperScale ? 500000ULL : 60000ULL};
  w.prior.expectedCount = cells;
  w.prior.radiusMean = 10.0;
  w.prior.radiusStd = 1.2;
  w.prior.radiusMin = 4.0;
  w.prior.radiusMax = 18.0;
  return w;
}

inline mcmcpar::model::ModelState makeState(const CellWorkload& w,
                                            std::uint64_t seed) {
  mcmcpar::model::ModelState state(w.scene.image, w.prior, w.likelihood);
  mcmcpar::rng::Stream stream(seed);
  state.initialiseRandom(
      static_cast<std::size_t>(w.prior.expectedCount + 0.5), stream);
  return state;
}

}  // namespace bench
