#pragma once

// Shared setup for the figure/table reproduction benches. Each bench binary
// regenerates one artefact of the paper's evaluation and prints the
// paper-vs-measured values. All benches accept:
//   --paper-scale   full 1024x1024 / 500k-iteration workloads (§VII scale)
//   --runs=N        repetition count where averaging applies
//   --seed=N        master seed

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
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

/// Parses the shared options. An unknown option or a malformed number
/// prints usage and exits 2 rather than running the default workload;
/// `extraUsage` names the options the calling bench strips off first.
inline Options parseOptions(int argc, char** argv,
                            const char* extraUsage = "") {
  const auto fail = [&](const char* what, const char* arg) {
    std::fprintf(stderr, "%s: %s\nusage: %s %s%s\n", what, arg, argv[0],
                 "[--paper-scale] [--runs=N] [--seed=N]", extraUsage);
    std::exit(2);
  };
  // The whole text after '=' must be a decimal that fits `value`.
  const auto number = [&](const char* arg, auto& value) {
    const char* first = std::strchr(arg, '=') + 1;
    const char* last = first + std::strlen(first);
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || end != last) fail("bad number", arg);
  };
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--paper-scale") == 0) {
      opt.paperScale = true;
    } else if (std::strncmp(argv[i], "--runs=", 7) == 0) {
      number(argv[i], opt.runs);
      if (opt.runs < 0) fail("bad number", argv[i]);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      number(argv[i], opt.seed);
    } else {
      fail("unknown option", argv[i]);
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
