#pragma once

#include <span>

#include "img/image.hpp"
#include "model/configuration.hpp"
#include "model/likelihood.hpp"
#include "model/prior.hpp"

namespace mcmcpar::model {

/// Axis-aligned rectangle in global image coordinates, [x0, x1) x [y0, y1).
struct Bounds {
  double x0 = 0.0;
  double y0 = 0.0;
  double x1 = 0.0;
  double y1 = 0.0;

  [[nodiscard]] double width() const noexcept { return x1 - x0; }
  [[nodiscard]] double height() const noexcept { return y1 - y0; }

  /// True when the whole disc of c lies strictly inside, shrunk by `margin`.
  [[nodiscard]] bool containsDisc(const Circle& c, double margin = 0.0) const noexcept {
    return c.x - c.r >= x0 + margin && c.x + c.r <= x1 - margin &&
           c.y - c.r >= y0 + margin && c.y + c.r <= y1 - margin;
  }
};

/// The complete Markov-chain state: circle configuration, prior, and
/// incremental likelihood over one image region.
///
/// ModelState is the single mutation point for the chain: read-only `delta*`
/// evaluations feed Metropolis-Hastings ratios, and `commit*` operations
/// apply an accepted move while keeping the cached log-posterior, the
/// coverage raster and the spatial grid synchronised.
///
/// A ModelState may cover a crop of a larger image (intelligent/blind
/// partitioning, split/merge periodic phases); circle coordinates are always
/// global, and `bounds()` reflects the crop.
class ModelState {
 public:
  /// State over `filtered` (a stain-emphasised intensity image). The domain
  /// starts at global pixel (originX, originY).
  ModelState(const img::ImageF& filtered, const PriorParams& prior,
             const LikelihoodParams& likelihood, int originX = 0,
             int originY = 0);

  /// State with an already-cropped likelihood (split/merge executor).
  ModelState(PixelLikelihood likelihood, const PriorParams& prior);

  [[nodiscard]] const Configuration& config() const noexcept { return config_; }
  [[nodiscard]] const CirclePrior& prior() const noexcept { return prior_; }
  [[nodiscard]] const PixelLikelihood& likelihood() const noexcept {
    return likelihood_;
  }
  [[nodiscard]] Bounds bounds() const noexcept { return bounds_; }

  /// Cached log-posterior (log prior + log likelihood), maintained
  /// incrementally across commits.
  [[nodiscard]] double logPosterior() const noexcept { return logPosterior_; }

  /// Full recompute of the log-posterior (O(pixels + n)); tests compare it
  /// with the cached value, long runs may call it to cancel drift.
  [[nodiscard]] double recomputeLogPosterior() const;

  /// Recompute caches in place (posterior value and covered-gain raster sum).
  void resynchronise();

  /// True when the disc lies fully inside the domain (positions outside are
  /// prior-invalid; proposal code never generates them).
  [[nodiscard]] bool discInDomain(const Circle& c) const noexcept {
    return bounds_.containsDisc(c);
  }

  // --- read-only move evaluation (Delta log-posterior) ---------------------

  [[nodiscard]] double deltaAdd(const Circle& c) const;
  [[nodiscard]] double deltaDelete(CircleId id) const;
  [[nodiscard]] double deltaReplace(CircleId id, const Circle& c) const;
  [[nodiscard]] double deltaMerge(CircleId a, CircleId b, const Circle& m) const;
  [[nodiscard]] double deltaSplit(CircleId id, const Circle& c1,
                                  const Circle& c2) const;

  // --- commits --------------------------------------------------------------

  CircleId commitAdd(const Circle& c);
  void commitDelete(CircleId id);
  void commitReplace(CircleId id, const Circle& c);
  /// Merge a and b into m; returns the id of m.
  CircleId commitMerge(CircleId a, CircleId b, const Circle& m);
  /// Split id into c1 and c2; returns the id of c2 (c1 keeps `id`'s slot? no:
  /// id is erased; both c1 and c2 get fresh ids, returned as a pair).
  std::pair<CircleId, CircleId> commitSplit(CircleId id, const Circle& c1,
                                            const Circle& c2);

  // --- executor API (safety margin: partition/legality.hpp) ---------------
  // The periodic executors need finer-grained access: the in-place executor
  // commits replaces from worker threads accumulating scalar deltas locally,
  // and the split/merge executor writes back geometry whose likelihood
  // effect was already absorbed through PixelLikelihood::absorbCrop.
  // External synchronisation is the caller's responsibility.

  /// Non-const configuration (executor use only).
  [[nodiscard]] Configuration& configMutable() noexcept { return config_; }
  /// Non-const likelihood (executor use only).
  [[nodiscard]] PixelLikelihood& likelihoodMutable() noexcept {
    return likelihood_;
  }
  /// Replace geometry without touching the likelihood raster or the cached
  /// posterior (split/merge write-back; the deltas arrive via
  /// `adjustLogPosterior` + `PixelLikelihood::absorbCrop`).
  void replaceGeometryOnly(CircleId id, const Circle& c) {
    config_.replace(id, c);
  }
  /// Fold an externally computed posterior delta into the cache.
  void adjustLogPosterior(double delta) noexcept { logPosterior_ += delta; }

  /// Seed the state with an initial random configuration of `count` circles
  /// drawn from the prior (uniform positions, prior radii clamped to the
  /// domain). This is the paper's "random configuration ... used as the
  /// initial state of the Markov Chain".
  void initialiseRandom(std::size_t count, rng::Stream& stream);

 private:
  CirclePrior prior_;
  PixelLikelihood likelihood_;
  Bounds bounds_;
  Configuration config_;
  double logPosterior_ = 0.0;
};

}  // namespace mcmcpar::model
