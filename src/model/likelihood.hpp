#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "img/image.hpp"
#include "model/circle.hpp"

namespace mcmcpar::model {

/// Pixel observation model parameters (two-component Gaussian): pixels
/// covered by at least one disc are modelled N(fgMean, sigma^2), uncovered
/// pixels N(bgMean, sigma^2).
struct LikelihoodParams {
  double fgMean = 0.85;
  double bgMean = 0.10;
  double sigma = 0.20;
};

/// Incremental image log-likelihood with a maintained coverage raster.
///
/// log L(config) = sum_p [ covered(p) ? logN(I_p; fg) : logN(I_p; bg) ]
///               = constTerm + sum_{p covered} gain(p)
/// where gain(p) = logN(I_p; fg) - logN(I_p; bg) is precomputed per pixel.
/// A move's delta therefore touches only the discs it changes: O(r^2).
///
/// The raster may be a crop of a larger image: `originX/originY` give the
/// crop's position, and all circle coordinates remain global. The periodic
/// split/merge executor clones crops per partition and folds them back with
/// `absorbCrop`.
///
/// Mutation API: `applyAdd`/`applyRemove` update coverage and RETURN the
/// covered-gain delta without touching the running total; callers accumulate
/// via `adjustCoveredGain`. This split lets the in-place parallel executor
/// accumulate deltas thread-locally (coverage writes are disjoint by the
/// partition legality rules; the scalar total would otherwise be a race).
///
/// Hot path: every method computes a disc's contiguous row spans with one
/// batched geometry call (kernels::SpanKernels::discRows, bit-identical to
/// img::forEachDiscSpan's) and sums each span with the vectorised kernels in
/// model/likelihood_kernels.hpp; deltaReplace computes each disc's spans
/// once and uses them both as that disc's spans and as the other's cuts. The kernels' fixed-lane accumulation makes every delta
/// bit-reproducible across backends (scalar/AVX2) and machines —
/// see the determinism policy in that header.
class PixelLikelihood {
 public:
  PixelLikelihood() = default;

  /// Build over a filtered intensity image (values in [0, 1]).
  PixelLikelihood(const img::ImageF& filtered, const LikelihoodParams& params,
                  int originX = 0, int originY = 0);

  [[nodiscard]] const LikelihoodParams& params() const noexcept { return params_; }
  [[nodiscard]] int originX() const noexcept { return originX_; }
  [[nodiscard]] int originY() const noexcept { return originY_; }
  [[nodiscard]] int width() const noexcept { return gain_.width(); }
  [[nodiscard]] int height() const noexcept { return gain_.height(); }

  /// Current log-likelihood (constant background term + covered gain).
  [[nodiscard]] double logLikelihood() const noexcept {
    return constTerm_ + coveredGain_;
  }
  [[nodiscard]] double coveredGain() const noexcept { return coveredGain_; }

  /// The per-pixel covered gain and coverage-count rasters the span kernels
  /// read, in local (crop) coordinates: for reference implementations.
  [[nodiscard]] const img::ImageF& gainRaster() const noexcept { return gain_; }
  [[nodiscard]] const img::Image<std::uint16_t>& coverageRaster()
      const noexcept {
    return coverage_;
  }

  /// Coverage count at a global pixel coordinate (must be inside the crop).
  [[nodiscard]] std::uint16_t coverageAt(int gx, int gy) const noexcept {
    return coverage_(gx - originX_, gy - originY_);
  }

  // --- read-only move evaluation -----------------------------------------

  /// Delta log-likelihood of adding circle c.
  [[nodiscard]] double deltaAdd(const Circle& c) const noexcept;

  /// Delta of removing a currently applied circle c.
  [[nodiscard]] double deltaRemove(const Circle& c) const noexcept;

  /// Delta of replacing applied `oldC` with `newC` (exact also when the two
  /// discs overlap).
  [[nodiscard]] double deltaReplace(const Circle& oldC, const Circle& newC) const noexcept;

  /// Delta of removing all `removed` (currently applied) and adding all
  /// `added`, evaluated jointly over the union bounding box. Used for
  /// merge (2 removed, 1 added) and split (1 removed, 2 added).
  [[nodiscard]] double deltaMultiple(std::span<const Circle> removed,
                                     std::span<const Circle> added) const noexcept;

  // --- mutation ------------------------------------------------------------

  /// Increment coverage under c; returns the covered-gain delta.
  double applyAdd(const Circle& c) noexcept;

  /// Decrement coverage under c; returns the covered-gain delta (<= 0 terms).
  /// Removing a circle that is not applied is a caller bug: debug builds
  /// assert, release builds clamp the count at zero instead of wrapping the
  /// uint16 to 65535 (which would silently corrupt every subsequent delta).
  double applyRemove(const Circle& c) noexcept;

  /// Fold a delta into the running covered-gain total.
  void adjustCoveredGain(double delta) noexcept { coveredGain_ += delta; }

  /// Recompute the covered-gain total from the coverage raster (removes
  /// floating-point drift after long runs; O(pixels)).
  void resynchronise() noexcept;

  /// Reference value: covered gain recomputed from scratch for the given
  /// circle set (ignores the maintained raster). For tests.
  [[nodiscard]] double referenceCoveredGain(std::span<const Circle> circles) const;

  // --- crop support (split/merge executor) --------------------------------

  /// Clone the axis-aligned subrectangle [gx0, gx0+w) x [gy0, gy0+h) given in
  /// global coordinates (must be inside this raster). The clone keeps global
  /// coordinates and starts with the parent's coverage in that window.
  [[nodiscard]] PixelLikelihood crop(int gx0, int gy0, int w, int h) const;

  /// Write a crop's coverage back into this raster and fold its covered-gain
  /// delta (relative to when the crop was taken) into the running total.
  void absorbCrop(const PixelLikelihood& cropped) noexcept;

  /// Covered-gain change accumulated by this crop since construction.
  [[nodiscard]] double coveredGainDeltaSinceCrop() const noexcept {
    return coveredGain_ - initialCoveredGain_;
  }

 private:
  LikelihoodParams params_;
  int originX_ = 0;
  int originY_ = 0;
  img::ImageF gain_;                   // per-pixel log-lik gain when covered
  img::Image<std::uint16_t> coverage_; // number of discs covering each pixel
  double constTerm_ = 0.0;             // sum of background log-densities
  double coveredGain_ = 0.0;
  double initialCoveredGain_ = 0.0;    // value at construction (crops)
};

}  // namespace mcmcpar::model
