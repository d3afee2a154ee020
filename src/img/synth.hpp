#pragma once

#include <cstdint>
#include <vector>

#include "img/image.hpp"

namespace mcmcpar::img {

/// A ground-truth artifact in a synthetic scene.
struct SceneCircle {
  double x = 0.0;
  double y = 0.0;
  double r = 0.0;
};

/// A clump of artifacts, for beads-style clustered scenes: `count` circles
/// scattered in the rectangle [x0, x0+w) x [y0, y0+h) with an overlap knob.
struct ClusterSpec {
  double x0 = 0.0;
  double y0 = 0.0;
  double w = 0.0;
  double h = 0.0;
  int count = 0;
  /// 0 => centres at least 2r apart (disjoint discs); 1 => unconstrained.
  double overlapFraction = 0.0;
};

/// Parameters of the synthetic scene generator.
///
/// The generator substitutes for the paper's micrographs, which the repo
/// does not have: it renders soft-edged bright discs on a dark background,
/// adds an optional illumination gradient and Gaussian pixel noise, and
/// returns the ground truth so experiments can score precision/recall.
struct SceneSpec {
  int width = 512;
  int height = 512;

  /// Number of circles for the uniform layout (ignored when clusters given).
  int count = 150;
  double radiusMean = 10.0;
  double radiusStd = 1.0;

  /// Minimum centre separation as a multiple of the radius sum for the
  /// uniform layout (1.0 => tangent circles allowed, 0 => no constraint).
  double minSeparationFactor = 1.0;

  /// When non-empty, circles are laid out cluster-by-cluster instead.
  std::vector<ClusterSpec> clusters;

  float foreground = 0.85f;  ///< disc peak intensity
  float background = 0.10f;  ///< base intensity
  float noiseStd = 0.04f;    ///< additive Gaussian noise sigma
  double edgeSoftness = 1.5; ///< rim ramp width in pixels
  float gradientAmplitude = 0.0f;  ///< slow left-to-right illumination ramp

  std::uint64_t seed = 1;
};

/// A generated scene: the observed image plus its ground truth.
struct Scene {
  ImageF image;
  std::vector<SceneCircle> truth;
};

/// Generate a synthetic scene. Deterministic given the spec (including seed).
[[nodiscard]] Scene generateScene(const SceneSpec& spec);

/// Convenience spec for the paper's §VII workload: `count` cells of mean
/// radius `radius` scattered uniformly over a width x height image.
[[nodiscard]] SceneSpec cellScene(int width, int height, int count,
                                  double radius, std::uint64_t seed);

/// Convenience spec reproducing the Table I beads geometry: a 512 x 416
/// image (2.13e5 px^2) with three full-height clusters of 6 / 38 / 4 beads
/// whose strips have relative areas ~0.147 / 0.624 / 0.226, separated by
/// empty columns so the intelligent partitioner can cut between them.
[[nodiscard]] SceneSpec beadsScene(std::uint64_t seed);

/// Parameters of the synthetic drifting-circles sequence (the microscopy
/// time-lapse stand-in shared by the stream tests, the server's synthetic
/// sequences, mcmcpar_run/mcmcpar_submit and perfbench's serve-mix,
/// instead of checked-in binaries).
struct DriftSpec {
  SceneSpec scene;   ///< frame-0 layout and per-frame rendering knobs
  int frames = 8;
  /// Per-axis, per-frame displacement bound in pixels; each circle gets a
  /// constant velocity drawn uniformly from [-maxSpeed, maxSpeed].
  double maxSpeed = 1.5;
};

/// Generate a frame sequence: frame 0 is exactly generateScene(spec.scene);
/// later frames move each circle by its constant velocity (reflecting off
/// the image border) and re-render with frame-specific noise. Fully
/// deterministic given the spec — same spec, same frames, bit for bit.
[[nodiscard]] std::vector<Scene> generateDriftingSequence(
    const DriftSpec& spec);

}  // namespace mcmcpar::img
