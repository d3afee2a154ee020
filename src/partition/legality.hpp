#pragma once

#include <vector>

#include "mcmc/move.hpp"
#include "model/posterior.hpp"

namespace mcmcpar::partition {

/// Ids of the circles that may legally be modified inside a partition: the
/// disc, expanded by the constraint margin, lies strictly inside the
/// partition rectangle (the §V rule). O(n) over alive circles.
[[nodiscard]] std::vector<model::CircleId> modifiableCircles(
    const model::ModelState& state, const mcmc::RegionConstraint& rc);

/// Count only (used for iteration allocation without materialising lists).
[[nodiscard]] std::size_t modifiableCount(const model::ModelState& state,
                                          const mcmc::RegionConstraint& rc);

/// The paper allocates each Ml phase's iterations to partitions "in the same
/// proportion as the number of model features ... that may be legitimately
/// modified". Largest-remainder apportionment of `total` over `counts`;
/// returns one iteration count per partition summing exactly to `total`
/// (all zero when no partition has a modifiable feature).
[[nodiscard]] std::vector<std::uint64_t> allocateIterations(
    std::uint64_t total, const std::vector<std::size_t>& counts);

/// Safety margin for the in-place executor: modifiable circles must be far
/// enough from partition boundaries that concurrent phases touch disjoint
/// spatial-grid buckets and never read each other's geometry (torn reads).
/// The required bound is margin > radiusMax/2 + cellSize; twice the cell
/// size satisfies it with headroom.
[[nodiscard]] double inPlaceSafetyMargin(const model::ModelState& state);

}  // namespace mcmcpar::partition
