#pragma once

#include "img/image.hpp"

namespace mcmcpar::img {

/// Binary threshold: output 1.0f where intensity > theta, else 0.0f.
/// This is the filter of eq. (5) in the paper (theta = 0.5 in §IX).
[[nodiscard]] ImageF threshold(const ImageF& image, float theta);

/// Count of pixels strictly above theta (the numerator of eq. 5).
[[nodiscard]] std::size_t countAboveThreshold(const ImageF& image, float theta) noexcept;

/// Count of pixels above theta inside the rectangle [x0,x0+w) x [y0,y0+h).
[[nodiscard]] std::size_t countAboveThreshold(const ImageF& image, float theta,
                                              int x0, int y0, int w, int h) noexcept;

}  // namespace mcmcpar::img
