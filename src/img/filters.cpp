#include "img/filters.hpp"

#include <algorithm>

namespace mcmcpar::img {

ImageF threshold(const ImageF& image, float theta) {
  ImageF out(image.width(), image.height());
  for (std::size_t i = 0; i < image.pixelCount(); ++i) {
    out.pixels()[i] = image.pixels()[i] > theta ? 1.0f : 0.0f;
  }
  return out;
}

std::size_t countAboveThreshold(const ImageF& image, float theta) noexcept {
  std::size_t n = 0;
  for (float v : image.pixels()) n += (v > theta);
  return n;
}

std::size_t countAboveThreshold(const ImageF& image, float theta, int x0,
                                int y0, int w, int h) noexcept {
  std::size_t n = 0;
  const int x1 = std::min(x0 + w, image.width());
  const int y1 = std::min(y0 + h, image.height());
  for (int y = std::max(y0, 0); y < y1; ++y) {
    const float* r = image.row(y);
    for (int x = std::max(x0, 0); x < x1; ++x) n += (r[x] > theta);
  }
  return n;
}

}  // namespace mcmcpar::img
