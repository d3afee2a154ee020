#include "partition/grid.hpp"

#include <algorithm>
#include <cmath>

namespace mcmcpar::partition {

GridSpec GridSpec::withRandomOffset(rng::Stream& stream) const {
  GridSpec out = *this;
  out.offsetX = stream.uniform(0.0, spacingX);
  out.offsetY = stream.uniform(0.0, spacingY);
  return out;
}

std::vector<model::Bounds> gridPartitions(const model::Bounds& domain,
                                          const GridSpec& spec) {
  std::vector<double> xs{domain.x0};
  // Grid lines at offsetX + k * spacingX intersecting the domain interior.
  const double firstKx =
      std::ceil((domain.x0 - spec.offsetX) / spec.spacingX);
  for (double k = firstKx;; k += 1.0) {
    const double x = spec.offsetX + k * spec.spacingX;
    if (x >= domain.x1) break;
    if (x > domain.x0) xs.push_back(x);
  }
  xs.push_back(domain.x1);

  std::vector<double> ys{domain.y0};
  const double firstKy =
      std::ceil((domain.y0 - spec.offsetY) / spec.spacingY);
  for (double k = firstKy;; k += 1.0) {
    const double y = spec.offsetY + k * spec.spacingY;
    if (y >= domain.y1) break;
    if (y > domain.y0) ys.push_back(y);
  }
  ys.push_back(domain.y1);

  std::vector<model::Bounds> cells;
  cells.reserve((xs.size() - 1) * (ys.size() - 1));
  for (std::size_t j = 0; j + 1 < ys.size(); ++j) {
    for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
      cells.push_back(model::Bounds{xs[i], ys[j], xs[i + 1], ys[j + 1]});
    }
  }
  return cells;
}

std::vector<model::Bounds> crossPartitions(const model::Bounds& domain,
                                           double crossX, double crossY) {
  crossX = std::clamp(crossX, domain.x0, domain.x1);
  crossY = std::clamp(crossY, domain.y0, domain.y1);
  std::vector<model::Bounds> cells;
  const double xs[3] = {domain.x0, crossX, domain.x1};
  const double ys[3] = {domain.y0, crossY, domain.y1};
  for (int j = 0; j < 2; ++j) {
    for (int i = 0; i < 2; ++i) {
      model::Bounds b{xs[i], ys[j], xs[i + 1], ys[j + 1]};
      if (b.width() > 0.0 && b.height() > 0.0) cells.push_back(b);
    }
  }
  return cells;
}

std::vector<model::Bounds> randomCrossPartitions(const model::Bounds& domain,
                                                 rng::Stream& stream,
                                                 double marginFraction) {
  const double mx = domain.width() * marginFraction;
  const double my = domain.height() * marginFraction;
  const double crossX = stream.uniform(domain.x0 + mx, domain.x1 - mx);
  const double crossY = stream.uniform(domain.y0 + my, domain.y1 - my);
  return crossPartitions(domain, crossX, crossY);
}

std::vector<IRect> tileImage(int width, int height, int gx, int gy) {
  gx = std::max(1, gx);
  gy = std::max(1, gy);
  std::vector<IRect> rects;
  rects.reserve(static_cast<std::size_t>(gx) * gy);
  for (int j = 0; j < gy; ++j) {
    const int y0 = static_cast<int>(static_cast<long long>(height) * j / gy);
    const int y1 =
        static_cast<int>(static_cast<long long>(height) * (j + 1) / gy);
    for (int i = 0; i < gx; ++i) {
      const int x0 = static_cast<int>(static_cast<long long>(width) * i / gx);
      const int x1 =
          static_cast<int>(static_cast<long long>(width) * (i + 1) / gx);
      rects.push_back(IRect{x0, y0, x1 - x0, y1 - y0});
    }
  }
  return rects;
}

IRect roundToPixels(const model::Bounds& b, int imageWidth, int imageHeight) {
  const int x0 =
      std::clamp(static_cast<int>(std::lround(b.x0)), 0, imageWidth);
  const int y0 =
      std::clamp(static_cast<int>(std::lround(b.y0)), 0, imageHeight);
  const int x1 =
      std::clamp(static_cast<int>(std::lround(b.x1)), x0, imageWidth);
  const int y1 =
      std::clamp(static_cast<int>(std::lround(b.y1)), y0, imageHeight);
  return IRect{x0, y0, x1 - x0, y1 - y0};
}

}  // namespace mcmcpar::partition
