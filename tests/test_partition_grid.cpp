#include <gtest/gtest.h>

#include <cmath>

#include "partition/grid.hpp"

namespace mcmcpar::partition {
namespace {

using model::Bounds;

bool cover(const std::vector<Bounds>& cells, const Bounds& domain,
           double step = 7.3) {
  for (double y = domain.y0 + 0.1; y < domain.y1; y += step) {
    for (double x = domain.x0 + 0.1; x < domain.x1; x += step) {
      int inside = 0;
      for (const Bounds& c : cells) {
        if (x >= c.x0 && x < c.x1 && y >= c.y0 && y < c.y1) ++inside;
      }
      if (inside != 1) return false;
    }
  }
  return true;
}

TEST(GridSpec, RandomOffsetInRange) {
  GridSpec spec;
  spec.spacingX = 100;
  spec.spacingY = 60;
  rng::Stream s(1);
  for (int i = 0; i < 100; ++i) {
    const GridSpec r = spec.withRandomOffset(s);
    EXPECT_GE(r.offsetX, 0.0);
    EXPECT_LT(r.offsetX, 100.0);
    EXPECT_GE(r.offsetY, 0.0);
    EXPECT_LT(r.offsetY, 60.0);
  }
}

TEST(GridPartitions, TilesDomainExactly) {
  const Bounds domain{0, 0, 256, 192};
  rng::Stream s(2);
  GridSpec spec;
  spec.spacingX = 100;
  spec.spacingY = 80;
  for (int trial = 0; trial < 20; ++trial) {
    const auto cells = gridPartitions(domain, spec.withRandomOffset(s));
    EXPECT_TRUE(cover(cells, domain)) << "trial " << trial;
    double area = 0.0;
    for (const Bounds& c : cells) area += c.width() * c.height();
    EXPECT_NEAR(area, 256.0 * 192.0, 1e-6);
  }
}

TEST(GridPartitions, SpacingLargerThanDomainGivesOneCellWhenAligned) {
  const Bounds domain{0, 0, 100, 100};
  GridSpec spec;
  spec.spacingX = 500;
  spec.spacingY = 500;
  spec.offsetX = 0;
  spec.offsetY = 0;
  const auto cells = gridPartitions(domain, spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].x1, 100.0);
}

TEST(CrossPartitions, FourQuadrants) {
  const Bounds domain{0, 0, 100, 100};
  const auto cells = crossPartitions(domain, 30, 70);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_TRUE(cover(cells, domain, 3.0));
  // Largest partition exceeds a quarter of the image (paper's observation).
  double largest = 0.0;
  for (const Bounds& c : cells) largest = std::max(largest, c.width() * c.height());
  EXPECT_GT(largest, 2500.0);
}

TEST(CrossPartitions, DegenerateCrossOnEdge) {
  const Bounds domain{0, 0, 100, 100};
  const auto cells = crossPartitions(domain, 0, 50);
  EXPECT_EQ(cells.size(), 2u);  // left column collapses
}

TEST(RandomCrossPartitions, AlwaysInsideMarginBand) {
  const Bounds domain{0, 0, 200, 100};
  rng::Stream s(3);
  for (int i = 0; i < 50; ++i) {
    const auto cells = randomCrossPartitions(domain, s, 0.1);
    ASSERT_EQ(cells.size(), 4u);
    // Reconstruct the cross point from cell 0's high corner.
    const double cx = cells[0].x1;
    const double cy = cells[0].y1;
    EXPECT_GE(cx, 20.0);
    EXPECT_LE(cx, 180.0);
    EXPECT_GE(cy, 10.0);
    EXPECT_LE(cy, 90.0);
  }
}

TEST(TileImage, ExactCoverWithNearEqualCells) {
  const auto rects = tileImage(103, 57, 4, 3);
  ASSERT_EQ(rects.size(), 12u);
  long long area = 0;
  for (const IRect& r : rects) {
    EXPECT_GT(r.w, 0);
    EXPECT_GT(r.h, 0);
    area += r.area();
  }
  EXPECT_EQ(area, 103LL * 57LL);
  // Cell widths differ by at most one pixel.
  int wMin = 1000, wMax = 0;
  for (const IRect& r : rects) {
    wMin = std::min(wMin, r.w);
    wMax = std::max(wMax, r.w);
  }
  EXPECT_LE(wMax - wMin, 1);
}

TEST(TileImage, SingleCell) {
  const auto rects = tileImage(64, 64, 1, 1);
  ASSERT_EQ(rects.size(), 1u);
  EXPECT_EQ(rects[0], (IRect{0, 0, 64, 64}));
}

TEST(IRect, ContainsPointHalfOpen) {
  const IRect r{10, 20, 30, 40};
  EXPECT_TRUE(r.containsPoint(10.0, 20.0));
  EXPECT_TRUE(r.containsPoint(39.999, 59.999));
  EXPECT_FALSE(r.containsPoint(40.0, 30.0));
  EXPECT_FALSE(r.containsPoint(9.999, 30.0));
}

TEST(RoundToPixels, SharedCutLinesStayDisjoint) {
  const Bounds domain{0, 0, 101, 97};
  const auto cells = crossPartitions(domain, 33.7, 48.2);
  long long area = 0;
  for (const Bounds& c : cells) {
    const IRect r = roundToPixels(c, 101, 97);
    area += r.area();
  }
  EXPECT_EQ(area, 101LL * 97LL);  // disjoint + covering after rounding
}

TEST(IRect, ToBoundsRoundTrip) {
  const IRect r{3, 4, 10, 20};
  const Bounds b = r.toBounds();
  EXPECT_EQ(b.x0, 3.0);
  EXPECT_EQ(b.y1, 24.0);
  EXPECT_EQ(b.width(), 10.0);
}

}  // namespace
}  // namespace mcmcpar::partition
