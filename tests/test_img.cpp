#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "img/disc_raster.hpp"
#include "img/filters.hpp"
#include "img/image.hpp"
#include "img/overlay.hpp"
#include "img/pnm_io.hpp"
#include "img/synth.hpp"

namespace mcmcpar::img {
namespace {

TEST(Image, ConstructionAndAccess) {
  ImageF im(4, 3, 0.5f);
  EXPECT_EQ(im.width(), 4);
  EXPECT_EQ(im.height(), 3);
  EXPECT_EQ(im.pixelCount(), 12u);
  EXPECT_FLOAT_EQ(im(2, 1), 0.5f);
  im(2, 1) = 0.75f;
  EXPECT_FLOAT_EQ(im(2, 1), 0.75f);
  EXPECT_TRUE(im.contains(0, 0));
  EXPECT_TRUE(im.contains(3, 2));
  EXPECT_FALSE(im.contains(4, 0));
  EXPECT_FALSE(im.contains(-1, 0));
}

TEST(Image, RowPointerConsistency) {
  ImageF im(5, 4);
  im(3, 2) = 9.0f;
  EXPECT_FLOAT_EQ(im.row(2)[3], 9.0f);
}

TEST(Image, CropExtractsSubRect) {
  ImageF im(6, 5);
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 6; ++x) im(x, y) = static_cast<float>(10 * y + x);
  }
  const ImageF c = im.crop(2, 1, 3, 2);
  EXPECT_EQ(c.width(), 3);
  EXPECT_EQ(c.height(), 2);
  EXPECT_FLOAT_EQ(c(0, 0), 12.0f);
  EXPECT_FLOAT_EQ(c(2, 1), 24.0f);
}

TEST(Image, MinMaxAndNormalise) {
  ImageF im(3, 1);
  im(0, 0) = 2.0f;
  im(1, 0) = 4.0f;
  im(2, 0) = 6.0f;
  const auto mm = minMax(im);
  EXPECT_FLOAT_EQ(mm.minValue, 2.0f);
  EXPECT_FLOAT_EQ(mm.maxValue, 6.0f);
  const ImageF n = normalised(im);
  EXPECT_FLOAT_EQ(n(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(n(1, 0), 0.5f);
  EXPECT_FLOAT_EQ(n(2, 0), 1.0f);
}

TEST(Image, NormaliseConstantImageIsZero) {
  const ImageF n = normalised(ImageF(4, 4, 3.0f));
  for (float v : n.pixels()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Image, U8RoundTrip) {
  ImageF im(2, 1);
  im(0, 0) = 0.25f;
  im(1, 0) = 1.5f;  // clamped
  const ImageU8 u = toU8(im);
  EXPECT_EQ(u(0, 0), 64);
  EXPECT_EQ(u(1, 0), 255);
  const ImageF f = toF(u);
  EXPECT_NEAR(f(0, 0), 0.25f, 1.0f / 255.0f);
  EXPECT_FLOAT_EQ(f(1, 0), 1.0f);
}

TEST(PnmIo, PgmBinaryRoundTrip) {
  ImageU8 im(7, 3);
  for (std::size_t i = 0; i < im.pixelCount(); ++i) {
    im.pixels()[i] = static_cast<std::uint8_t>(i * 11 % 256);
  }
  std::stringstream buf;
  writePgm(im, buf);
  const ImageU8 back = readPgm(buf);
  EXPECT_EQ(back, im);
}

TEST(PnmIo, PpmBinaryRoundTrip) {
  ImageRgb im(3, 2);
  im(0, 0) = Rgb{1, 2, 3};
  im(2, 1) = Rgb{200, 100, 50};
  std::stringstream buf;
  writePpm(im, buf);
  const ImageRgb back = readPpm(buf);
  EXPECT_EQ(back, im);
}

TEST(PnmIo, ParsesAsciiPgmWithComments) {
  std::stringstream buf("P2\n# a comment\n2 2\n255\n0 64\n128 255\n");
  const ImageU8 im = readPgm(buf);
  EXPECT_EQ(im(0, 0), 0);
  EXPECT_EQ(im(1, 0), 64);
  EXPECT_EQ(im(0, 1), 128);
  EXPECT_EQ(im(1, 1), 255);
}

TEST(PnmIo, RejectsBadMagic) {
  std::stringstream buf("P9\n2 2\n255\n");
  EXPECT_THROW(readPgm(buf), PnmError);
}

TEST(PnmIo, RejectsTruncatedPayload) {
  std::stringstream buf("P5\n4 4\n255\nxx");
  EXPECT_THROW(readPgm(buf), PnmError);
}

TEST(PnmIo, RejectsOverlargeMaxval) {
  std::stringstream buf("P5\n2 2\n65535\n");
  EXPECT_THROW(readPgm(buf), PnmError);
}

TEST(Filters, ThresholdBinarises) {
  ImageF im(3, 1);
  im(0, 0) = 0.2f;
  im(1, 0) = 0.6f;
  im(2, 0) = 0.5f;  // not strictly above
  const ImageF t = threshold(im, 0.5f);
  EXPECT_FLOAT_EQ(t(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(t(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(t(2, 0), 0.0f);
}

TEST(Filters, CountAboveThresholdWholeAndRect) {
  ImageF im(4, 4, 0.0f);
  im(1, 1) = 1.0f;
  im(2, 2) = 1.0f;
  im(3, 3) = 1.0f;
  EXPECT_EQ(countAboveThreshold(im, 0.5f), 3u);
  EXPECT_EQ(countAboveThreshold(im, 0.5f, 0, 0, 2, 2), 1u);
  EXPECT_EQ(countAboveThreshold(im, 0.5f, 2, 2, 10, 10), 2u);  // clipped
}

TEST(DiscRaster, PixelCountApproximatesArea) {
  // Large disc: pixel count converges to pi r^2.
  const double r = 20.0;
  const auto count = discPixelCount(50.0, 50.0, r, 100, 100);
  EXPECT_NEAR(static_cast<double>(count), M_PI * r * r, 0.02 * M_PI * r * r);
}

TEST(DiscRaster, SpansMatchForEach) {
  const double cx = 10.3, cy = 7.8, r = 5.4;
  std::size_t viaForEach = 0;
  forEachDiscPixel(cx, cy, r, 32, 32, [&](int x, int y) {
    EXPECT_TRUE(pixelInDisc(x, y, cx, cy, r));
    ++viaForEach;
  });
  std::size_t viaSpans = 0;
  for (const Span& sp : discSpans(cx, cy, r, 32, 32)) {
    viaSpans += static_cast<std::size_t>(sp.x1 - sp.x0);
  }
  EXPECT_EQ(viaForEach, viaSpans);
  EXPECT_EQ(viaForEach, discPixelCount(cx, cy, r, 32, 32));
}

TEST(DiscRaster, EveryInteriorPixelEnumerated) {
  // Exhaustive cross-check against the membership predicate.
  const double cx = 8.5, cy = 9.5, r = 4.0;
  std::vector<bool> hit(20 * 20, false);
  forEachDiscPixel(cx, cy, r, 20, 20, [&](int x, int y) {
    hit[static_cast<std::size_t>(y * 20 + x)] = true;
  });
  for (int y = 0; y < 20; ++y) {
    for (int x = 0; x < 20; ++x) {
      EXPECT_EQ(hit[static_cast<std::size_t>(y * 20 + x)],
                pixelInDisc(x, y, cx, cy, r))
          << "(" << x << "," << y << ")";
    }
  }
}

TEST(DiscRaster, ClipsAtBorders) {
  std::size_t n = 0;
  forEachDiscPixel(0.0, 0.0, 5.0, 16, 16, [&](int x, int y) {
    ASSERT_GE(x, 0);
    ASSERT_GE(y, 0);
    ++n;
  });
  // Roughly a quarter disc.
  EXPECT_GT(n, 10u);
  EXPECT_LT(n, 30u);
}

TEST(DiscRaster, ZeroRadiusIsEmpty) {
  EXPECT_EQ(discPixelCount(5, 5, 0.0, 10, 10), 0u);
  EXPECT_TRUE(discSpans(5, 5, -1.0, 10, 10).empty());
}

TEST(DiscRaster, SpanAndPixelEnumerationsAgreeExhaustively) {
  // Exhaustive sweep over interior, edge-clipped, fully-outside and
  // giant-radius discs: forEachDiscSpan, forEachDiscPixel and discSpans must
  // enumerate exactly the pixelInDisc set (proves the tightened floor-based
  // row bound dropped no pixels).
  const int W = 24, H = 19;
  const double centres[] = {-6.0, -0.5, 0.0, 3.7, 11.25, 12.5, 18.9, 30.5};
  const double radii[] = {0.4, 1.0, 2.5, 3.75, 6.0, 9.5, 14.0, 500.0};
  for (double cx : centres) {
    for (double cy : centres) {
      for (double r : radii) {
        std::vector<char> bySpan(W * H, 0), byPixel(W * H, 0), byList(W * H, 0);
        forEachDiscSpan(cx, cy, r, W, H, [&](int y, int x0, int x1) {
          ASSERT_LT(x0, x1);
          ASSERT_GE(x0, 0);
          ASSERT_LE(x1, W);
          ASSERT_GE(y, 0);
          ASSERT_LT(y, H);
          for (int x = x0; x < x1; ++x) {
            bySpan[static_cast<std::size_t>(y * W + x)] = 1;
          }
        });
        forEachDiscPixel(cx, cy, r, W, H, [&](int x, int y) {
          byPixel[static_cast<std::size_t>(y * W + x)] = 1;
        });
        for (const Span& sp : discSpans(cx, cy, r, W, H)) {
          for (int x = sp.x0; x < sp.x1; ++x) {
            byList[static_cast<std::size_t>(sp.y * W + x)] = 1;
          }
        }
        for (int y = 0; y < H; ++y) {
          for (int x = 0; x < W; ++x) {
            const std::size_t i = static_cast<std::size_t>(y * W + x);
            const bool member = pixelInDisc(x, y, cx, cy, r);
            ASSERT_EQ(static_cast<bool>(bySpan[i]), member)
                << "span set: cx=" << cx << " cy=" << cy << " r=" << r << " ("
                << x << "," << y << ")";
            ASSERT_EQ(bySpan[i], byPixel[i]);
            ASSERT_EQ(bySpan[i], byList[i]);
          }
        }
      }
    }
  }
}

TEST(DiscRaster, RowBoundsAreTight) {
  // The floor-based bounds: discRowRange matches the analytic tight range
  // ceil(cy-r-0.5) .. floor(cy+r-0.5), every row in it satisfies
  // |y+0.5-cy| <= r (i.e. CAN contain disc pixels — the old ceil-based
  // bound visited a row beyond that), and no enumerated pixel row falls
  // outside it.
  const double cases[][3] = {{16.5, 16.5, 7.0},  {15.3, 17.8, 6.4},
                             {16.0, 16.0, 5.5},  {14.25, 18.75, 9.1},
                             {16.5, 16.5, 0.75}, {17.1, 15.2, 3.0}};
  for (const auto& c : cases) {
    const double cx = c[0], cy = c[1], r = c[2];
    const RowRange rows = discRowRange(cy, r, 64);
    EXPECT_EQ(rows.y0, static_cast<int>(std::ceil(cy - r - 0.5)));
    EXPECT_EQ(rows.y1, static_cast<int>(std::floor(cy + r - 0.5)));
    for (int y = rows.y0; y <= rows.y1; ++y) {
      const double dy = (y + 0.5) - cy;
      EXPECT_LE(dy * dy, r * r)
          << "row " << y << " cannot contain disc pixels";
    }
    // The previous ceil-based upper bound visited one extra impossible row
    // whenever cy+r-0.5 was not an exact integer.
    const int oldHi = static_cast<int>(std::ceil(cy + r - 0.5));
    if (oldHi != rows.y1) {
      const double dy = (oldHi + 0.5) - cy;
      EXPECT_GT(dy * dy, r * r) << "cx=" << cx << " cy=" << cy << " r=" << r;
    }
    int firstRow = 1 << 30, lastRow = -(1 << 30);
    forEachDiscSpan(cx, cy, r, 64, 64, [&](int y, int x0, int x1) {
      EXPECT_LT(x0, x1);  // only non-empty rows are visited
      firstRow = std::min(firstRow, y);
      lastRow = std::max(lastRow, y);
    });
    EXPECT_GE(firstRow, rows.y0);
    EXPECT_LE(lastRow, rows.y1);
    // No pixel was dropped: brute force over the membership rule agrees on
    // the extreme non-empty rows.
    int bruteFirst = 1 << 30, bruteLast = -(1 << 30);
    for (int y = 0; y < 64; ++y) {
      for (int x = 0; x < 64; ++x) {
        if (pixelInDisc(x, y, cx, cy, r)) {
          bruteFirst = std::min(bruteFirst, y);
          bruteLast = std::max(bruteLast, y);
        }
      }
    }
    EXPECT_EQ(firstRow, bruteFirst) << "cx=" << cx << " cy=" << cy << " r=" << r;
    EXPECT_EQ(lastRow, bruteLast) << "cx=" << cx << " cy=" << cy << " r=" << r;
  }
}

TEST(DiscRaster, SpansReservationClampedForGiantRadii) {
  // A giant disc on a small raster must not over-allocate: one span per
  // clipped row is the exact bound (the old 2r+2 reserve requested ~2e9
  // entries here).
  const std::vector<Span> spans = discSpans(8.0, 8.0, 1e9, 16, 16);
  EXPECT_EQ(spans.size(), 16u);
  EXPECT_LE(spans.capacity(), 16u);
  for (const Span& sp : spans) {
    EXPECT_EQ(sp.x0, 0);
    EXPECT_EQ(sp.x1, 16);
  }
}

TEST(DiscRaster, DiscRowSpanMatchesEnumeratedSpans) {
  // discRowSpan is the per-row primitive deltaReplace subtracts with; it
  // must reproduce forEachDiscSpan's spans row for row and report empty rows
  // outside the disc.
  const double cx = 9.7, cy = 11.2, r = 6.3;
  std::vector<RowSpan> enumerated(32, RowSpan{0, 0});
  forEachDiscSpan(cx, cy, r, 32, 32, [&](int y, int x0, int x1) {
    enumerated[static_cast<std::size_t>(y)] = RowSpan{x0, x1};
  });
  for (int y = 0; y < 32; ++y) {
    const RowSpan s = discRowSpan(cx, cy, r, y, 32);
    if (s.x0 < s.x1) {
      EXPECT_EQ(s.x0, enumerated[static_cast<std::size_t>(y)].x0);
      EXPECT_EQ(s.x1, enumerated[static_cast<std::size_t>(y)].x1);
    } else {
      EXPECT_EQ(enumerated[static_cast<std::size_t>(y)].x0,
                enumerated[static_cast<std::size_t>(y)].x1);
    }
  }
}

TEST(DiscRaster, RenderSoftDiscClampsToOne) {
  ImageF im(32, 32, 0.8f);
  renderSoftDisc(im, 16, 16, 6, 0.9f, 1.5);
  for (float v : im.pixels()) {
    ASSERT_LE(v, 1.0f);
    ASSERT_GE(v, 0.0f);
  }
  EXPECT_FLOAT_EQ(im(16, 16), 1.0f);
}

TEST(Synth, DeterministicForSeed) {
  const SceneSpec spec = cellScene(96, 96, 10, 6.0, 77);
  const Scene a = generateScene(spec);
  const Scene b = generateScene(spec);
  EXPECT_EQ(a.image, b.image);
  ASSERT_EQ(a.truth.size(), b.truth.size());
}

TEST(Synth, HonoursRequestedCount) {
  const Scene scene = generateScene(cellScene(256, 256, 40, 7.0, 5));
  EXPECT_EQ(scene.truth.size(), 40u);
}

TEST(Synth, DiscsAreBrightAgainstBackground) {
  SceneSpec spec = cellScene(128, 128, 6, 9.0, 21);
  spec.noiseStd = 0.0f;
  const Scene scene = generateScene(spec);
  for (const SceneCircle& c : scene.truth) {
    EXPECT_GT(scene.image(static_cast<int>(c.x), static_cast<int>(c.y)),
              0.7f);
  }
  EXPECT_LT(scene.image(0, 0), 0.2f);
}

TEST(Synth, BeadsSceneMatchesTable1Geometry) {
  const SceneSpec spec = beadsScene(3);
  const Scene scene = generateScene(spec);
  EXPECT_EQ(scene.image.width() * scene.image.height(), 512 * 416);
  EXPECT_EQ(scene.truth.size(), 48u);  // 6 + 38 + 4
  // The inter-cluster gaps must stay empty so the intelligent partitioner
  // can cut: columns 80..95 and 420..435 hold no bead pixels.
  for (const SceneCircle& c : scene.truth) {
    const bool inGapA = c.x + c.r > 80 && c.x - c.r < 95;
    const bool inGapB = c.x + c.r > 420 && c.x - c.r < 435;
    EXPECT_FALSE(inGapA || inGapB) << "bead at x=" << c.x;
  }
}

TEST(Overlay, DrawsWithinBounds) {
  ImageRgb im = greyToRgb(ImageF(32, 32, 0.5f));
  drawCircle(im, 16, 16, 10, Rgb{255, 0, 0});
  drawCircle(im, 0, 0, 50, Rgb{0, 255, 0});  // mostly outside: must not crash
  drawRect(im, -5, -5, 20, 20, Rgb{0, 0, 255});
  drawVerticalLines(im, {-1, 5, 99}, Rgb{255, 255, 0});
  drawHorizontalLines(im, {3}, Rgb{0, 255, 255});
  // Spot-check a circle pixel.
  EXPECT_EQ(im(26, 16).r, 255);
}

TEST(Overlay, GreyToRgbValues) {
  ImageF g(1, 1, 0.5f);
  const ImageRgb rgb = greyToRgb(g);
  EXPECT_EQ(rgb(0, 0).r, 128);
  EXPECT_EQ(rgb(0, 0).g, 128);
  EXPECT_EQ(rgb(0, 0).b, 128);
}

}  // namespace
}  // namespace mcmcpar::img
