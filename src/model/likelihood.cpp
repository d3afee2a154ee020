#include "model/likelihood.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "img/disc_raster.hpp"
#include "model/likelihood_kernels.hpp"
#include "rng/distributions.hpp"

namespace mcmcpar::model {

// Every delta/apply method walks the disc as contiguous row spans
// (img::forEachDiscSpan) and hands each span to the vectorised kernels in
// model/likelihood_kernels.*, looked up once per call (spanKernels()); delta
// spans shorter than one lane bank run inline. Span results are folded in
// row order into a plain double (move deltas) or a KahanSum (whole-image
// totals), which — together with the kernels' fixed-lane accumulation —
// makes every value bit-reproducible across runs, backends and machines.

PixelLikelihood::PixelLikelihood(const img::ImageF& filtered,
                                 const LikelihoodParams& params, int originX,
                                 int originY)
    : params_(params),
      originX_(originX),
      originY_(originY),
      gain_(filtered.width(), filtered.height()),
      coverage_(filtered.width(), filtered.height(), 0) {
  // gain(p) = logN(I; fg, s) - logN(I; bg, s)
  //         = [ (I - bg)^2 - (I - fg)^2 ] / (2 s^2)
  const double inv2s2 = 1.0 / (2.0 * params_.sigma * params_.sigma);
  // Millions of pixels feed one total: compensated summation keeps the
  // constant term ~45x closer to the long-double reference than a naive
  // accumulator on a 2048^2 image (measured 1.2e-8 vs 5.7e-7 off).
  kernels::KahanSum constTerm;
  for (int y = 0; y < filtered.height(); ++y) {
    const float* src = filtered.row(y);
    float* dst = gain_.row(y);
    for (int x = 0; x < filtered.width(); ++x) {
      const double v = static_cast<double>(src[x]);
      const double dBg = v - params_.bgMean;
      const double dFg = v - params_.fgMean;
      dst[x] = static_cast<float>((dBg * dBg - dFg * dFg) * inv2s2);
      constTerm.add(rng::logNormalPdf(v, params_.bgMean, params_.sigma));
    }
  }
  constTerm_ = constTerm.value();
}

namespace {

/// Delta of one span through the resolved table kernel, or inline when the
/// span is shorter than one lane bank (bit-identical either way; see the
/// short-span notes in likelihood_kernels.hpp).
template <auto ShortKernel>
double spanDelta(kernels::SpanDeltaFn kernel, const float* gain,
                 const std::uint16_t* cov, int n) noexcept {
  const auto count = static_cast<std::size_t>(n);
  return count < kernels::kLanes ? ShortKernel(gain, cov, count)
                                 : kernel(gain, cov, count);
}

/// Sum `kernel` over the sub-spans of `span` lying OUTSIDE the cut span (at
/// most two contiguous segments), keeping the kernels on contiguous slices.
/// The cut uses the same span geometry as the enumeration, so the excluded
/// pixel set is exactly the other disc's raster footprint.
template <auto ShortKernel>
double spanOutsideCut(const float* gainRow, const std::uint16_t* covRow,
                      img::RowSpan span, img::RowSpan cut,
                      kernels::SpanDeltaFn kernel) noexcept {
  const bool haveCut = cut.x0 < cut.x1;
  const int leftEnd = haveCut ? std::clamp(cut.x0, span.x0, span.x1) : span.x1;
  const int rightBegin =
      haveCut ? std::clamp(cut.x1, span.x0, span.x1) : span.x1;
  double delta = 0.0;
  if (span.x0 < leftEnd) {
    delta += spanDelta<ShortKernel>(kernel, gainRow + span.x0,
                                    covRow + span.x0, leftEnd - span.x0);
  }
  if (rightBegin < span.x1) {
    delta += spanDelta<ShortKernel>(kernel, gainRow + rightBegin,
                                    covRow + rightBegin, span.x1 - rightBegin);
  }
  return delta;
}

/// The rows img::forEachDiscSpan visits for a disc; an empty range is
/// normalised to {INT_MAX, INT_MIN} so unions are a plain min/max.
img::RowRange visitedRows(double cy, double r, int width, int height) noexcept {
  constexpr img::RowRange kNone{std::numeric_limits<int>::max(),
                                std::numeric_limits<int>::min()};
  if (!(r > 0.0) || width <= 0 || height <= 0) return kNone;
  const img::RowRange rows = img::discRowRange(cy, r, height);
  return rows.y0 <= rows.y1 ? rows : kNone;
}

}  // namespace

double PixelLikelihood::deltaAdd(const Circle& c) const noexcept {
  const kernels::SpanDeltaFn kernel = kernels::spanKernels().deltaAdd;
  double delta = 0.0;
  const double lx = c.x - originX_;
  const double ly = c.y - originY_;
  img::forEachDiscSpan(lx, ly, c.r, gain_.width(), gain_.height(),
                       [&](int y, int x0, int x1) noexcept {
                         delta += spanDelta<kernels::shortSpanDeltaAdd>(
                             kernel, gain_.row(y) + x0, coverage_.row(y) + x0,
                             x1 - x0);
                       });
  return delta;
}

double PixelLikelihood::deltaRemove(const Circle& c) const noexcept {
  const kernels::SpanDeltaFn kernel = kernels::spanKernels().deltaRemove;
  double delta = 0.0;
  const double lx = c.x - originX_;
  const double ly = c.y - originY_;
  img::forEachDiscSpan(lx, ly, c.r, gain_.width(), gain_.height(),
                       [&](int y, int x0, int x1) noexcept {
                         delta += spanDelta<kernels::shortSpanDeltaRemove>(
                             kernel, gain_.row(y) + x0, coverage_.row(y) + x0,
                             x1 - x0);
                       });
  return delta;
}

double PixelLikelihood::deltaReplace(const Circle& oldC,
                                     const Circle& newC) const noexcept {
  // Pixels in new\old become covered, pixels in old\new become bare.
  // Subtracting the other disc's row span from each disc's own span keeps
  // the kernels on contiguous slices and reuses the exact span geometry of
  // the apply path, so the two discs' pixel sets can never disagree with an
  // applyRemove+applyAdd of the same circles.
  //
  // One walk over the union of the discs' rows computes each row's two
  // spans once; each serves as one disc's own span and as the other's cut.
  // A disc's own rows are exactly the rows forEachDiscSpan would visit. The
  // sum keeps the two-disc order: new-disc rows fold into `delta` as they
  // come, old-disc rows are buffered and fold afterwards, in row order.
  const kernels::SpanKernels& k = kernels::spanKernels();
  const int width = gain_.width();
  const int height = gain_.height();
  const double ox = oldC.x - originX_;
  const double oy = oldC.y - originY_;
  const double nx = newC.x - originX_;
  const double ny = newC.y - originY_;
  const img::RowRange newRows = visitedRows(ny, newC.r, width, height);
  const img::RowRange oldRows = visitedRows(oy, oldC.r, width, height);
  // thread_local: the in-place executor evaluates const deltas concurrently
  // on one likelihood.
  thread_local std::vector<double> oldRowDeltas;
  oldRowDeltas.clear();
  double delta = 0.0;
  const int yEnd = std::max(newRows.y1, oldRows.y1);
  for (int y = std::min(newRows.y0, oldRows.y0); y <= yEnd; ++y) {
    const bool inNew = y >= newRows.y0 && y <= newRows.y1;
    const bool inOld = y >= oldRows.y0 && y <= oldRows.y1;
    if (!inNew && !inOld) continue;
    const img::RowSpan newSpan = img::discRowSpan(nx, ny, newC.r, y, width);
    const img::RowSpan oldSpan = img::discRowSpan(ox, oy, oldC.r, y, width);
    const float* gainRow = gain_.row(y);
    const std::uint16_t* covRow = coverage_.row(y);
    if (inNew && newSpan.x0 < newSpan.x1) {
      delta += spanOutsideCut<kernels::shortSpanDeltaAdd>(
          gainRow, covRow, newSpan, oldSpan, k.deltaAdd);
    }
    if (inOld && oldSpan.x0 < oldSpan.x1) {
      oldRowDeltas.push_back(spanOutsideCut<kernels::shortSpanDeltaRemove>(
          gainRow, covRow, oldSpan, newSpan, k.deltaRemove));
    }
  }
  for (const double rowDelta : oldRowDeltas) delta += rowDelta;
  return delta;
}

double PixelLikelihood::deltaMultiple(std::span<const Circle> removed,
                                      std::span<const Circle> added) const noexcept {
  // Joint bounding box of every affected disc, in local coordinates.
  double bx0 = 1e30, by0 = 1e30, bx1 = -1e30, by1 = -1e30;
  const auto extend = [&](const Circle& c) noexcept {
    bx0 = std::min(bx0, c.x - c.r - originX_);
    by0 = std::min(by0, c.y - c.r - originY_);
    bx1 = std::max(bx1, c.x + c.r - originX_);
    by1 = std::max(by1, c.y + c.r - originY_);
  };
  for (const Circle& c : removed) extend(c);
  for (const Circle& c : added) extend(c);
  if (bx1 < bx0) return 0.0;

  const int x0 = std::max(0, static_cast<int>(std::floor(std::max(bx0, -1.0))));
  const int y0 = std::max(0, static_cast<int>(std::floor(std::max(by0, -1.0))));
  const int x1 = std::min(
      gain_.width() - 1,
      static_cast<int>(std::ceil(std::min(bx1, 1.0 + gain_.width()))));
  const int y1 = std::min(
      gain_.height() - 1,
      static_cast<int>(std::ceil(std::min(by1, 1.0 + gain_.height()))));
  if (x1 < x0 || y1 < y0) return 0.0;
  const int bboxWidth = x1 - x0 + 1;

  // Per-row coverage deltas, rebuilt from the circles' row spans (one sqrt
  // per circle per row; every disc span lies inside the bounding box). Each
  // span marks +1 at its start and -1 past its end in a difference row; a
  // running sum over the row's extent turns that into the per-pixel counts
  // and zeroes the difference row for the next one. The buffers are
  // thread_local because const delta evaluation may run concurrently on the
  // same likelihood (in-place executor).
  const std::size_t rowLength = static_cast<std::size_t>(bboxWidth) + 1;
  thread_local std::vector<std::int16_t> diffs;   // all zero between rows
  thread_local std::vector<std::int16_t> counts;  // written before read
  if (diffs.size() < 2 * rowLength) {
    diffs.assign(2 * rowLength, 0);
    counts.resize(2 * rowLength);
  }
  std::int16_t* diffOld = diffs.data();
  std::int16_t* diffNew = diffOld + rowLength;
  std::int16_t* dOld = counts.data();
  std::int16_t* dNew = dOld + rowLength;
  const kernels::SpanTransitionFn transition =
      kernels::spanKernels().transitionDelta;

  double delta = 0.0;
  for (int y = y0; y <= y1; ++y) {
    int rowMin = x1 + 1;
    int rowMax = x0 - 1;
    const auto mark = [&](const Circle& c, std::int16_t* diff) noexcept {
      const img::RowSpan s = img::discRowSpan(
          c.x - originX_, c.y - originY_, c.r, y, gain_.width());
      if (s.x0 >= s.x1) return;
      assert(s.x0 >= x0 && s.x1 <= x1 + 1);
      rowMin = std::min(rowMin, s.x0);
      rowMax = std::max(rowMax, s.x1 - 1);
      ++diff[s.x0 - x0];
      --diff[s.x1 - x0];
    };
    for (const Circle& c : removed) mark(c, diffOld);
    for (const Circle& c : added) mark(c, diffNew);
    if (rowMin > rowMax) continue;
    const auto off = static_cast<std::size_t>(rowMin - x0);
    const auto n = static_cast<std::size_t>(rowMax - rowMin + 1);
    std::int16_t runOld = 0;
    std::int16_t runNew = 0;
    for (std::size_t i = off; i < off + n; ++i) {
      runOld = static_cast<std::int16_t>(runOld + diffOld[i]);
      runNew = static_cast<std::int16_t>(runNew + diffNew[i]);
      dOld[i] = runOld;
      dNew[i] = runNew;
      diffOld[i] = 0;
      diffNew[i] = 0;
    }
    diffOld[off + n] = 0;
    diffNew[off + n] = 0;
    delta += transition(gain_.row(y) + rowMin, coverage_.row(y) + rowMin,
                        dOld + off, dNew + off, n);
  }
  return delta;
}

double PixelLikelihood::applyAdd(const Circle& c) noexcept {
  const kernels::SpanApplyFn kernel = kernels::spanKernels().applyAdd;
  double delta = 0.0;
  const double lx = c.x - originX_;
  const double ly = c.y - originY_;
  img::forEachDiscSpan(lx, ly, c.r, gain_.width(), gain_.height(),
                       [&](int y, int x0, int x1) noexcept {
                         delta += kernel(
                             gain_.row(y) + x0, coverage_.row(y) + x0,
                             static_cast<std::size_t>(x1 - x0));
                       });
  return delta;
}

double PixelLikelihood::applyRemove(const Circle& c) noexcept {
  const kernels::SpanApplyFn kernel = kernels::spanKernels().applyRemove;
  double delta = 0.0;
  const double lx = c.x - originX_;
  const double ly = c.y - originY_;
  img::forEachDiscSpan(lx, ly, c.r, gain_.width(), gain_.height(),
                       [&](int y, int x0, int x1) noexcept {
                         delta += kernel(
                             gain_.row(y) + x0, coverage_.row(y) + x0,
                             static_cast<std::size_t>(x1 - x0));
                       });
  return delta;
}

void PixelLikelihood::resynchronise() noexcept {
  const kernels::SpanDeltaFn sumCovered = kernels::spanKernels().sumCovered;
  kernels::KahanSum total;
  for (int y = 0; y < gain_.height(); ++y) {
    total.add(sumCovered(gain_.row(y), coverage_.row(y),
                         static_cast<std::size_t>(gain_.width())));
  }
  coveredGain_ = total.value();
}

double PixelLikelihood::referenceCoveredGain(
    std::span<const Circle> circles) const {
  img::Image<std::uint16_t> cov(gain_.width(), gain_.height(), 0);
  for (const Circle& c : circles) {
    img::forEachDiscSpan(c.x - originX_, c.y - originY_, c.r, gain_.width(),
                         gain_.height(), [&](int y, int x0, int x1) {
                           std::uint16_t* row = cov.row(y);
                           for (int x = x0; x < x1; ++x) ++row[x];
                         });
  }
  // Same kernel + same row-ordered Kahan fold as resynchronise(), so a
  // resynchronised total bit-matches this reference.
  const kernels::SpanDeltaFn sumCovered = kernels::spanKernels().sumCovered;
  kernels::KahanSum total;
  for (int y = 0; y < gain_.height(); ++y) {
    total.add(sumCovered(gain_.row(y), cov.row(y),
                         static_cast<std::size_t>(gain_.width())));
  }
  return total.value();
}

PixelLikelihood PixelLikelihood::crop(int gx0, int gy0, int w, int h) const {
  assert(gx0 >= originX_ && gy0 >= originY_);
  assert(gx0 + w <= originX_ + width() && gy0 + h <= originY_ + height());
  PixelLikelihood out;
  out.params_ = params_;
  out.originX_ = gx0;
  out.originY_ = gy0;
  out.gain_ = gain_.crop(gx0 - originX_, gy0 - originY_, w, h);
  out.coverage_ = coverage_.crop(gx0 - originX_, gy0 - originY_, w, h);
  out.constTerm_ = 0.0;  // crops track relative gain only
  out.resynchronise();
  out.initialCoveredGain_ = out.coveredGain_;
  return out;
}

void PixelLikelihood::absorbCrop(const PixelLikelihood& cropped) noexcept {
  const int lx0 = cropped.originX_ - originX_;
  const int ly0 = cropped.originY_ - originY_;
  assert(lx0 >= 0 && ly0 >= 0);
  assert(lx0 + cropped.width() <= width() && ly0 + cropped.height() <= height());
  for (int y = 0; y < cropped.height(); ++y) {
    const std::uint16_t* src = cropped.coverage_.row(y);
    std::uint16_t* dst = coverage_.row(ly0 + y) + lx0;
    std::copy(src, src + cropped.width(), dst);
  }
  coveredGain_ += cropped.coveredGainDeltaSinceCrop();
}

}  // namespace mcmcpar::model
