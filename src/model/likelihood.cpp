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

// Every delta/apply method computes each disc's row spans with one batched
// geometry call (SpanKernels::discRows, the spans img::discRowSpan gives,
// bit for bit) and hands each span to the vectorised kernels in
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
  // The background term is rng::logNormalPdf(v, bgMean, sigma), written out
  // with log(sigma) hoisted: the same operations in the same order, so the
  // same bits, without a call and a log per pixel.
  const double logSigma = std::log(params_.sigma);
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
      const double z = dBg / params_.sigma;
      constTerm.add(-0.5 * z * z - logSigma - rng::kLogSqrt2Pi);
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

/// The rows img::forEachDiscSpan visits for a disc (empty: y0 > y1).
img::RowRange visitedRows(double cy, double r, int width, int height) noexcept {
  if (!(r > 0.0) || width <= 0 || height <= 0) return {0, -1};
  return img::discRowRange(cy, r, height);
}

/// Rows per batched geometry call where the spans live on the stack, so a
/// giant disc is walked in bounded chunks.
constexpr int kRowChunk = 64;

/// img::forEachDiscSpan with the spans computed by `k.discRows`, at most
/// kRowChunk rows per call: fn(y, span) for every non-empty row span of the
/// disc, in row order.
template <typename Fn>
void forEachDiscSpan(const kernels::SpanKernels& k, double cx, double cy,
                     double r, int width, int height, Fn&& fn) noexcept {
  const img::RowRange rows = visitedRows(cy, r, width, height);
  img::RowSpan spans[kRowChunk];
  for (int c0 = rows.y0; c0 <= rows.y1; c0 += kRowChunk) {
    const int c1 = std::min(rows.y1, c0 + (kRowChunk - 1));
    k.discRows(cx, cy, r, img::RowRange{c0, c1}, width, spans);
    for (int y = c0; y <= c1; ++y) {
      const img::RowSpan span = spans[y - c0];
      if (span.x0 < span.x1) fn(y, span);
    }
  }
}

}  // namespace

double PixelLikelihood::deltaAdd(const Circle& c) const noexcept {
  const kernels::SpanKernels& k = kernels::spanKernels();
  double delta = 0.0;
  forEachDiscSpan(k, c.x - originX_, c.y - originY_, c.r, gain_.width(),
                  gain_.height(), [&](int y, img::RowSpan s) noexcept {
                    delta += spanDelta<kernels::shortSpanDeltaAdd>(
                        k.deltaAdd, gain_.row(y) + s.x0,
                        coverage_.row(y) + s.x0, s.x1 - s.x0);
                  });
  return delta;
}

double PixelLikelihood::deltaRemove(const Circle& c) const noexcept {
  const kernels::SpanKernels& k = kernels::spanKernels();
  double delta = 0.0;
  forEachDiscSpan(k, c.x - originX_, c.y - originY_, c.r, gain_.width(),
                  gain_.height(), [&](int y, img::RowSpan s) noexcept {
                    delta += spanDelta<kernels::shortSpanDeltaRemove>(
                        k.deltaRemove, gain_.row(y) + s.x0,
                        coverage_.row(y) + s.x0, s.x1 - s.x0);
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
  // Both discs' spans are computed up front, one batched geometry call per
  // disc over exactly the rows forEachDiscSpan would visit; each span then
  // serves as its own disc's span and as the other disc's cut. On a row
  // outside the other disc's rows the cut comes from img::discRowSpan, as
  // it always did. The sum keeps the two-disc order: every new-disc row in
  // row order, then every old-disc row.
  const kernels::SpanKernels& k = kernels::spanKernels();
  const int width = gain_.width();
  const int height = gain_.height();
  const double ox = oldC.x - originX_;
  const double oy = oldC.y - originY_;
  const double nx = newC.x - originX_;
  const double ny = newC.y - originY_;
  const img::RowRange newRows = visitedRows(ny, newC.r, width, height);
  const img::RowRange oldRows = visitedRows(oy, oldC.r, width, height);
  const auto rowCount = [](img::RowRange rows) noexcept {
    return rows.y0 <= rows.y1 ? static_cast<std::size_t>(rows.y1 - rows.y0) + 1
                              : std::size_t{0};
  };
  // thread_local: the in-place executor evaluates const deltas concurrently
  // on one likelihood. It holds at most two spans per raster row.
  thread_local std::vector<img::RowSpan> spans;
  const std::size_t newCount = rowCount(newRows);
  const std::size_t spanCount = newCount + rowCount(oldRows);
  if (spans.size() < spanCount) spans.resize(spanCount);
  img::RowSpan* const newSpans = spans.data();
  img::RowSpan* const oldSpans = newSpans + newCount;
  k.discRows(nx, ny, newC.r, newRows, width, newSpans);
  k.discRows(ox, oy, oldC.r, oldRows, width, oldSpans);
  const auto oldCut = [&](int y) noexcept {
    return y >= oldRows.y0 && y <= oldRows.y1
               ? oldSpans[y - oldRows.y0]
               : img::discRowSpan(ox, oy, oldC.r, y, width);
  };
  const auto newCut = [&](int y) noexcept {
    return y >= newRows.y0 && y <= newRows.y1
               ? newSpans[y - newRows.y0]
               : img::discRowSpan(nx, ny, newC.r, y, width);
  };
  double delta = 0.0;
  for (int y = newRows.y0; y <= newRows.y1; ++y) {
    const img::RowSpan span = newSpans[y - newRows.y0];
    if (span.x0 < span.x1) {
      delta += spanOutsideCut<kernels::shortSpanDeltaAdd>(
          gain_.row(y), coverage_.row(y), span, oldCut(y), k.deltaAdd);
    }
  }
  for (int y = oldRows.y0; y <= oldRows.y1; ++y) {
    const img::RowSpan span = oldSpans[y - oldRows.y0];
    if (span.x0 < span.x1) {
      delta += spanOutsideCut<kernels::shortSpanDeltaRemove>(
          gain_.row(y), coverage_.row(y), span, newCut(y), k.deltaRemove);
    }
  }
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

  // Per-row coverage deltas, rebuilt from the circles' row spans over the
  // bounding box's rows (one batched geometry call per circle, circle-major;
  // every disc span lies inside the bounding box). Each span marks +1 at its
  // start and -1 past its end in a difference row; a running sum over the
  // row's extent turns that into the per-pixel counts and zeroes the
  // difference row for the next one. The buffers are thread_local because
  // const delta evaluation may run concurrently on the same likelihood
  // (in-place executor).
  const kernels::SpanKernels& k = kernels::spanKernels();
  const std::size_t rowCount = static_cast<std::size_t>(y1 - y0) + 1;
  const std::size_t discCount = removed.size() + added.size();
  thread_local std::vector<img::RowSpan> spans;
  if (spans.size() < discCount * rowCount) spans.resize(discCount * rowCount);
  img::RowSpan* discRows = spans.data();
  for (const std::span<const Circle> side : {removed, added}) {
    for (const Circle& c : side) {
      k.discRows(c.x - originX_, c.y - originY_, c.r, img::RowRange{y0, y1},
                 gain_.width(), discRows);
      discRows += rowCount;
    }
  }
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

  double delta = 0.0;
  for (int y = y0; y <= y1; ++y) {
    int rowMin = x1 + 1;
    int rowMax = x0 - 1;
    const std::size_t row = static_cast<std::size_t>(y - y0);
    for (std::size_t i = 0; i < discCount; ++i) {
      const img::RowSpan s = spans[i * rowCount + row];
      if (s.x0 >= s.x1) continue;
      assert(s.x0 >= x0 && s.x1 <= x1 + 1);
      rowMin = std::min(rowMin, s.x0);
      rowMax = std::max(rowMax, s.x1 - 1);
      std::int16_t* diff = i < removed.size() ? diffOld : diffNew;
      ++diff[s.x0 - x0];
      --diff[s.x1 - x0];
    }
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
    delta += k.transitionDelta(gain_.row(y) + rowMin,
                               coverage_.row(y) + rowMin, dOld + off,
                               dNew + off, n);
  }
  return delta;
}

const PixelLikelihood::PrefixTable& PixelLikelihood::prefixTable() const {
  PrefixTable& table = *prefix_;
  // Only the likelihood that made the table can run this: crop() hands out
  // built tables only.
  std::call_once(table.once, [&] {
    const int width = gain_.width();
    table.width = width;
    const auto stride = static_cast<std::size_t>(width) + 1;
    table.sums.resize(stride * static_cast<std::size_t>(gain_.height()));
    table.rowAbs.resize(static_cast<std::size_t>(gain_.height()));
    for (int y = 0; y < gain_.height(); ++y) {
      const float* gain = gain_.row(y);
      double* prefix = table.sums.data() + stride * static_cast<std::size_t>(y);
      double sum = 0.0;
      double abs = 0.0;
      prefix[0] = 0.0;
      for (int x = 0; x < width; ++x) {
        sum += static_cast<double>(gain[x]);
        abs += std::fabs(static_cast<double>(gain[x]));
        prefix[x + 1] = sum;
      }
      table.rowAbs[static_cast<std::size_t>(y)] = abs;
    }
    table.built.store(true, std::memory_order_release);
  });
  return table;
}

bool PixelLikelihood::prefixTableBuilt() const noexcept {
  return prefix_ != nullptr && prefix_->built.load(std::memory_order_acquire);
}

PixelLikelihood::DiscSum PixelLikelihood::discSum(
    const PrefixTable& table, const Circle& c) const noexcept {
  const kernels::SpanKernels& k = kernels::spanKernels();
  const auto stride = static_cast<std::size_t>(table.width) + 1;
  DiscSum out;
  forEachDiscSpan(k, c.x - originX_, c.y - originY_, c.r, gain_.width(),
                  gain_.height(), [&](int y, img::RowSpan s) noexcept {
                    const auto row = static_cast<std::size_t>(y + prefixY_);
                    const double* prefix =
                        table.sums.data() + stride * row + prefixX_;
                    out.sum += prefix[s.x1] - prefix[s.x0];
                    out.rowAbs += table.rowAbs[row];
                    ++out.rows;
                  });
  return out;
}

double PixelLikelihood::estimateError(int width, int rows,
                                      double rowAbs) noexcept {
  // With u = 2^-53 and A the |gain| sum over the visited table rows, a sum
  // whose computation tree is at most n deep is off its real value by at
  // most n*u*A (to first order). A prefix entry is <= width deep and a
  // row's difference adds one rounding, the row fold is `rows` deep and a
  // replace subtracts once more: (2*width + rows + 2)*u*A. The exact
  // kernels' tree is <= width/8 + 4 deep per span (lanes, then the pairwise
  // combine) plus two segment adds and the `rows`-deep fold:
  // (width + rows + 6)*u*A. 4*(width + rows + 8)*u*A covers their sum,
  // (3*width + 2*rows + 8)*u*A, with room for the second-order terms and
  // the rounding of this expression.
  constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;
  return 4.0 * kUnitRoundoff * static_cast<double>(width + rows + 8) * rowAbs;
}

PixelLikelihood::Estimate PixelLikelihood::estimateAdd(const Circle& c) const {
  const PrefixTable& table = prefixTable();
  const DiscSum d = discSum(table, c);
  return {d.sum, estimateError(table.width, d.rows, d.rowAbs)};
}

PixelLikelihood::Estimate PixelLikelihood::estimateRemove(
    const Circle& c) const {
  const PrefixTable& table = prefixTable();
  const DiscSum d = discSum(table, c);
  return {-d.sum, estimateError(table.width, d.rows, d.rowAbs)};
}

PixelLikelihood::Estimate PixelLikelihood::estimateReplace(
    const Circle& oldC, const Circle& newC) const {
  // Each disc's pixels are covered by nothing else, so the pixels both
  // share stay covered and cancel: new\old gains minus old\new gains is
  // the new disc's sum minus the old disc's.
  const PrefixTable& table = prefixTable();
  const DiscSum added = discSum(table, newC);
  const DiscSum removed = discSum(table, oldC);
  return {added.sum - removed.sum,
          estimateError(table.width, added.rows + removed.rows,
                        added.rowAbs + removed.rowAbs)};
}

double PixelLikelihood::applyAdd(const Circle& c) noexcept {
  const kernels::SpanKernels& k = kernels::spanKernels();
  double delta = 0.0;
  forEachDiscSpan(k, c.x - originX_, c.y - originY_, c.r, gain_.width(),
                  gain_.height(), [&](int y, img::RowSpan s) noexcept {
                    delta += k.applyAdd(
                        gain_.row(y) + s.x0, coverage_.row(y) + s.x0,
                        static_cast<std::size_t>(s.x1 - s.x0));
                  });
  return delta;
}

double PixelLikelihood::applyRemove(const Circle& c) noexcept {
  const kernels::SpanKernels& k = kernels::spanKernels();
  double delta = 0.0;
  forEachDiscSpan(k, c.x - originX_, c.y - originY_, c.r, gain_.width(),
                  gain_.height(), [&](int y, img::RowSpan s) noexcept {
                    delta += k.applyRemove(
                        gain_.row(y) + s.x0, coverage_.row(y) + s.x0,
                        static_cast<std::size_t>(s.x1 - s.x0));
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
  // The crop's gains are this raster's: it reads its window of this
  // likelihood's prefix table, built here if no estimate has built it yet.
  (void)prefixTable();
  out.prefix_ = prefix_;
  out.prefixX_ = prefixX_ + (gx0 - originX_);
  out.prefixY_ = prefixY_ + (gy0 - originY_);
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
