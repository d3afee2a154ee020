#pragma once

// The row-geometry value types of disc rasterisation, in a header that
// defines no functions: the AVX2 geometry kernel (compiled with -mavx2)
// fills these, and it must not include disc_raster.hpp, whose inline
// functions would otherwise be emitted with -mavx2 and could win the
// link-time pick of the one out-of-line copy that every CPU runs.

namespace mcmcpar::img {

/// Inclusive range of raster rows [y0, y1]; empty iff y0 > y1. See
/// discRowRange in disc_raster.hpp.
struct RowRange {
  int y0;
  int y1;
};

/// Column span [x0, x1) of a disc on one raster row; empty iff x0 >= x1.
/// See discRowSpan in disc_raster.hpp.
struct RowSpan {
  int x0;
  int x1;
};

}  // namespace mcmcpar::img
