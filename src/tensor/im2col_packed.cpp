// Conv lowering straight into the tiled GEMM's packed-B panel layout.
//
// Kept out of im2col.cpp on purpose: the training im2col()/col2im()
// loops are sensitive to code placement, and this file's hot loops
// share nothing with them.
//
// The lowering never tests bounds per element. Padding is materialised
// once per image in a zero-bordered copy, after which every window read
// is in range. Each 16-wide panel row is then a few fixed-size copies
// (unit stride, output rows tiling the panel) or a gather, through a
// run-offset table computed once per panel and shared by all K rows.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>

#include "tensor/gemm_tiled.h"
#include "tensor/im2col.h"

namespace capr {
namespace {

constexpr int64_t kNR = kPanelWidth;

/// OR-accumulator of the non-finite test: bit 31 of the sum is set iff
/// the exponent field is all ones (Inf or NaN), because only then does
/// adding one exponent unit carry out of the field.
uint32_t nonfinite_bits(const float* p, int64_t n) {
  uint32_t acc = 0;
  for (int64_t i = 0; i < n; ++i) {
    acc |= (std::bit_cast<uint32_t>(p[i]) & 0x7f800000u) + 0x00800000u;
  }
  return acc;
}

/// Copies the CHW image into `padded` [Cin, H+2p, W+2p] with a zero
/// border. Rows are short (W is 2..32 in the served nets), so they are
/// copied in fixed 8- and 4-float chunks rather than one memcpy call each.
void pad_image(const float* im, const ConvGeom& g, float* padded) {
  const int64_t p = g.padding;
  const int64_t wp = g.in_w + 2 * p;
  const int64_t plane = (g.in_h + 2 * p) * wp;
  std::memset(padded, 0, static_cast<size_t>(g.in_channels * plane) * sizeof(float));
  for (int64_t c = 0; c < g.in_channels; ++c) {
    float* dst = padded + c * plane + p * wp + p;
    const float* src = im + c * g.in_h * g.in_w;
    for (int64_t y = 0; y < g.in_h; ++y, dst += wp, src += g.in_w) {
      int64_t x = 0;
      for (; x + 8 <= g.in_w; x += 8) std::memcpy(dst + x, src + x, 8 * sizeof(float));
      if (x + 4 <= g.in_w) {
        std::memcpy(dst + x, src + x, 4 * sizeof(float));
        x += 4;
      }
      for (; x < g.in_w; ++x) dst[x] = src[x];
    }
  }
}

/// Fills one panel: for every (c, kh, kw) row, `w / L` runs of L
/// consecutive floats, run r starting `off[r]` past the row's window
/// base; a tail panel (w < 16) row is zeroed first. L is a template
/// constant so each run, like the zeroing, is a fixed-size copy.
template <int64_t L>
void fill_panel(float* dst, const float* src, int64_t plane, int64_t pitch, const ConvGeom& g,
                const int64_t* off, int64_t w) {
  const int64_t runs = w / L;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      const float* row = src + c * plane + kh * pitch;
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, dst += kNR) {
        if (w < kNR) std::memset(dst, 0, kNR * sizeof(float));
        for (int64_t r = 0; r < runs; ++r) {
          std::memcpy(dst + r * L, row + kw + off[r], L * sizeof(float));
        }
      }
    }
  }
}

}  // namespace

int64_t im2col_padded_floats(const ConvGeom& g) {
  if (g.padding == 0) return 0;
  return g.in_channels * (g.in_h + 2 * g.padding) * (g.in_w + 2 * g.padding);
}

bool im2col_packed(const float* im, const ConvGeom& g, float* panels, float* padded) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t cols = oh * ow;
  const int64_t K = g.col_rows();
  const int64_t s = g.stride;
  // Source image: the padded copy, or the input itself when no window
  // reaches outside it.
  const float* src = im;
  int64_t pitch = g.in_w, plane = g.in_h * g.in_w;
  if (g.padding > 0) {
    pad_image(im, g, padded);
    src = padded;
    pitch = g.in_w + 2 * g.padding;
    plane = (g.in_h + 2 * g.padding) * pitch;
  }

  // Each panel row is a sequence of runs: L consecutive output columns
  // whose windows are L consecutive source floats. Under unit stride an
  // output row is one contiguous run, so when it tiles the panel width
  // (ow a multiple or a divisor of 16) every panel is whole runs of
  // L = min(ow, 16); otherwise runs are single elements, a gather.
  const int64_t L = s == 1 && (ow % kNR == 0 || kNR % ow == 0) ? std::min(ow, kNR) : 1;
  int64_t y = 0, x = 0;  // output position of the next run
  for (int64_t j0 = 0; j0 < cols; j0 += kNR) {
    const int64_t w = std::min(kNR, cols - j0);
    int64_t off[kNR];
    for (int64_t r = 0; r < w / L; ++r) {
      off[r] = y * s * pitch + x * s;
      x += L;
      if (x == ow) {
        x = 0;
        ++y;
      }
    }
    float* dst = panels + (j0 / kNR) * K * kNR;
    switch (L) {
      case 16: fill_panel<16>(dst, src, plane, pitch, g, off, w); break;
      case 8: fill_panel<8>(dst, src, plane, pitch, g, off, w); break;
      case 4: fill_panel<4>(dst, src, plane, pitch, g, off, w); break;
      case 2: fill_panel<2>(dst, src, plane, pitch, g, off, w); break;
      default: fill_panel<1>(dst, src, plane, pitch, g, off, w); break;
    }
  }

  // pack_b's predicate: is any column value non-finite? Padding zeros
  // are finite, so only image pixels some window reads matter. Under
  // unit stride every pixel is read, so scanning the (smaller) input is
  // exact; larger strides can skip pixels, so scan what was written.
  const uint32_t acc = s == 1 ? nonfinite_bits(im, g.in_channels * g.in_h * g.in_w)
                              : nonfinite_bits(panels, packed_b_floats(K, cols));
  return (acc & 0x80000000u) == 0;
}

bool im2col_packed(const float* im, const ConvGeom& g, float* panels) {
  std::unique_ptr<float[]> padded;
  if (g.padding > 0) padded = std::make_unique_for_overwrite<float[]>(im2col_padded_floats(g));
  return im2col_packed(im, g, panels, padded.get());
}

}  // namespace capr
