#include "tensor/im2col.h"

#include <cstring>
#include <stdexcept>

namespace capr {

void ConvGeom::validate() const {
  if (in_channels <= 0 || in_h <= 0 || in_w <= 0 || kernel_h <= 0 || kernel_w <= 0 ||
      stride <= 0 || padding < 0) {
    throw std::invalid_argument("ConvGeom: non-positive extent");
  }
  if (out_h() <= 0 || out_w() <= 0) {
    throw std::invalid_argument("ConvGeom: kernel " + std::to_string(kernel_h) + "x" +
                                std::to_string(kernel_w) + " does not fit input " +
                                std::to_string(in_h) + "x" + std::to_string(in_w) +
                                " with padding " + std::to_string(padding));
  }
}

void im2col(const float* im, const ConvGeom& g, float* col) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t plane = g.in_h * g.in_w;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    const float* chan = im + c * plane;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        float* out = col + row * (oh * ow);
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * g.stride + kh - g.padding;
          if (iy < 0 || iy >= g.in_h) {
            std::memset(out + y * ow, 0, static_cast<size_t>(ow) * sizeof(float));
            continue;
          }
          const float* irow = chan + iy * g.in_w;
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t ix = x * g.stride + kw - g.padding;
            out[y * ow + x] = (ix >= 0 && ix < g.in_w) ? irow[ix] : 0.0f;
          }
        }
      }
    }
  }
}

void col2im(const float* col, const ConvGeom& g, float* im) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t plane = g.in_h * g.in_w;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    float* chan = im + c * plane;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* in = col + row * (oh * ow);
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * g.stride + kh - g.padding;
          if (iy < 0 || iy >= g.in_h) continue;
          float* irow = chan + iy * g.in_w;
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t ix = x * g.stride + kw - g.padding;
            if (ix >= 0 && ix < g.in_w) irow[ix] += in[y * ow + x];
          }
        }
      }
    }
  }
}

Tensor im2col(const Tensor& image, const ConvGeom& g) {
  g.validate();
  const Shape want{g.in_channels, g.in_h, g.in_w};
  if (image.shape() != want) {
    throw std::invalid_argument("im2col: image shape " + to_string(image.shape()) +
                                " does not match geometry " + to_string(want));
  }
  Tensor col({g.col_rows(), g.col_cols()});
  im2col(image.data(), g, col.data());
  return col;
}

Tensor col2im(const Tensor& col, const ConvGeom& g) {
  g.validate();
  const Shape want{g.col_rows(), g.col_cols()};
  if (col.shape() != want) {
    throw std::invalid_argument("col2im: column shape " + to_string(col.shape()) +
                                " does not match geometry " + to_string(want));
  }
  Tensor im({g.in_channels, g.in_h, g.in_w});
  col2im(col.data(), g, im.data());
  return im;
}

}  // namespace capr
