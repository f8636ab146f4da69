#include "verify/oracle.h"

#include <cmath>
#include <stdexcept>

#include "tensor/gemm_tiled.h"

namespace capr::verify {
namespace {

void require_rank2(const Tensor& m, const char* who) {
  if (m.rank() != 2) {
    throw std::invalid_argument(std::string(who) + ": expected rank-2 tensor, got " +
                                to_string(m.shape()));
  }
}

}  // namespace

void ref_gemm(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N,
              bool accumulate) {
  for (int64_t i = 0; i < M; ++i) {
    for (int64_t j = 0; j < N; ++j) {
      double acc = accumulate ? static_cast<double>(c[i * N + j]) : 0.0;
      for (int64_t k = 0; k < K; ++k) {
        acc += static_cast<double>(a[i * K + k]) * b[k * N + j];
      }
      c[i * N + j] = static_cast<float>(acc);
    }
  }
}

Tensor ref_matmul(const Tensor& a, const Tensor& b) {
  require_rank2(a, "ref_matmul lhs");
  require_rank2(b, "ref_matmul rhs");
  if (a.dim(1) != b.dim(0)) throw std::invalid_argument("ref_matmul: inner extents disagree");
  Tensor c({a.dim(0), b.dim(1)});
  ref_gemm(a.data(), b.data(), c.data(), a.dim(0), a.dim(1), b.dim(1));
  return c;
}

Tensor ref_matmul_nt(const Tensor& a, const Tensor& b) {
  require_rank2(a, "ref_matmul_nt lhs");
  require_rank2(b, "ref_matmul_nt rhs");
  const int64_t M = a.dim(0), K = a.dim(1), N = b.dim(0);
  if (b.dim(1) != K) throw std::invalid_argument("ref_matmul_nt: inner extents disagree");
  Tensor c({M, N});
  for (int64_t i = 0; i < M; ++i) {
    for (int64_t j = 0; j < N; ++j) {
      double acc = 0.0;
      for (int64_t k = 0; k < K; ++k) {
        acc += static_cast<double>(a[i * K + k]) * b[j * K + k];
      }
      c[i * N + j] = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor ref_matmul_tn(const Tensor& a, const Tensor& b) {
  require_rank2(a, "ref_matmul_tn lhs");
  require_rank2(b, "ref_matmul_tn rhs");
  const int64_t K = a.dim(0), M = a.dim(1), N = b.dim(1);
  if (b.dim(0) != K) throw std::invalid_argument("ref_matmul_tn: inner extents disagree");
  Tensor c({M, N});
  for (int64_t i = 0; i < M; ++i) {
    for (int64_t j = 0; j < N; ++j) {
      double acc = 0.0;
      for (int64_t k = 0; k < K; ++k) {
        acc += static_cast<double>(a[k * M + i]) * b[k * N + j];
      }
      c[i * N + j] = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor ref_im2col(const Tensor& image, const ConvGeom& g) {
  g.validate();
  if (image.shape() != Shape{g.in_channels, g.in_h, g.in_w}) {
    throw std::invalid_argument("ref_im2col: image shape " + to_string(image.shape()) +
                                " disagrees with geometry");
  }
  const int64_t oh = g.out_h(), ow = g.out_w();
  Tensor col({g.col_rows(), g.col_cols()});
  for (int64_t c = 0; c < g.in_channels; ++c) {
    for (int64_t ky = 0; ky < g.kernel_h; ++ky) {
      for (int64_t kx = 0; kx < g.kernel_w; ++kx) {
        const int64_t row = (c * g.kernel_h + ky) * g.kernel_w + kx;
        for (int64_t oy = 0; oy < oh; ++oy) {
          for (int64_t ox = 0; ox < ow; ++ox) {
            const int64_t iy = oy * g.stride + ky - g.padding;
            const int64_t ix = ox * g.stride + kx - g.padding;
            float v = 0.0f;
            if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w) {
              v = image[(c * g.in_h + iy) * g.in_w + ix];
            }
            col[row * g.col_cols() + oy * ow + ox] = v;
          }
        }
      }
    }
  }
  return col;
}

Tensor ref_pack_panels(const Tensor& mat) {
  require_rank2(mat, "ref_pack_panels");
  const int64_t K = mat.dim(0), N = mat.dim(1);
  Tensor out({packed_b_floats(K, N)});  // zero-initialised: tail columns stay 0
  for (int64_t k = 0; k < K; ++k) {
    for (int64_t j = 0; j < N; ++j) {
      out[(j / kPanelWidth) * K * kPanelWidth + k * kPanelWidth + j % kPanelWidth] =
          mat[k * N + j];
    }
  }
  return out;
}

bool ref_all_finite(const Tensor& t) {
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(t[i])) return false;
  }
  return true;
}

Tensor ref_col2im(const Tensor& col, const ConvGeom& g) {
  g.validate();
  if (col.shape() != Shape{g.col_rows(), g.col_cols()}) {
    throw std::invalid_argument("ref_col2im: column shape " + to_string(col.shape()) +
                                " disagrees with geometry");
  }
  const int64_t oh = g.out_h(), ow = g.out_w();
  Tensor im({g.in_channels, g.in_h, g.in_w});
  for (int64_t c = 0; c < g.in_channels; ++c) {
    for (int64_t ky = 0; ky < g.kernel_h; ++ky) {
      for (int64_t kx = 0; kx < g.kernel_w; ++kx) {
        const int64_t row = (c * g.kernel_h + ky) * g.kernel_w + kx;
        for (int64_t oy = 0; oy < oh; ++oy) {
          for (int64_t ox = 0; ox < ow; ++ox) {
            const int64_t iy = oy * g.stride + ky - g.padding;
            const int64_t ix = ox * g.stride + kx - g.padding;
            if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w) {
              im[(c * g.in_h + iy) * g.in_w + ix] += col[row * g.col_cols() + oy * ow + ox];
            }
          }
        }
      }
    }
  }
  return im;
}

Tensor ref_conv2d_forward(const Tensor& input, const Tensor& weight, const Tensor& bias,
                          int64_t stride, int64_t padding) {
  if (input.rank() != 4 || weight.rank() != 4 || input.dim(1) != weight.dim(1)) {
    throw std::invalid_argument("ref_conv2d_forward: bad input/weight shapes");
  }
  const int64_t n = input.dim(0), cin = input.dim(1), h = input.dim(2), w = input.dim(3);
  const int64_t cout = weight.dim(0), k = weight.dim(2);
  const int64_t oh = (h + 2 * padding - k) / stride + 1;
  const int64_t ow = (w + 2 * padding - k) / stride + 1;
  const bool has_bias = bias.numel() > 0;
  Tensor out({n, cout, oh, ow});
  for (int64_t img = 0; img < n; ++img) {
    for (int64_t f = 0; f < cout; ++f) {
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          double acc = has_bias ? static_cast<double>(bias[f]) : 0.0;
          for (int64_t c = 0; c < cin; ++c) {
            for (int64_t ky = 0; ky < k; ++ky) {
              const int64_t iy = oy * stride + ky - padding;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < k; ++kx) {
                const int64_t ix = ox * stride + kx - padding;
                if (ix < 0 || ix >= w) continue;
                acc += static_cast<double>(input[((img * cin + c) * h + iy) * w + ix]) *
                       weight[((f * cin + c) * k + ky) * k + kx];
              }
            }
          }
          out[((img * cout + f) * oh + oy) * ow + ox] = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

RefConvGrads ref_conv2d_backward(const Tensor& input, const Tensor& weight, bool has_bias,
                                 int64_t stride, int64_t padding, const Tensor& grad_output) {
  const int64_t n = input.dim(0), cin = input.dim(1), h = input.dim(2), w = input.dim(3);
  const int64_t cout = weight.dim(0), k = weight.dim(2);
  const int64_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  if (grad_output.shape() != Shape{n, cout, oh, ow}) {
    throw std::invalid_argument("ref_conv2d_backward: bad grad shape");
  }
  RefConvGrads g;
  g.input = Tensor(input.shape());
  g.weight = Tensor(weight.shape());
  g.bias = Tensor({has_bias ? cout : 0});
  for (int64_t img = 0; img < n; ++img) {
    for (int64_t f = 0; f < cout; ++f) {
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          const float go = grad_output[((img * cout + f) * oh + oy) * ow + ox];
          if (has_bias) g.bias[f] += go;
          for (int64_t c = 0; c < cin; ++c) {
            for (int64_t ky = 0; ky < k; ++ky) {
              const int64_t iy = oy * stride + ky - padding;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < k; ++kx) {
                const int64_t ix = ox * stride + kx - padding;
                if (ix < 0 || ix >= w) continue;
                const int64_t iidx = ((img * cin + c) * h + iy) * w + ix;
                const int64_t widx = ((f * cin + c) * k + ky) * k + kx;
                g.input[iidx] += weight[widx] * go;
                g.weight[widx] += input[iidx] * go;
              }
            }
          }
        }
      }
    }
  }
  return g;
}

}  // namespace capr::verify
