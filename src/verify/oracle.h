// Naive reference implementations of the hot kernels.
//
// Every routine here is written as the textbook definition — plain loops,
// no blocking, no zero-skipping, no threading, double accumulators — so
// that it is obviously correct by inspection. The optimized kernels in
// src/tensor and src/nn are validated against these references over
// randomized shape sweeps (see shape_sweep.h). When a perf PR breaks a
// kernel, the oracle names the exact element that diverged.
//
// Note one deliberate semantic divergence: capr::gemm treats zeros in A
// as strong zeros (a 0 in A annihilates NaN/Inf in B — see
// tensor/gemm.h), while ref_gemm follows IEEE propagation. Differential
// sweeps use finite inputs, where the two agree exactly in exact
// arithmetic.
#pragma once

#include <cstdint>

#include "tensor/im2col.h"
#include "tensor/tensor.h"

namespace capr::verify {

/// c[M,N] += a[M,K] * b[K,N] (accumulate=false zeroes c first).
void ref_gemm(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N,
              bool accumulate = false);

/// C = A(MxK) * B(KxN).
Tensor ref_matmul(const Tensor& a, const Tensor& b);

/// C = A(MxK) * B(NxK)^T.
Tensor ref_matmul_nt(const Tensor& a, const Tensor& b);

/// C = A(KxM)^T * B(KxN).
Tensor ref_matmul_tn(const Tensor& a, const Tensor& b);

/// Column matrix [Cin*Kh*Kw, Hout*Wout] of one CHW image.
Tensor ref_im2col(const Tensor& image, const ConvGeom& g);

/// Packed-B panel layout of a [K, N] matrix, by definition: element
/// (k, j) at (j / kPanelWidth) * K * kPanelWidth + k * kPanelWidth +
/// j % kPanelWidth, the tail panel's missing columns zero. Returns the
/// packed_b_floats(K, N) buffer as a rank-1 tensor. The reference for
/// im2col_packed is ref_pack_panels(ref_im2col(image, g)).
Tensor ref_pack_panels(const Tensor& mat);

/// True iff std::isfinite holds for every element (pack_b's predicate).
bool ref_all_finite(const Tensor& t);

/// Adjoint of ref_im2col: accumulates a column matrix back into CHW.
Tensor ref_col2im(const Tensor& col, const ConvGeom& g);

/// Direct convolution: input [N,Cin,H,W], weight [Cout,Cin,K,K],
/// bias [Cout] or empty. No im2col, no GEMM.
Tensor ref_conv2d_forward(const Tensor& input, const Tensor& weight, const Tensor& bias,
                          int64_t stride, int64_t padding);

struct RefConvGrads {
  Tensor input;   // [N,Cin,H,W]
  Tensor weight;  // [Cout,Cin,K,K]
  Tensor bias;    // [Cout], empty when has_bias is false
};

/// Direct-convolution backward for the same geometry.
RefConvGrads ref_conv2d_backward(const Tensor& input, const Tensor& weight, bool has_bias,
                                 int64_t stride, int64_t padding, const Tensor& grad_output);

}  // namespace capr::verify
