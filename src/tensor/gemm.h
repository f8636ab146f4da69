// Single-precision matrix multiplication: reference kernels and the
// matmul wrappers.
//
// These are the hot loops of the whole library (conv layers lower to GEMM
// via im2col). Two kernels exist:
//  - the REFERENCE kernels here: cache-blocked loops with the strong-zero
//    semantics below. They are the semantic authority, the tiled
//    kernel's non-finite fallback and a test oracle.
//  - the TILED kernel (gemm_tiled.h): packed panels, register tiling and
//    parallel_for threading. matmul / matmul_nt / matmul_tn, Conv2d and
//    compiled plans all call it.
//
// Semantics of zeros (intentional, pinned by tests/gemm_test.cpp):
// `gemm` and `gemm_tn_ref` skip rank-1 updates whose left-operand element
// is exactly 0.0f, so zeros in A are STRONG zeros — a 0 in A annihilates
// NaN/Inf in the corresponding B row instead of producing NaN via IEEE
// 0*Inf. This is deliberate: pruning and masking create exact-zero
// weights, and a masked weight must fully silence its input no matter
// what flows through it. Nonzero entries propagate NaN/Inf normally.
// The tiled kernel preserves this observable contract by falling back to
// the reference path whenever its B operand contains non-finite values,
// so the matmul wrappers keep strong-zero behaviour.
#pragma once

#include "tensor/tensor.h"

namespace capr {

/// C = A(MxK) * B(KxN). Shapes validated; C allocated by callee.
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A(MxK) * B(NxK)^T.
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// C = A(KxM)^T * B(KxN).
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// Raw reference kernel: c[M,N] += a[M,K] * b[K,N] over contiguous
/// row-major buffers. `accumulate=false` zeroes c first. Strong zeros.
void gemm(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N,
          bool accumulate = false);

/// Raw reference kernel: c[M,N] += a[K,M]^T * b[K,N] (rank-1 form,
/// strong zeros on A^T). `accumulate=false` zeroes c first.
void gemm_tn_ref(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N,
                 bool accumulate = false);

}  // namespace capr
