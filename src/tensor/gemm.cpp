#include "tensor/gemm.h"

#include <cstring>
#include <stdexcept>

#include "tensor/gemm_tiled.h"

namespace capr {
namespace {

void require_rank2(const Tensor& m, const char* who) {
  if (m.rank() != 2) {
    throw std::invalid_argument(std::string(who) + ": expected rank-2 tensor, got " +
                                to_string(m.shape()));
  }
}

}  // namespace

void gemm(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N,
          bool accumulate) {
  if (!accumulate) std::memset(c, 0, static_cast<size_t>(M * N) * sizeof(float));
  // Block over K to keep the B panel in cache; ikj inner order gives
  // unit-stride access on both B and C, which vectorises cleanly.
  constexpr int64_t KB = 128;
  for (int64_t k0 = 0; k0 < K; k0 += KB) {
    const int64_t k1 = k0 + KB < K ? k0 + KB : K;
    for (int64_t i = 0; i < M; ++i) {
      const float* arow = a + i * K;
      float* crow = c + i * N;
      for (int64_t k = k0; k < k1; ++k) {
        const float aik = arow[k];
        // Strong zero: a pruned/masked (exactly zero) A element must
        // contribute nothing, even against NaN/Inf in B (see gemm.h).
        if (aik == 0.0f) continue;
        const float* brow = b + k * N;
        for (int64_t j = 0; j < N; ++j) crow[j] += aik * brow[j];
      }
    }
  }
}

void gemm_tn_ref(const float* a, const float* b, float* c, int64_t M, int64_t K, int64_t N,
                 bool accumulate) {
  if (!accumulate) std::memset(c, 0, static_cast<size_t>(M * N) * sizeof(float));
  // C[i,j] += A[k,i] * B[k,j]: rank-1 update per k keeps unit stride.
  for (int64_t k = 0; k < K; ++k) {
    const float* arow = a + k * M;
    const float* brow = b + k * N;
    for (int64_t i = 0; i < M; ++i) {
      const float aki = arow[i];
      if (aki == 0.0f) continue;
      float* crow = c + i * N;
      for (int64_t j = 0; j < N; ++j) crow[j] += aki * brow[j];
    }
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul lhs");
  require_rank2(b, "matmul rhs");
  const int64_t M = a.dim(0), K = a.dim(1);
  if (b.dim(0) != K) {
    throw std::invalid_argument("matmul: inner extents disagree, " + to_string(a.shape()) +
                                " x " + to_string(b.shape()));
  }
  const int64_t N = b.dim(1);
  Tensor c({M, N});
  gemm_tiled(a.data(), b.data(), c.data(), M, K, N);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul_nt lhs");
  require_rank2(b, "matmul_nt rhs");
  const int64_t M = a.dim(0), K = a.dim(1);
  if (b.dim(1) != K) {
    throw std::invalid_argument("matmul_nt: inner extents disagree, " + to_string(a.shape()) +
                                " x " + to_string(b.shape()) + "^T");
  }
  const int64_t N = b.dim(0);
  Tensor c({M, N});
  gemm_tiled_nt(a.data(), b.data(), c.data(), M, K, N);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul_tn lhs");
  require_rank2(b, "matmul_tn rhs");
  const int64_t K = a.dim(0), M = a.dim(1);
  if (b.dim(0) != K) {
    throw std::invalid_argument("matmul_tn: inner extents disagree, " + to_string(a.shape()) +
                                "^T x " + to_string(b.shape()));
  }
  const int64_t N = b.dim(1);
  Tensor c({M, N});
  gemm_tiled_tn(a.data(), b.data(), c.data(), M, K, N);
  return c;
}

}  // namespace capr
