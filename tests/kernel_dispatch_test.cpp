// Pins the production GEMM path against the naive oracles and how the
// strong-zero contract survives it.
//
// matmul / matmul_nt / matmul_tn and Conv2d run the tiled kernels. The
// load-bearing property for the pruning framework: a masked layer must
// silence poisoned (NaN/Inf) activations behind its exact-zero weights —
// the tiled path detects non-finite B operands and routes the call
// through the strong-zero reference kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "nn/conv2d.h"
#include "tensor/gemm.h"
#include "tensor/gemm_tiled.h"
#include "tensor/rng.h"
#include "testutil/testutil.h"
#include "verify/oracle.h"

namespace capr {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

Tensor random(Rng& rng, Shape shape) {
  Tensor t(std::move(shape));
  rng.fill_uniform(t, -1.0f, 1.0f);
  return t;
}

TEST(KernelDispatchTest, MatmulWrappersMatchOracleOnAllVariants) {
  // Awkward remainder shape: no dimension divides the tile sizes.
  const int64_t m = 37, k = 129, n = 53;
  Rng rng(42);
  const Tensor a = random(rng, {m, k});
  const Tensor b = random(rng, {k, n});
  const Tensor bt = random(rng, {n, k});
  const Tensor at = random(rng, {k, m});

  EXPECT_TRUE(testing::allclose_report(matmul(a, b), verify::ref_matmul(a, b), 1e-4f, 1e-3f).ok);
  EXPECT_TRUE(
      testing::allclose_report(matmul_nt(a, bt), verify::ref_matmul_nt(a, bt), 1e-4f, 1e-3f).ok);
  EXPECT_TRUE(
      testing::allclose_report(matmul_tn(at, b), verify::ref_matmul_tn(at, b), 1e-4f, 1e-3f).ok);
}

TEST(KernelDispatchTest, StrongZeroHoldsUnderTiledKernel) {
  // Column 1 of A is exactly zero; row 1 of B is poisoned. The zero must
  // annihilate NaN/Inf on the tiled path: pack_b spots the non-finite
  // operand and the call runs on the reference kernel.
  Tensor a({2, 2});
  a[0] = 1.0f, a[1] = 0.0f, a[2] = 2.0f, a[3] = 0.0f;
  Tensor b({2, 3});
  b[0] = 1.0f, b[1] = 2.0f, b[2] = 3.0f;
  b[3] = kNan, b[4] = kInf, b[5] = -kInf;
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c[0], 1.0f);
  EXPECT_FLOAT_EQ(c[1], 2.0f);
  EXPECT_FLOAT_EQ(c[2], 3.0f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
  EXPECT_FLOAT_EQ(c[4], 4.0f);
  EXPECT_FLOAT_EQ(c[5], 6.0f);
}

TEST(KernelDispatchTest, NonzeroWeightsStillPropagateNaNUnderTiled) {
  Tensor a({1, 2});
  a[0] = 1.0f, a[1] = 0.5f;
  Tensor b({2, 2});
  b[0] = 1.0f, b[1] = 1.0f;
  b[2] = kNan, b[3] = kInf;
  const Tensor c = matmul(a, b);
  EXPECT_TRUE(std::isnan(c[0]));
  EXPECT_TRUE(std::isinf(c[1]));
}

TEST(KernelDispatchTest, RawTiledFallsBackOnNonFiniteB) {
  // Same call, raw entry point: gemm_tiled must agree bitwise with the
  // reference kernel whenever B is poisoned (it IS the reference then).
  const int64_t m = 9, k = 20, n = 33;
  Rng rng(7);
  const Tensor a = random(rng, {m, k});
  Tensor b = random(rng, {k, n});
  b[5 * n + 2] = kNan;
  Tensor got({m, n}), want({m, n});
  gemm_tiled(a.data(), b.data(), got.data(), m, k, n);
  gemm(a.data(), b.data(), want.data(), m, k, n);
  for (int64_t i = 0; i < got.numel(); ++i) {
    if (std::isnan(want[i])) {
      EXPECT_TRUE(std::isnan(got[i])) << "at " << i;
    } else {
      EXPECT_EQ(got[i], want[i]) << "at " << i;
    }
  }
}

TEST(KernelDispatchTest, MaskedConvSilencesPoisonedChannelUnderTiled) {
  // All weights reading input channel 1 are exactly zero (a masked
  // channel); channel 1 of the input is poisoned with NaN. The conv
  // output must stay finite and equal the clean-input output: this is
  // the strong-zero contract end-to-end through im2col + dispatch.
  nn::Conv2d conv(2, 3, 3, 1, 1, /*bias=*/true);
  Rng rng(11);
  rng.fill_uniform(conv.weight().value, -1.0f, 1.0f);
  rng.fill_uniform(conv.bias().value, -1.0f, 1.0f);
  const int64_t kk = conv.kernel() * conv.kernel();
  for (int64_t f = 0; f < conv.out_channels(); ++f) {
    float* wch1 = conv.weight().value.data() + (f * 2 + 1) * kk;
    for (int64_t i = 0; i < kk; ++i) wch1[i] = 0.0f;
  }

  Tensor clean = random(rng, {1, 2, 6, 6});
  for (int64_t i = 0; i < 36; ++i) clean[36 + i] = 0.0f;  // channel 1
  Tensor poisoned = clean;
  for (int64_t i = 0; i < 36; ++i) poisoned[36 + i] = kNan;

  const Tensor y_clean = conv.forward(clean, /*training=*/false);
  const Tensor y_poisoned = conv.forward(poisoned, /*training=*/false);
  for (int64_t i = 0; i < y_poisoned.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(y_poisoned[i])) << "NaN leaked through masked channel at " << i;
  }
  // The poisoned call runs on the reference kernel (fallback), the clean
  // one on the fast path; equal up to accumulation-order rounding.
  const auto rep = testing::allclose_report(y_poisoned, y_clean, 1e-5f, 1e-5f);
  EXPECT_TRUE(rep.ok) << rep.message;
}

TEST(KernelDispatchTest, ConvForwardBackwardMatchesOracle) {
  nn::Conv2d conv(3, 8, 3, 1, 1, /*bias=*/true);
  Rng rng(21);
  rng.fill_uniform(conv.weight().value, -1.0f, 1.0f);
  rng.fill_uniform(conv.bias().value, -1.0f, 1.0f);
  const Tensor x = random(rng, {2, 3, 10, 10});
  const Tensor go = random(rng, {2, 8, 10, 10});

  for (nn::Param* p : conv.params()) p->zero_grad();
  const Tensor y = conv.forward(x, /*training=*/true);
  const Tensor gx = conv.backward(go);
  const Tensor y_ref = verify::ref_conv2d_forward(x, conv.weight().value, conv.bias().value,
                                                  /*stride=*/1, /*padding=*/1);
  const verify::RefConvGrads g_ref = verify::ref_conv2d_backward(
      x, conv.weight().value, /*has_bias=*/true, /*stride=*/1, /*padding=*/1, go);
  EXPECT_TRUE(testing::allclose_report(y, y_ref, 1e-4f, 1e-3f).ok);
  EXPECT_TRUE(testing::allclose_report(gx, g_ref.input, 1e-4f, 1e-3f).ok);
  EXPECT_TRUE(testing::allclose_report(conv.weight().grad, g_ref.weight, 1e-3f, 1e-3f).ok);
  EXPECT_TRUE(testing::allclose_report(conv.bias().grad, g_ref.bias, 1e-4f, 1e-3f).ok);
}

}  // namespace
}  // namespace capr
