// Differential testing of the optimized kernels against the naive oracle
// (src/verify/oracle.h) over randomized shape sweeps. Every sweep runs
// >= 50 seeded configurations; a failure message names the kernel, the
// exact configuration, and the worst element, so it reproduces directly.
#include "verify/oracle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/gemm.h"
#include "tensor/gemm_tiled.h"
#include "tensor/im2col.h"
#include "test_util.h"
#include "verify/shape_sweep.h"

namespace capr::verify {
namespace {

using testing::expect_allclose;

// ---- the oracle itself is hand-checked on tiny known cases -----------------

TEST(OracleSelfTest, RefMatmulKnownProduct) {
  const Tensor a = Tensor::from({2, 2}, {1, 2, 3, 4});
  const Tensor b = Tensor::from({2, 2}, {5, 6, 7, 8});
  EXPECT_TRUE(expect_allclose(ref_matmul(a, b), Tensor::from({2, 2}, {19, 22, 43, 50})));
}

TEST(OracleSelfTest, RefConvKnownValues) {
  // 1x1x2x2 input, one 2x2 filter, no padding: single output = dot + bias.
  const Tensor x = Tensor::from({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor w = Tensor::from({1, 1, 2, 2}, {10, 20, 30, 40});
  const Tensor b = Tensor::from({5});
  const Tensor y = ref_conv2d_forward(x, w, b, 1, 0);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 10 + 40 + 90 + 160 + 5);
}

TEST(OracleSelfTest, RefIm2colIdentityKernel) {
  // k=1, stride=1, pad=0: the column matrix is the image itself.
  ConvGeom g;
  g.in_channels = 2;
  g.in_h = 3;
  g.in_w = 3;
  g.kernel_h = g.kernel_w = 1;
  const Tensor im = testing::random_tensor({2, 3, 3}, 5);
  const Tensor col = ref_im2col(im, g);
  EXPECT_TRUE(expect_allclose(col, im.reshape({2, 9})));
}

// ---- im2col_packed's non-finite predicate ----------------------------------

ConvGeom geom(int64_t cin, int64_t hw, int64_t k, int64_t stride, int64_t pad) {
  ConvGeom g;
  g.in_channels = cin;
  g.in_h = g.in_w = hw;
  g.kernel_h = g.kernel_w = k;
  g.stride = stride;
  g.padding = pad;
  return g;
}

/// im2col_packed on `im`: returns the predicate and checks the panels
/// bitwise against ref_pack_panels(ref_im2col(im)).
bool packed_finite(const Tensor& im, const ConvGeom& g) {
  Tensor panels({packed_b_floats(g.col_rows(), g.col_cols())});
  const bool finite = im2col_packed(im.data(), g, panels.data());
  const Tensor want = ref_pack_panels(ref_im2col(im, g));
  EXPECT_EQ(std::memcmp(panels.data(), want.data(), sizeof(float) * want.numel()), 0);
  return finite;
}

TEST(Im2colPackedPredicateTest, NonFiniteAtSampledPixelIsReported) {
  const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()};
  // Unit stride (input scan), stride 2 with a 3x3 window (panel scan),
  // and 1x1 stride 2 at an even pixel, which the window samples.
  for (const ConvGeom& g : {geom(2, 8, 3, 1, 1), geom(2, 8, 3, 2, 1), geom(2, 8, 1, 2, 0)}) {
    for (float v : bad) {
      Tensor im = testing::random_tensor({2, 8, 8}, 11);
      EXPECT_TRUE(packed_finite(im, g));
      im[64 + 2 * 8 + 4] = v;  // channel 1, pixel (2, 4)
      EXPECT_FALSE(packed_finite(im, g)) << "value " << v << " stride " << g.stride;
    }
  }
}

TEST(Im2colPackedPredicateTest, NonFiniteAtUnreadPixelIsIgnored) {
  // 1x1 stride 2 reads only even (y, x): an odd pixel never reaches a
  // column, so pack_b(im2col(x)) is finite and so must the lowering be.
  const ConvGeom g = geom(2, 8, 1, 2, 0);
  for (float v : {std::numeric_limits<float>::quiet_NaN(),
                  std::numeric_limits<float>::infinity()}) {
    Tensor im = testing::random_tensor({2, 8, 8}, 12);
    im[64 + 3 * 8 + 5] = v;  // channel 1, pixel (3, 5)
    EXPECT_TRUE(ref_all_finite(ref_im2col(im, g)));
    EXPECT_TRUE(packed_finite(im, g));
  }
}

TEST(Im2colPackedPredicateTest, NegativeZeroSurvivesBitwise) {
  for (const ConvGeom& g : {geom(3, 5, 3, 1, 1), geom(3, 5, 3, 2, 2)}) {
    const Tensor im({3, 5, 5}, -0.0f);
    Tensor panels({packed_b_floats(g.col_rows(), g.col_cols())});
    ASSERT_TRUE(im2col_packed(im.data(), g, panels.data()));
    // Window samples keep the sign bit; padding and tail columns are +0.
    const Tensor want = ref_pack_panels(ref_im2col(im, g));
    EXPECT_EQ(std::memcmp(panels.data(), want.data(), sizeof(float) * want.numel()), 0);
    // Column 0 (output (0, 0)): tap (c 0, kh 2, kw 2), row 8, reads
    // pixel (1, 1) or (0, 0); tap (0, 0, 0), row 0, reads padding.
    EXPECT_TRUE(std::signbit(panels[8 * kPanelWidth]));
    EXPECT_FALSE(std::signbit(panels[0]));
  }
}

// ---- randomized differential sweeps ----------------------------------------

TEST(OracleSweepTest, GemmFamilyMatchesReference) {
  SweepOptions opts;
  opts.configs = 60;
  const SweepResult r = sweep_gemm(opts);
  EXPECT_GE(r.configs_run, 50);
  EXPECT_TRUE(r.ok()) << r.first_failure;
}

TEST(OracleSweepTest, Im2colCol2imMatchReferenceAndAreAdjoint) {
  SweepOptions opts;
  opts.configs = 60;
  const SweepResult r = sweep_im2col(opts);
  EXPECT_GE(r.configs_run, 50);
  EXPECT_TRUE(r.ok()) << r.first_failure;
}

TEST(OracleSweepTest, Conv2dForwardBackwardMatchDirectConvolution) {
  SweepOptions opts;
  opts.configs = 55;
  const SweepResult r = sweep_conv2d(opts);
  EXPECT_GE(r.configs_run, 50);
  EXPECT_TRUE(r.ok()) << r.first_failure;
}

TEST(OracleSweepTest, DifferentSeedsCoverDifferentConfigs) {
  // The sweep must actually randomize: two seeds may not produce the
  // same pass/fail trace trivially — sanity-check by running both.
  SweepOptions a, b;
  a.configs = b.configs = 50;
  a.seed = 1;
  b.seed = 2;
  EXPECT_TRUE(sweep_gemm(a).ok());
  EXPECT_TRUE(sweep_gemm(b).ok());
}

}  // namespace
}  // namespace capr::verify
