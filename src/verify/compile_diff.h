// Differential harness for the graph compiler.
//
// The compiled-path contract (compile/plan.h) has two tiers: exact
// passes must be BITWISE identical to the interpreted forward, and the
// BN-fold pass must agree to a small relative epsilon. These helpers
// run both paths on the same batch and report exactly how far apart
// they are, naming the first divergent element so a broken pass fails
// with a pointed message (tests/compile_test.cpp drives them across all
// archs x {dense, pruned}).
#pragma once

#include <cstdint>
#include <string>

#include "compile/compiler.h"
#include "nn/model.h"

namespace capr::verify {

struct PlanDiff {
  bool shape_match = false;
  bool bitwise = false;       // every element identical at the bit level
  double max_abs_err = 0.0;   // max |compiled - interpreted|
  double max_rel_err = 0.0;   // max |diff| / max(|interpreted|, 1e-6)
  int64_t mismatches = 0;     // elements that are not bitwise equal
  int64_t first_mismatch = -1;
  std::string detail;         // human-readable location of the divergence
};

/// Runs `batch` through Model::forward_inference and through `plan`,
/// then compares element-wise.
PlanDiff diff_against_interpreted(const nn::Model& model, const compile::ExecutionPlan& plan,
                                  const Tensor& batch);

/// Compiles `model` with `opts` and diffs. Throws std::logic_error when
/// compilation itself fails (the model was admitted, so it must compile).
PlanDiff compile_and_diff(const nn::Model& model, const compile::CompileOptions& opts,
                          const Tensor& batch);

}  // namespace capr::verify
