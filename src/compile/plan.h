// ExecutionPlan: the immutable compiled form of a model's inference
// forward pass.
//
// The interpreted path (Layer::forward_inference) re-decides everything
// per call: it copies the filter matrix, re-packs the im2col operand for
// the tiled GEMM, allocates every intermediate activation, and walks the
// layer tree. A plan front-loads all of that to compile time
// (src/compile/compiler.h): layers become a flat vector of Steps over
// numbered value slots, BatchNorms can be folded into their producer
// convs, ReLU/LeakyReLU epilogues are fused into the producing step's
// write-back, and conv/linear weights are pre-packed into the tiled
// kernel's strip/panel layouts. At run time the plan only executes.
//
// Numerics contract (pinned by tests/compile_test.cpp):
//   - With BN folding OFF, a plan's output is BITWISE identical to the
//     interpreted forward: every step either re-runs the interpreted
//     arithmetic through the same shared out-of-line kernels (bn_eval,
//     the tiled micro-kernel and its strong-zero reference fallback)
//     or replicates its exact element-order float ops.
//     Epilogue fusion and weight pre-packing are exact transformations.
//   - BN folding is the one value-changing pass: it rewrites weights as
//     w' = w * gamma/sqrt(var+eps) in double precision, so folded plans
//     agree with the interpreted forward to a small relative epsilon,
//     not bitwise (documented in HACKING.md).
//
// Threading: a plan is immutable after build and holds no mutable state;
// any number of threads may run it concurrently, each with its own
// InferScratch. Per-run temporaries (value slots, im2col panels, GEMM
// pack buffers) all live in the scratch, and after one warm() at the
// target batch size the steady-state hot path performs zero
// float-buffer allocation (tensor/alloc_stats.h).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "nn/layer.h"
#include "tensor/gemm_tiled.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"

namespace capr::compile {

/// What a Step computes. One step usually covers one graph node; fusion
/// passes merge activation nodes into their producer's step.
enum class StepKind {
  kConv,
  kBatchNorm,
  kActivation,
  kAdd,
  kMaxPool,
  kAvgPool,
  kGlobalAvgPool,
  kFlatten,
  kLinear,
  kInterpreted,  // per-node fallback: runs the layer's forward_inference
};

const char* to_string(StepKind kind);

/// Activation fused into a step's write-back (kNone when unfused).
enum class Epilogue { kNone = 0, kReLU = 1, kLeakyReLU = 2 };

/// One executable operation over value slots. Slot -1 is the plan input
/// batch; every other slot is an InferScratch tensor indexed by number.
struct Step {
  StepKind kind = StepKind::kInterpreted;
  std::vector<graph::NodeId> nodes;  // graph nodes covered (>1 after fusion)
  int in0 = -1;
  int in1 = -1;  // second operand (kAdd only)
  int out = -1;
  Shape out_shape;  // per-image output shape (batch dim excluded)

  Epilogue act = Epilogue::kNone;
  float alpha = 0.0f;  // LeakyReLU slope when act == kLeakyReLU

  // kConv: weight is the (possibly BN-folded) [Cout, Cin*K*K] filter
  // matrix; bias [Cout] or empty. kLinear reuses weight/bias as the
  // [out_features, in_features] matrix and its bias.
  ConvGeom geom;
  int64_t out_channels = 0;  // conv Cout / linear out_features
  Tensor weight;
  Tensor bias;
  PackedA packed_w;   // kConv: pre-packed weight strips
  PackedB packed_in;  // kLinear: pre-packed transposed weight panels
  bool prepacked = false;
  bool folded_bn = false;  // kConv: a BatchNorm was folded into weight/bias

  // kBatchNorm: owned copies so a shareable plan outlives the model.
  std::vector<float> bn_gamma, bn_beta, bn_mean, bn_var;
  float bn_eps = 0.0f;

  // kMaxPool / kAvgPool
  int64_t window = 0, stride = 0;

  // kInterpreted: the backing layer. Plans holding any such pointer are
  // tied to their model instance and are never cached across models.
  const nn::Layer* layer = nullptr;
};

/// The compiled plan. Built by compile() (compiler.h); immutable after.
class ExecutionPlan {
 public:
  /// Runs the plan on a batch [N, C, H, W] (N may vary per call, shapes
  /// must match input_shape()). Returns a reference to the output slot
  /// inside `scratch` — valid until the next run with that scratch, and
  /// allocation-free at steady state.
  const Tensor& run_ref(const Tensor& batch, nn::InferScratch& scratch) const;

  /// Value-returning convenience: exactly one Tensor allocation (the
  /// copy of the output slot into the returned value).
  Tensor run(const Tensor& batch, nn::InferScratch& scratch) const;

  /// Pre-sizes every slot, arena buffer, and GEMM scratch in `scratch`
  /// by running a zero batch of `max_batch` images; afterwards runs at
  /// batch sizes <= max_batch allocate nothing.
  void warm(nn::InferScratch& scratch, int64_t max_batch) const;

  const std::vector<Step>& steps() const { return steps_; }
  const Shape& input_shape() const { return input_; }  // per-image [C, H, W]
  int slot_count() const { return num_slots_; }
  int output_slot() const { return output_slot_; }

  /// True when no step holds a layer pointer: the plan is self-contained
  /// and may be shared across models via the PlanCache.
  bool shareable() const { return interpreted_steps_ == 0; }
  int interpreted_steps() const { return interpreted_steps_; }
  int folded_batchnorms() const { return folded_bn_; }
  int fused_epilogues() const { return fused_epilogues_; }
  /// Total pre-packed weight floats held by the plan.
  int64_t prepacked_floats() const;
  /// Worst-case per-worker arena floats a run needs (im2col buffers).
  /// Computed once at build time from step geometry; the plan verifier
  /// (compile/verifier.h) re-derives the demand independently and
  /// rejects a plan whose declared value is too small.
  int64_t scratch_floats() const { return scratch_floats_; }

 private:
  friend struct PlanBuilder;
  friend struct PlanTestAccess;

  void exec_step(const Step& s, const Tensor& batch, nn::InferScratch& scratch) const;
  const Tensor& value(int slot, const Tensor& batch, nn::InferScratch& scratch) const;
  /// Re-derives scratch_floats_ from the current steps (PlanBuilder).
  void recompute_scratch_floats();

  std::vector<Step> steps_;
  Shape input_;
  int num_slots_ = 0;
  int output_slot_ = -1;
  int interpreted_steps_ = 0;
  int folded_bn_ = 0;
  int fused_epilogues_ = 0;
  int64_t scratch_floats_ = 0;
};

/// Test-only backdoor into a plan's private state. The corrupted-plan
/// suite (tests/plan_verifier_test.cpp) copies a real compiled plan and
/// tampers with it to prove the verifier rejects each corruption class;
/// nothing outside tests may use this.
struct PlanTestAccess {
  static std::vector<Step>& steps(ExecutionPlan& p) { return p.steps_; }
  static int& num_slots(ExecutionPlan& p) { return p.num_slots_; }
  static int& output_slot(ExecutionPlan& p) { return p.output_slot_; }
  static int64_t& scratch_floats(ExecutionPlan& p) { return p.scratch_floats_; }
  static int& interpreted_steps(ExecutionPlan& p) { return p.interpreted_steps_; }
};

}  // namespace capr::compile
