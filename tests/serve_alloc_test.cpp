// Zero-allocation regression tests for the compiled serving hot path.
//
// tensor/alloc_stats.h counts every float-buffer allocation event
// (Tensor construction, capacity-growing Tensor::reset, ScratchArena
// growth). The contract: after ExecutionPlan::warm() every buffer the
// steady state needs exists, so repeated run_ref calls allocate NOTHING,
// and a running InferenceServer allocates exactly one float buffer per
// request (the per-request logits handed to the client) — any other
// growth is a regression in plan scratch pre-sizing or worker scratch
// reuse.
#include "tensor/alloc_stats.h"

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "compile/plan.h"
#include "models/builders.h"
#include "serve/server.h"
#include "serve/session.h"
#include "tensor/gemm_tune.h"
#include "tensor/rng.h"

namespace capr::serve {
namespace {

models::BuildConfig small_cfg() {
  models::BuildConfig cfg;
  cfg.num_classes = 4;
  cfg.input_size = 8;
  cfg.width_mult = 0.5f;
  return cfg;
}

Tensor random_batch(const Shape& in, int64_t n, uint64_t seed) {
  Tensor x({n, in[0], in[1], in[2]});
  Rng rng(seed);
  rng.fill_normal(x, 0.0f, 1.0f);
  return x;
}

Tensor random_sample(const Shape& in, uint64_t seed) {
  Tensor x({in[0], in[1], in[2]});
  Rng rng(seed);
  rng.fill_normal(x, 0.0f, 1.0f);
  return x;
}

// Direct compiled path: warm once, then steady-state run_ref performs
// zero float allocations, at max batch and at smaller batches (shrinking
// never reallocates).
TEST(ServeAllocTest, CompiledRunRefIsAllocationFreeAfterWarm) {
  SessionOptions opts;
  opts.mode = SessionOptions::Mode::kCompiled;
  const InferenceSession session(models::make_model("resnet20", small_cfg()), opts);
  ASSERT_NE(session.plan(), nullptr);

  constexpr int64_t kMaxBatch = 4;
  nn::InferScratch scratch;
  session.warm(scratch, kMaxBatch);

  // Every tensor the measured region touches is created up front.
  const Tensor full = random_batch(session.input_shape(), kMaxBatch, 11);
  const Tensor single = random_batch(session.input_shape(), 1, 12);
  session.run_ref(full, scratch);    // settle any first-touch growth
  session.run_ref(single, scratch);

  const uint64_t before = float_alloc_count();
  for (int i = 0; i < 16; ++i) {
    session.run_ref(full, scratch);
    session.run_ref(single, scratch);
  }
  const uint64_t after = float_alloc_count();
  EXPECT_EQ(after, before) << "compiled steady state allocated " << (after - before)
                           << " float buffer(s)";
}

// Same zero-alloc contract under a non-default tuning table: warm()
// pre-sizes scratch from the RESOLVED per-class config (including the
// larger whole-A packing split-N demands), not from the default one, so
// an installed tuning table must not reintroduce steady-state growth.
TEST(ServeAllocTest, CompiledRunRefIsAllocationFreeUnderTunedConfig) {
  auto table = std::make_shared<GemmTuningTable>();
  table->host = host_fingerprint();
  GemmTuneEntry entry;
  entry.present = true;
  entry.cfg = {40, 64, 4, GemmParallel::kSplitN};  // non-default on purpose
  for (auto& slot : table->entries) slot = entry;

  GemmTuningScope tuning(table);
  SessionOptions opts;
  opts.mode = SessionOptions::Mode::kCompiled;
  const InferenceSession session(models::make_model("resnet20", small_cfg()), opts);
  ASSERT_NE(session.plan(), nullptr);

  constexpr int64_t kMaxBatch = 4;
  nn::InferScratch scratch;
  session.warm(scratch, kMaxBatch);

  const Tensor full = random_batch(session.input_shape(), kMaxBatch, 13);
  const Tensor single = random_batch(session.input_shape(), 1, 14);
  session.run_ref(full, scratch);
  session.run_ref(single, scratch);

  const uint64_t before = float_alloc_count();
  for (int i = 0; i < 16; ++i) {
    session.run_ref(full, scratch);
    session.run_ref(single, scratch);
  }
  EXPECT_EQ(float_alloc_count(), before)
      << "steady state allocated under a tuned (split-N, mc=40/kc=64/mr=4) config — "
      << "warm() is pre-sizing from the default config instead of the resolved one";
}

// Contrast: the interpreted path constructs fresh intermediate tensors
// on every layer call, so it allocates on every run even when warm.
// This is the overhead the compiled plan's pre-sized slots eliminate —
// if this test starts seeing ZERO interpreted allocations, the counter
// hooks are broken and the compiled zero-alloc test above proves nothing.
TEST(ServeAllocTest, InterpretedRunRefStillAllocatesPerCall) {
  SessionOptions opts;
  opts.mode = SessionOptions::Mode::kInterpreted;
  const InferenceSession session(models::make_model("tiny", small_cfg()), opts);
  nn::InferScratch scratch;
  const Tensor batch = random_batch(session.input_shape(), 4, 21);
  session.run_ref(batch, scratch);
  session.run_ref(batch, scratch);

  const uint64_t before = float_alloc_count();
  constexpr int kRuns = 16;
  for (int i = 0; i < kRuns; ++i) session.run_ref(batch, scratch);
  EXPECT_GE(float_alloc_count() - before, static_cast<uint64_t>(kRuns))
      << "interpreted forward stopped allocating — alloc-count hooks look dead";
}

// Server steady state: with a warmed single worker, each request costs
// exactly ONE float allocation — the [num_classes] logits tensor handed
// back through the future. max_batch=1 keeps the stacked input at fixed
// capacity so the count is exact rather than an upper bound.
TEST(ServeAllocTest, ServerSteadyStateAllocatesOncePerRequest) {
  SessionOptions opts;
  opts.mode = SessionOptions::Mode::kCompiled;
  auto session = std::make_shared<const InferenceSession>(
      models::make_model("tiny", small_cfg()), opts);

  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.queue_capacity = 64;
  InferenceServer server(session, cfg);

  // Warmup: the worker builds its scratch, warms the plan, and grows the
  // persistent stacked-input tensor on the first request.
  for (int i = 0; i < 4; ++i) {
    auto fut = server.submit(random_sample(session->input_shape(), 30 + i));
    ASSERT_EQ(fut.get().status, RequestStatus::kOk);
  }

  constexpr int kRequests = 12;
  std::vector<Tensor> samples;
  samples.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i)
    samples.push_back(random_sample(session->input_shape(), 100 + i));

  const uint64_t before = float_alloc_count();
  std::vector<std::future<InferResult>> futures;
  futures.reserve(kRequests);
  for (Tensor& s : samples) futures.push_back(server.submit(std::move(s)));
  for (auto& f : futures) EXPECT_EQ(f.get().status, RequestStatus::kOk);
  const uint64_t after = float_alloc_count();

  EXPECT_EQ(after - before, static_cast<uint64_t>(kRequests))
      << "expected exactly one float allocation (the per-request logits) per request";
  server.shutdown();
}

}  // namespace
}  // namespace capr::serve
