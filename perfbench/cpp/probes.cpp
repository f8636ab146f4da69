#include "probes.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "compile/compiler.h"
#include "graph/graph.h"
#include "tensor/gemm_tiled.h"
#include "tensor/gemm_tune.h"
#include "tensor/im2col.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "tensor/scratch.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace cc = capr::compile;

double us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

capr::Tensor random_batch(const capr::Shape& image, int64_t n, capr::Rng& rng) {
  capr::Shape shape{n};
  shape.insert(shape.end(), image.begin(), image.end());
  capr::Tensor t(shape);
  rng.fill_normal(t, 0.0f, 1.0f);
  return t;
}

/// Median microseconds of `fn` over at least `min_reps` calls and about
/// `budget_s` seconds.
template <class Fn>
double median_us(Fn&& fn, int min_reps, double budget_s) {
  std::vector<double> t;
  const auto stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(budget_s));
  while (static_cast<int>(t.size()) < min_reps || Clock::now() < stop) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(us(t0, Clock::now()));
    if (t.size() > 100000) break;
  }
  return median(std::move(t));
}

struct KernelTimes {
  double im2col_us = 0.0, gemm_us = 0.0, linear_us = 0.0, flops = 0.0;
};

/// Reusable replay buffers sized for the largest step, filled once with
/// finite values and reused across steps like a worker's warmed arena.
struct ReplayBuffers {
  std::vector<float> in, panels, out;
  capr::GemmScratch gemm;
};

ReplayBuffers replay_buffers(const cc::ExecutionPlan& plan, int64_t n, capr::Rng& rng) {
  size_t in = 0, panels = 0, out = 0;
  for (const cc::Step& s : plan.steps()) {
    if (s.kind == cc::StepKind::kConv) {
      const capr::ConvGeom& g = s.geom;
      in = std::max(in, static_cast<size_t>(g.in_channels * g.in_h * g.in_w));
      panels = std::max(panels, static_cast<size_t>(capr::packed_b_floats(g.col_rows(), g.col_cols())));
      out = std::max(out, static_cast<size_t>(s.out_channels * g.col_cols()));
    } else if (s.kind == cc::StepKind::kLinear) {
      in = std::max(in, static_cast<size_t>(n * s.packed_in.depth));
      out = std::max(out, static_cast<size_t>(n * s.out_channels));
    }
  }
  ReplayBuffers b;
  b.in.resize(in);
  for (float& v : b.in) v = rng.normal();
  b.panels.resize(panels);
  b.out.resize(out);
  return b;
}

/// Replays every kConv / kLinear step of `plan` at batch `n` through the
/// packed kernels the plan uses (im2col_packed + gemm_tiled_packed per
/// image, and gemm_tiled_packed_nt), on finite inputs of the step geometry.
KernelTimes replay_kernels(const cc::ExecutionPlan& plan, int64_t n, ReplayBuffers& b) {
  KernelTimes kt;
  for (const cc::Step& s : plan.steps()) {
    if (!s.prepacked) continue;
    capr::GemmEpilogue ep;
    ep.act = static_cast<int>(s.act);
    ep.alpha = s.alpha;
    if (s.kind == cc::StepKind::kConv) {
      const capr::ConvGeom& g = s.geom;
      ep.bias_row = s.bias.empty() ? nullptr : s.bias.data();
      for (int64_t i = 0; i < n; ++i) {
        const auto t0 = Clock::now();
        capr::im2col_packed(b.in.data(), g, b.panels.data());
        const auto t1 = Clock::now();
        capr::gemm_tiled_packed(s.packed_w, b.panels.data(), b.out.data(), g.col_cols(), ep);
        const auto t2 = Clock::now();
        kt.im2col_us += us(t0, t1);
        kt.gemm_us += us(t1, t2);
      }
      kt.flops += 2.0 * static_cast<double>(n * s.out_channels * g.col_rows() * g.col_cols());
    } else if (s.kind == cc::StepKind::kLinear && s.packed_in.finite) {
      ep.bias_col = s.bias.empty() ? nullptr : s.bias.data();
      const auto t0 = Clock::now();
      capr::gemm_tiled_packed_nt(b.in.data(), s.packed_in, b.out.data(), n, ep, &b.gemm);
      kt.linear_us += us(t0, Clock::now());
      kt.flops += 2.0 * static_cast<double>(n * s.packed_in.depth * s.out_channels);
    }
  }
  return kt;
}

/// Per-call ns of `fn` run `calls` times on each of `threads` threads
/// started together; the median over threads.
template <class Fn>
double contended_ns(int threads, int calls, Fn&& fn) {
  std::atomic<int> ready{0};
  std::vector<double> per_call(static_cast<size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < threads) {
      }
      const auto t0 = Clock::now();
      for (int i = 0; i < calls; ++i) fn(i);
      per_call[static_cast<size_t>(t)] = us(t0, Clock::now()) * 1e3 / calls;
    });
  }
  for (auto& th : pool) th.join();
  return median(per_call);
}

}  // namespace

std::map<std::string, Metric> probe_layers(const capr::nn::Model& model,
                                           const cc::ExecutionPlan& plan, int64_t bmax,
                                           int64_t observed_batch, int contended_threads,
                                           uint64_t seed) {
  std::map<std::string, Metric> m;
  capr::Rng rng(seed);

  // compile: an uncached compile of the served graph, and warm-up.
  const capr::graph::ModuleGraph g = capr::graph::ModuleGraph::build(model);
  std::vector<double> compile_ms, warm_ms;
  for (int k = 0; k < 5; ++k) {
    const auto t0 = Clock::now();
    (void)cc::compile(g, cc::CompileOptions{});
    compile_ms.push_back(us(t0, Clock::now()) * 1e-3);
    capr::nn::InferScratch fresh;
    const auto t1 = Clock::now();
    plan.warm(fresh, bmax);
    warm_ms.push_back(us(t1, Clock::now()) * 1e-3);
  }
  m["compile.compile_ms"] = {median(compile_ms), "ms"};
  m["compile.warm_ms"] = {median(warm_ms), "ms"};
  int64_t conv_steps = 0;
  for (const cc::Step& s : plan.steps()) conv_steps += s.kind == cc::StepKind::kConv;
  m["compile.steps"] = {static_cast<double>(plan.steps().size()), "count"};
  m["compile.conv_steps"] = {static_cast<double>(conv_steps), "count"};

  const capr::Shape& image = plan.input_shape();
  const capr::Tensor b1 = random_batch(image, 1, rng);
  const capr::Tensor bobs = random_batch(image, observed_batch, rng);
  const capr::Tensor bm = random_batch(image, bmax, rng);
  {
    // As a server worker runs it: warmed scratch, nested parallelism inline.
    capr::SerialRegionGuard serial;
    capr::nn::InferScratch scratch;
    plan.warm(scratch, bmax);
    m["compile.plan_run_us.b1"] = {median_us([&] { plan.run_ref(b1, scratch); }, 50, 0.15), "us"};
    m["compile.plan_run_us.observed"] = {
        median_us([&] { plan.run_ref(bobs, scratch); }, 30, 0.15), "us"};

    // The bmax plan run and the kernel replay alternate, so the host's
    // speed drifts affect both sides of the attribution alike.
    ReplayBuffers buffers = replay_buffers(plan, bmax, rng);
    std::vector<double> run, im, ge, li, gf;
    const auto stop = Clock::now() + std::chrono::milliseconds(600);
    while (run.size() < 20 || Clock::now() < stop) {
      const auto t0 = Clock::now();
      plan.run_ref(bm, scratch);
      run.push_back(us(t0, Clock::now()));
      const KernelTimes kt = replay_kernels(plan, bmax, buffers);
      im.push_back(kt.im2col_us);
      ge.push_back(kt.gemm_us);
      li.push_back(kt.linear_us);
      gf.push_back(kt.flops / (kt.gemm_us * 1e3));
    }
    m["compile.plan_run_us.bmax"] = {median(run), "us"};
    m["tensor.im2col_us.bmax"] = {median(im), "us"};
    m["tensor.gemm_us.bmax"] = {median(ge), "us"};
    m["tensor.linear_us.bmax"] = {median(li), "us"};
    m["tensor.gemm_gflops.bmax"] = {median(gf), "GFLOP/s"};
    const double attributed = median(im) + median(ge) + median(li);
    m["tensor.unattributed_frac"] = {1.0 - attributed / m["compile.plan_run_us.bmax"].value,
                                     "ratio"};
  }
  {
    // The same bmax run from several threads at once, each with its own
    // scratch (server workers contend for cores and memory bandwidth).
    std::vector<capr::nn::InferScratch> scratches(static_cast<size_t>(contended_threads));
    for (auto& s : scratches) plan.warm(s, bmax);
    std::atomic<int> ready{0};
    std::vector<std::vector<double>> per(static_cast<size_t>(contended_threads));
    std::vector<std::thread> pool;
    for (int t = 0; t < contended_threads; ++t) {
      pool.emplace_back([&, t] {
        capr::SerialRegionGuard serial;
        ready.fetch_add(1);
        while (ready.load() < contended_threads) {
        }
        const auto stop = Clock::now() + std::chrono::milliseconds(300);
        auto& v = per[static_cast<size_t>(t)];
        while (v.size() < 20 || Clock::now() < stop) {
          const auto t0 = Clock::now();
          plan.run_ref(bm, scratches[static_cast<size_t>(t)]);
          v.push_back(us(t0, Clock::now()));
        }
      });
    }
    for (auto& th : pool) th.join();
    std::vector<double> all;
    for (const auto& v : per) all.insert(all.end(), v.begin(), v.end());
    m["compile.plan_run_us.bmax_contended"] = {median(all), "us"};
  }

  // tensor: the per-call tuning lookup over the plan's conv GEMM shapes.
  std::vector<std::array<int64_t, 3>> shapes;
  for (const cc::Step& s : plan.steps()) {
    if (s.kind == cc::StepKind::kConv) {
      shapes.push_back({s.out_channels, s.geom.col_rows(), s.geom.col_cols()});
    }
  }
  const auto resolve = [&](int i) {
    const auto& sh = shapes[static_cast<size_t>(i) % shapes.size()];
    const capr::GemmTuneConfig c =
        capr::resolve_gemm_config(capr::GemmVariant::kNN, sh[0], sh[1], sh[2]);
    if (c.mc == 0) std::abort();  // keeps the call observable
  };
  constexpr int kCalls = 100000;
  m["tensor.resolve_config_ns"] = {contended_ns(1, kCalls, resolve), "ns"};
  m["tensor.resolve_config_ns.contended"] = {contended_ns(4, kCalls, resolve), "ns"};
  const int64_t n = capr::num_threads();
  m["tensor.parallel_for_us"] = {
      median_us([&] { capr::parallel_for(0, n, [](int, int64_t) {}); }, 200, 0.1), "us"};
  return m;
}

}  // namespace perfbench
