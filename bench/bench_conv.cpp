// Conv2d forward/backward throughput under both GEMM kernels: the
// end-to-end effect of the tiled path plus the per-layer scratch arena
// (im2col buffers reused across calls). Also times im2col_packed, the
// per-image lowering of every compiled conv step, on the conv
// geometries of the two served plans (rows "im2col_packed/<plan>/...",
// reported as ns per column element). Emits BENCH_conv.json.
//
//   bench_conv                 full sweep, writes BENCH_conv.json
//   bench_conv --smoke         smallest layer only, tiny min-time (CI)
//   bench_conv --out FILE      alternate output path
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "compile/compiler.h"
#include "core/surgeon.h"
#include "graph/graph.h"
#include "kernel_bench.h"
#include "models/builders.h"
#include "nn/conv2d.h"
#include "tensor/gemm_tiled.h"
#include "tensor/im2col.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"

namespace {

using namespace capr;
using benchx::BenchSpec;

struct ConvCase {
  int64_t batch, channels, size;  // square Cin=Cout 3x3 stride-1 pad-1 layer
};

// VGG-style 3x3 body layers at the scales the experiments actually run.
const ConvCase kCases[] = {
    {4, 16, 16},
    {4, 32, 16},
    {8, 64, 8},
};

void run_conv(benchmark::State& state, const BenchSpec spec, const ConvCase cs,
              const bool backward) {
  set_num_threads(spec.threads);
  const GemmKernelScope scope(spec.kernel == "tiled" ? GemmKernel::kTiled
                                                     : GemmKernel::kReference);
  nn::Conv2d conv(cs.channels, cs.channels, 3, 1, 1, /*bias=*/false);
  Rng rng(99);
  rng.fill_normal(conv.weight().value, 0.0f, 0.1f);
  Tensor x({cs.batch, cs.channels, cs.size, cs.size});
  rng.fill_normal(x, 0.0f, 1.0f);
  Tensor g(x.shape());
  rng.fill_normal(g, 0.0f, 1.0f);
  conv.forward(x, /*training=*/true);
  for (auto _ : state) {
    if (backward) {
      Tensor gx = conv.backward(g);
      benchmark::DoNotOptimize(gx.data());
    } else {
      Tensor y = conv.forward(x, /*training=*/false);
      benchmark::DoNotOptimize(y.data());
    }
  }
  state.counters["FLOPS"] = benchmark::Counter(
      spec.flops * static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  set_num_threads(0);
}

// ---- im2col_packed on the served plans' conv geometries --------------------

struct Lowering {
  std::string name;  // "im2col_packed/<plan>/c<Cin>h<H>w<W>k<Kh>x<Kw>s<stride>p<pad>"
  ConvGeom geom;
};

/// Removes a seeded share in [lo, hi] of every unit's filters (never
/// below 2), the fixed selection the repository benchmark prunes its
/// served models with (perfbench, seed 0x5E1EC7).
void prune_fixed(nn::Model& model, float lo, float hi) {
  Rng rng(0x5E1EC7);
  std::vector<core::UnitSelection> sel;
  for (size_t u = 0; u < model.units.size(); ++u) {
    const int64_t n = model.units[u].conv->out_channels();
    const int64_t k =
        std::min<int64_t>(n - 2, std::llround(static_cast<double>(n) * rng.uniform(lo, hi)));
    if (k <= 0) continue;
    std::vector<int64_t> idx(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) idx[static_cast<size_t>(i)] = i;
    rng.shuffle(idx);
    idx.resize(static_cast<size_t>(k));
    std::sort(idx.begin(), idx.end());
    sel.push_back({u, idx});
  }
  core::apply_selection(model, sel);
}

/// Distinct geometries of the prepacked conv steps of the two served
/// plans, in step order: resnet20 at width 0.25 on 16 px inputs pruned
/// by prune_fixed(0.25, 0.5), and vgg16 at width 0.5 on 32 px inputs
/// pruned by prune_fixed(0.4, 0.6).
std::vector<Lowering> served_lowerings() {
  struct Served {
    const char* name;
    const char* arch;
    int64_t size;
    float width, prune_lo, prune_hi;
  };
  const Served served[] = {{"resnet20-w0.25-16px-pruned", "resnet20", 16, 0.25f, 0.25f, 0.5f},
                           {"vgg16-w0.5-32px-pruned", "vgg16", 32, 0.5f, 0.4f, 0.6f}};
  std::vector<Lowering> out;
  std::set<std::string> seen;
  for (const Served& sv : served) {
    models::BuildConfig b;
    b.input_size = sv.size;
    b.width_mult = sv.width;
    nn::Model model = models::make_model(sv.arch, b);
    prune_fixed(model, sv.prune_lo, sv.prune_hi);
    const compile::CompileResult r = compile::compile(graph::ModuleGraph::build(model));
    if (!r.plan) throw std::runtime_error(std::string("bench_conv: cannot compile ") + sv.name);
    for (const compile::Step& s : r.plan->steps()) {
      if (s.kind != compile::StepKind::kConv || !s.prepacked) continue;
      const ConvGeom& g = s.geom;
      std::string name = std::string("im2col_packed/") + sv.name + "/c" +
                         std::to_string(g.in_channels) + "h" + std::to_string(g.in_h) + "w" +
                         std::to_string(g.in_w) + "k" + std::to_string(g.kernel_h) + "x" +
                         std::to_string(g.kernel_w) + "s" + std::to_string(g.stride) + "p" +
                         std::to_string(g.padding);
      if (seen.insert(name).second) out.push_back({std::move(name), g});
    }
  }
  return out;
}

void run_lowering(benchmark::State& state, const ConvGeom g) {
  Rng rng(7);
  Tensor im({g.in_channels, g.in_h, g.in_w});
  rng.fill_normal(im, 0.0f, 1.0f);
  std::vector<float> panels(static_cast<size_t>(packed_b_floats(g.col_rows(), g.col_cols())));
  std::vector<float> padded(static_cast<size_t>(im2col_padded_floats(g)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(im2col_packed(im.data(), g, panels.data(), padded.data()));
    benchmark::ClobberMemory();
  }
}

std::vector<BenchSpec> register_all() {
  std::vector<BenchSpec> specs;
  for (const ConvCase& cs : kCases) {
    const int64_t krows = cs.channels * 9;
    const int64_t cols = cs.size * cs.size;  // stride 1, pad 1: same spatial size
    for (const bool backward : {false, true}) {
      for (const char* kernel : {"reference", "tiled"}) {
        const std::vector<int> thread_counts =
            std::string(kernel) == "tiled" ? std::vector<int>{1, 4} : std::vector<int>{1};
        for (int threads : thread_counts) {
          BenchSpec spec;
          spec.kernel = kernel;
          spec.threads = threads;
          spec.m = cs.channels;
          spec.k = krows;
          spec.n = cols;
          // Forward: one [Cout, krows] x [krows, cols] GEMM per image.
          // Backward: dW (NT) + dcol (NN), 2x the forward GEMM work.
          const double gemm_flops = 2.0 * static_cast<double>(cs.channels) *
                                    static_cast<double>(krows) * static_cast<double>(cols) *
                                    static_cast<double>(cs.batch);
          spec.flops = backward ? 2.0 * gemm_flops : gemm_flops;
          spec.name = std::string("conv/") + (backward ? "backward" : "forward") + "/" +
                      spec.kernel + "/t" + std::to_string(threads) + "/b" +
                      std::to_string(cs.batch) + "c" + std::to_string(cs.channels) + "s" +
                      std::to_string(cs.size);
          benchmark::RegisterBenchmark(spec.name.c_str(), run_conv, spec, cs, backward);
          specs.push_back(std::move(spec));
        }
      }
    }
  }
  for (const Lowering& l : served_lowerings()) {
    const ConvGeom& g = l.geom;
    BenchSpec spec;
    spec.kernel = "tiled";
    spec.k = g.col_rows();
    spec.n = g.col_cols();
    spec.elems = static_cast<double>(g.col_rows() * g.col_cols());
    spec.name = l.name;
    benchmark::RegisterBenchmark(spec.name.c_str(), run_lowering, g);
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  benchx::KernelBenchArgs args;
  const std::vector<BenchSpec> specs = register_all();
  if (!benchx::init_benchmark(argc, argv,
                              "conv/(forward|backward)/(reference|tiled)/t1/b4c16s16|"
                              "im2col_packed/resnet20-w0.25-16px-pruned/",
                              args)) {
    return 1;
  }
  benchx::CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const std::string path = args.out.empty() ? "BENCH_conv.json" : args.out;
  return benchx::write_kernel_json(path, "bench_conv", specs, reporter.rows) ? 0 : 1;
}
