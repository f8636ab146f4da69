// GEMM throughput: tiled vs reference kernel across shapes and thread
// counts, plus the tiled-tuned rows measuring the committed tuning table
// (tuning/default.json). Emits BENCH_kernels.json (schema
// capr-kernel-bench-v1) for the CI perf-diff step; the committed copy at
// the repo root is the baseline.
//
//   bench_gemm                 full sweep, writes BENCH_kernels.json
//   bench_gemm --smoke         smallest shape only, tiny min-time (CI)
//   bench_gemm --out FILE      alternate output path
//   bench_gemm --tuning FILE   tuning table (default tuning/default.json;
//                              tuned rows are skipped when it is absent)
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "kernel_bench.h"
#include "tensor/gemm.h"
#include "tensor/gemm_tiled.h"
#include "tensor/gemm_tune.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "tune/corpus.h"

namespace {

using namespace capr;
using benchx::BenchSpec;

// Table behind the tiled-tuned rows; untuned rows pin a null table so
// $CAPR_GEMM_TUNING can never skew the baseline columns.
std::shared_ptr<const GemmTuningTable> g_table;

struct Shape3 {
  int64_t m, k, n;
};

// Square sizes bracketing cache levels plus the dominant conv-lowered
// shapes (wide-N panel from im2col, tall-K from late VGG layers). The
// skinny im2col shapes pruned models produce are appended at startup
// from the tuner's corpus harvest (tune::pruned_im2col_shapes), so the
// committed baseline tracks exactly the shapes the tuning table targets.
const Shape3 kShapes[] = {
    {64, 64, 64},   {128, 128, 128}, {256, 256, 256}, {384, 384, 384},
    {96, 576, 256}, {16, 144, 1024},
};

void run_gemm(benchmark::State& state, const BenchSpec spec) {
  set_num_threads(spec.threads);
  const GemmTuningScope tuning(spec.kernel == "tiled-tuned" ? g_table : nullptr);
  Rng rng(1234);
  Tensor a({spec.m, spec.k}), b({spec.k, spec.n}), c({spec.m, spec.n});
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  GemmScratch scratch;
  const bool reference = spec.kernel == "reference";
  for (auto _ : state) {
    // The reference rows time the strong-zero kernel the tiled path
    // falls back to on non-finite operands.
    if (reference) {
      gemm(a.data(), b.data(), c.data(), spec.m, spec.k, spec.n, /*accumulate=*/false);
    } else {
      gemm_tiled(a.data(), b.data(), c.data(), spec.m, spec.k, spec.n, /*accumulate=*/false,
                 &scratch);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["FLOPS"] = benchmark::Counter(
      spec.flops * static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  set_num_threads(0);  // restore default
}

std::vector<BenchSpec> register_all(bool tuned) {
  std::vector<Shape3> shapes(std::begin(kShapes), std::end(kShapes));
  for (const tune::CorpusShape& s : tune::pruned_im2col_shapes()) {
    shapes.push_back({s.m, s.k, s.n});
  }
  std::vector<BenchSpec> specs;
  for (const Shape3& s : shapes) {
    std::vector<std::string> kernels = {"reference", "tiled"};
    if (tuned) kernels.push_back("tiled-tuned");
    for (const std::string& kernel : kernels) {
      // The reference kernel is serial; only the tiled paths thread.
      const std::vector<int> thread_counts =
          kernel == "reference" ? std::vector<int>{1} : std::vector<int>{1, 4};
      for (int threads : thread_counts) {
        BenchSpec spec;
        spec.kernel = kernel;
        spec.threads = threads;
        spec.m = s.m;
        spec.k = s.k;
        spec.n = s.n;
        spec.flops = 2.0 * static_cast<double>(s.m) * static_cast<double>(s.k) *
                     static_cast<double>(s.n);
        spec.name = "gemm/" + spec.kernel + "/t" + std::to_string(threads) + "/" +
                    std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
                    std::to_string(s.n);
        benchmark::RegisterBenchmark(spec.name.c_str(), run_gemm, spec);
        specs.push_back(std::move(spec));
      }
    }
  }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  benchx::KernelBenchArgs args;
  args.tuning = "tuning/default.json";
  // Peek at --tuning before registration: it decides whether the
  // tiled-tuned rows exist at all.
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--tuning") args.tuning = argv[i + 1];
  }
  {
    auto table = std::make_shared<GemmTuningTable>();
    const TuneStatus status = load_gemm_tuning(args.tuning, table.get());
    if (status.ok()) {
      g_table = std::move(table);
    } else {
      std::cerr << "bench_gemm: " << args.tuning << ": " << status.format()
                << " (skipping tiled-tuned rows)\n";
    }
  }
  const std::vector<BenchSpec> specs = register_all(g_table != nullptr);
  if (!benchx::init_benchmark(argc, argv,
                              "gemm/(reference|tiled|tiled-tuned)/t1/64x64x64", args)) {
    return 1;
  }
  benchx::CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const std::string path = args.out.empty() ? "BENCH_kernels.json" : args.out;
  return benchx::write_kernel_json(path, "bench_gemm", specs, reporter.rows) ? 0 : 1;
}
