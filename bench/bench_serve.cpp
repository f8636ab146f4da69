// Serving-runtime load benchmark: queries/sec and tail latency of the
// InferenceServer across architecture x worker-count x micro-batch
// size, for dense and pruned models. Emits BENCH_serve.json
// (schema capr-serve-bench-v2).
//
// Two measurement modes per variant:
//
//   - **Closed loop** (mode "closed", google-benchmark): each iteration
//     submits a burst of requests and waits for every future. QPS is
//     requests / wall time. Because the next burst only starts after the
//     previous one finishes, the client self-throttles to the server's
//     pace — good for comparing configurations, blind to queueing
//     collapse.
//   - **Open loop** (mode "open"): a generator submits at a FIXED
//     arrival rate on a paced clock, independent of completions —
//     arrivals don't slow down when the server falls behind, which is
//     how real traffic behaves. Sweeping the offered rate yields the
//     latency-under-load curve (p50/p99 per offered rate, sheds counted
//     against a bounded queue) and the per-variant saturation QPS (mode
//     "saturation": the highest achieved throughput across the ladder —
//     the honest capacity number the closed loop can't give).
//
// The interesting closed-loop comparison is max_batch=1 vs max_batch=8
// at equal worker count: coalescing amortises per-call overhead
// (weight-matrix staging, im2col setup) so batched QPS should win even
// on one core.
//
//   bench_serve                full sweep, writes BENCH_serve.json
//   bench_serve --smoke        one tiny case + tiny open-loop run (CI)
//   bench_serve --out FILE     alternate output path
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kernel_bench.h"
#include "core/surgeon.h"
#include "models/builders.h"
#include "report/json.h"
#include "serve/server.h"
#include "serve/session.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"

namespace {

using namespace capr;

struct ServeSpec {
  std::string name;     // e.g. "serve/resnet20/pruned+compiled/tiled/w1/b8"
  std::string arch;     // builder name
  std::string variant;  // "dense" | "pruned" | "dense+compiled" | "pruned+compiled"
  std::string kernel = "tiled";  // GEMM path, recorded in names and JSON
  int workers = 1;
  size_t max_batch = 1;
};

struct ServeRow {
  std::string name;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double real_time_s = 0.0;
  int64_t iterations = 0;
};

constexpr int kBurst = 32;  // requests submitted per benchmark iteration

/// Builds the spec's model: random-initialised weights (throughput does
/// not depend on the values), with half of every prunable unit's filters
/// removed for the "pruned" variants. Plain "dense"/"pruned" rows pin
/// the interpreted session so they stay comparable across baselines; a
/// "+compiled" suffix serves the fully-optimised ExecutionPlan (BN fold
/// + epilogue fusion + weight pre-packing) — the compiled-vs-interpreted
/// delta at equal sparsity is the graph-compiler headline number.
std::shared_ptr<const serve::InferenceSession> make_session(const ServeSpec& spec) {
  models::BuildConfig cfg;
  cfg.init_seed = 7;
  nn::Model model = models::make_model(spec.arch, cfg);
  const std::string suffix = "+compiled";
  const bool compiled = spec.variant.size() > suffix.size() &&
                        spec.variant.compare(spec.variant.size() - suffix.size(),
                                             suffix.size(), suffix) == 0;
  const bool pruned = spec.variant.rfind("pruned", 0) == 0;
  if (pruned) {
    for (size_t u = 0; u < model.units.size(); ++u) {
      const int64_t have = model.units[u].conv->out_channels();
      std::vector<int64_t> drop;
      for (int64_t f = have / 2; f < have; ++f) drop.push_back(f);
      if (!drop.empty()) core::remove_filters(model, u, drop);
    }
  }
  serve::SessionOptions opts;
  opts.mode = compiled ? serve::SessionOptions::Mode::kCompiledFolded
                       : serve::SessionOptions::Mode::kInterpreted;
  return std::make_shared<const serve::InferenceSession>(std::move(model), opts);
}

void run_serve(benchmark::State& state, const ServeSpec spec) {
  std::shared_ptr<const serve::InferenceSession> session = make_session(spec);
  serve::ServerConfig cfg;
  cfg.workers = spec.workers;
  cfg.queue_capacity = kBurst * 2;
  cfg.max_batch = spec.max_batch;
  cfg.max_delay_us = 200;
  serve::InferenceServer server(session, cfg);

  const Shape& in = session->input_shape();
  Rng rng(42);
  std::vector<Tensor> samples;
  for (int i = 0; i < 8; ++i) {
    Tensor s({in[0], in[1], in[2]});
    rng.fill_normal(s, 0.0f, 1.0f);
    samples.push_back(std::move(s));
  }

  std::vector<int64_t> latencies;
  std::vector<std::future<serve::InferResult>> futs(kBurst);
  int64_t sample_idx = 0;
  for (auto _ : state) {
    for (int r = 0; r < kBurst; ++r) {
      futs[static_cast<size_t>(r)] =
          server.submit(samples[static_cast<size_t>(sample_idx++ % 8)]);
    }
    for (int r = 0; r < kBurst; ++r) {
      serve::InferResult res = futs[static_cast<size_t>(r)].get();
      if (res.status != serve::RequestStatus::kOk) {
        state.SkipWithError(("request failed: " + std::string(to_string(res.status)) +
                             (res.error.empty() ? "" : ": " + res.error))
                                .c_str());
        return;
      }
      latencies.push_back(res.latency_us);
    }
  }

  state.counters["QPS"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kBurst, benchmark::Counter::kIsRate);
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    const auto pct = [&](double p) {
      size_t i = static_cast<size_t>(p * static_cast<double>(latencies.size() - 1));
      return static_cast<double>(latencies[i]);
    };
    state.counters["p50_us"] = benchmark::Counter(pct(0.50));
    state.counters["p99_us"] = benchmark::Counter(pct(0.99));
  }
}

// ---------------------------------------------------------------------------
// Open-loop generator: arrival-rate driven, not completion driven.

struct OpenSpec {
  std::string name;  // e.g. "open/resnet20/pruned+compiled/tiled/w4/b8/r3000"
  std::string arch;
  std::string variant;
  std::string kernel = "tiled";
  int workers = 4;
  size_t max_batch = 8;
  double offered_qps = 0.0;  // 0 marks the per-variant saturation row
};

struct OpenRow {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double shed_pct = 0.0;  // try_submit rejections / arrivals
  double window_s = 0.0;  // submission window (drain excluded)
  int64_t arrivals = 0;
  int64_t completed = 0;
};

/// Submits at a paced fixed rate for `window` (open loop: the schedule
/// never waits for completions; a late generator catches up instead of
/// thinning arrivals), sheds on a full queue via try_submit, then drains
/// every accepted future. Achieved QPS divides completions by the full
/// arrival-to-last-completion wall time so queued leftovers can't
/// inflate it.
OpenRow run_open_loop(serve::InferenceServer& server, const std::vector<Tensor>& samples,
                      double rate_qps, std::chrono::milliseconds window) {
  using Clock = std::chrono::steady_clock;
  OpenRow row;
  row.offered_qps = rate_qps;
  const auto interval =
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(1.0 / rate_qps));
  std::vector<std::future<serve::InferResult>> futs;
  futs.reserve(static_cast<size_t>(rate_qps * std::chrono::duration<double>(window).count()) +
               16);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end = t0 + window;
  int64_t shed = 0;
  for (Clock::time_point due = t0; due < end; due += interval) {
    std::this_thread::sleep_until(due);  // no-op once the schedule is behind
    auto fut = server.try_submit(samples[static_cast<size_t>(row.arrivals) % samples.size()]);
    ++row.arrivals;
    if (fut.has_value()) {
      futs.push_back(std::move(*fut));
    } else {
      ++shed;
    }
  }
  row.window_s = std::chrono::duration<double>(Clock::now() - t0).count();
  std::vector<int64_t> latencies;
  latencies.reserve(futs.size());
  for (auto& fut : futs) {
    serve::InferResult res = fut.get();
    if (res.status == serve::RequestStatus::kOk) latencies.push_back(res.latency_us);
  }
  const double drained_s = std::chrono::duration<double>(Clock::now() - t0).count();
  row.completed = static_cast<int64_t>(latencies.size());
  row.achieved_qps = drained_s > 0 ? static_cast<double>(row.completed) / drained_s : 0.0;
  row.shed_pct =
      row.arrivals > 0 ? 100.0 * static_cast<double>(shed) / static_cast<double>(row.arrivals)
                       : 0.0;
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    const auto pct = [&](double p) {
      return static_cast<double>(
          latencies[static_cast<size_t>(p * static_cast<double>(latencies.size() - 1))]);
    };
    row.p50_us = pct(0.50);
    row.p99_us = pct(0.99);
  }
  return row;
}

/// Runs the offered-rate ladder for every open-loop variant and appends
/// (spec, row) pairs, including one synthetic "saturation" spec per
/// variant whose achieved_qps is the max across its ladder.
void run_open_loop_sweep(bool smoke, std::vector<OpenSpec>& specs, std::vector<OpenRow>& rows) {
  const std::vector<const char*> variants =
      smoke ? std::vector<const char*>{"dense"}
            : std::vector<const char*>{"dense", "pruned", "dense+compiled", "pruned+compiled"};
  const std::vector<double> ladder =
      smoke ? std::vector<double>{500} : std::vector<double>{1500, 3000, 6000, 12000};
  const auto window = smoke ? std::chrono::milliseconds(100) : std::chrono::milliseconds(400);

  for (const char* variant : variants) {
    OpenSpec base;
    base.arch = "resnet20";
    base.variant = variant;
    std::shared_ptr<const serve::InferenceSession> session = make_session(
        [&] {
          ServeSpec s;
          s.arch = base.arch;
          s.variant = base.variant;
          return s;
        }());
    serve::ServerConfig cfg;
    cfg.workers = base.workers;
    cfg.queue_capacity = 256;
    cfg.max_batch = base.max_batch;
    cfg.max_delay_us = 200;
    serve::InferenceServer server(session, cfg);

    const Shape& in = session->input_shape();
    Rng rng(42);
    std::vector<Tensor> samples;
    for (int i = 0; i < 8; ++i) {
      Tensor s({in[0], in[1], in[2]});
      rng.fill_normal(s, 0.0f, 1.0f);
      samples.push_back(std::move(s));
    }

    double saturation = 0.0;
    for (const double rate : ladder) {
      OpenSpec spec = base;
      spec.offered_qps = rate;
      spec.name = "open/" + spec.arch + "/" + spec.variant + "/" + spec.kernel + "/w" +
                  std::to_string(spec.workers) + "/b" + std::to_string(spec.max_batch) + "/r" +
                  std::to_string(static_cast<int64_t>(rate));
      OpenRow row = run_open_loop(server, samples, rate, window);
      std::cout << spec.name << ": offered " << row.offered_qps << " achieved "
                << row.achieved_qps << " QPS, p50 " << row.p50_us << " us, p99 " << row.p99_us
                << " us, shed " << row.shed_pct << "%\n";
      saturation = std::max(saturation, row.achieved_qps);
      specs.push_back(std::move(spec));
      rows.push_back(row);
    }
    OpenSpec sat = base;
    sat.name = "sat/" + sat.arch + "/" + sat.variant + "/" + sat.kernel + "/w" +
               std::to_string(sat.workers) + "/b" + std::to_string(sat.max_batch);
    OpenRow satrow;
    satrow.achieved_qps = saturation;
    std::cout << sat.name << ": saturation " << saturation << " QPS\n";
    specs.push_back(std::move(sat));
    rows.push_back(satrow);
    server.shutdown();
  }
}

std::vector<ServeSpec> register_all() {
  std::vector<ServeSpec> specs;
  const auto add = [&](const char* arch, const char* variant, int workers, size_t max_batch) {
    ServeSpec spec;
    spec.arch = arch;
    spec.variant = variant;
    spec.workers = workers;
    spec.max_batch = max_batch;
    spec.name = "serve/" + spec.arch + "/" + spec.variant + "/" + spec.kernel + "/w" +
                std::to_string(workers) + "/b" + std::to_string(max_batch);
    // Workers do the actual inference on their own threads, so wall
    // clock (not the submitting thread's CPU time) is the meaningful
    // denominator for the QPS rate counter.
    benchmark::RegisterBenchmark(spec.name.c_str(), run_serve, spec)->UseRealTime();
    specs.push_back(std::move(spec));
  };
  // Full grid on the resnet20 builder (the batched-vs-unbatched and
  // compiled-vs-interpreted QPS comparisons the acceptance gates read),
  // plus a vgg11 column.
  for (const char* variant : {"dense", "pruned", "dense+compiled", "pruned+compiled"}) {
    for (int workers : {1, 4}) {
      for (size_t max_batch : {size_t{1}, size_t{8}}) {
        add("resnet20", variant, workers, max_batch);
      }
    }
  }
  for (const char* variant : {"dense", "pruned", "dense+compiled", "pruned+compiled"}) {
    for (size_t max_batch : {size_t{1}, size_t{8}}) {
      add("vgg11", variant, 1, max_batch);
    }
  }
  return specs;
}

bool write_serve_json(const std::string& path, const std::vector<ServeSpec>& specs,
                      const std::vector<ServeRow>& rows,
                      const std::vector<OpenSpec>& open_specs,
                      const std::vector<OpenRow>& open_rows) {
  report::JsonValue results = report::JsonValue::array();
  for (const ServeSpec& spec : specs) {
    for (const ServeRow& row : rows) {
      if (row.name != spec.name) continue;
      report::JsonValue r = report::JsonValue::object();
      r.set("name", report::JsonValue::string(spec.name));
      r.set("mode", report::JsonValue::string("closed"));
      r.set("arch", report::JsonValue::string(spec.arch));
      r.set("variant", report::JsonValue::string(spec.variant));
      r.set("kernel", report::JsonValue::string(spec.kernel));
      r.set("workers", report::JsonValue::number(static_cast<int64_t>(spec.workers)));
      r.set("max_batch", report::JsonValue::number(static_cast<int64_t>(spec.max_batch)));
      r.set("qps", report::JsonValue::number(row.qps));
      r.set("p50_us", report::JsonValue::number(row.p50_us));
      r.set("p99_us", report::JsonValue::number(row.p99_us));
      r.set("real_time_s", report::JsonValue::number(row.real_time_s));
      r.set("iterations", report::JsonValue::number(row.iterations));
      results.push_back(std::move(r));
      break;
    }
  }
  for (size_t i = 0; i < open_specs.size() && i < open_rows.size(); ++i) {
    const OpenSpec& spec = open_specs[i];
    const OpenRow& row = open_rows[i];
    const bool saturation = spec.offered_qps == 0.0;
    report::JsonValue r = report::JsonValue::object();
    r.set("name", report::JsonValue::string(spec.name));
    r.set("mode", report::JsonValue::string(saturation ? "saturation" : "open"));
    r.set("arch", report::JsonValue::string(spec.arch));
    r.set("variant", report::JsonValue::string(spec.variant));
    r.set("kernel", report::JsonValue::string(spec.kernel));
    r.set("workers", report::JsonValue::number(static_cast<int64_t>(spec.workers)));
    r.set("max_batch", report::JsonValue::number(static_cast<int64_t>(spec.max_batch)));
    // "qps" keys the perf-diff gate in every mode: achieved throughput
    // for rate rows, peak sustained throughput for saturation rows.
    r.set("qps", report::JsonValue::number(row.achieved_qps));
    if (!saturation) {
      r.set("offered_qps", report::JsonValue::number(row.offered_qps));
      r.set("p50_us", report::JsonValue::number(row.p50_us));
      r.set("p99_us", report::JsonValue::number(row.p99_us));
      r.set("shed_pct", report::JsonValue::number(row.shed_pct));
      r.set("window_s", report::JsonValue::number(row.window_s));
      r.set("arrivals", report::JsonValue::number(row.arrivals));
      r.set("completed", report::JsonValue::number(row.completed));
    }
    results.push_back(std::move(r));
  }
  report::JsonValue doc = report::JsonValue::object();
  doc.set("schema", report::JsonValue::string("capr-serve-bench-v2"));
  doc.set("binary", report::JsonValue::string("bench_serve"));
  doc.set("results", std::move(results));

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  out << doc.dump() << "\n";
  std::cout << "wrote " << path << "\n";
  return true;
}

/// Console output plus capture of the serve counters.
class ServeReporter : public benchmark::ConsoleReporter {
 public:
  std::vector<ServeRow> rows;

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      ServeRow row;
      row.name = run.benchmark_name();
      // UseRealTime() appends "/real_time" to the reported name.
      const std::string suffix = "/real_time";
      if (row.name.size() > suffix.size() &&
          row.name.compare(row.name.size() - suffix.size(), suffix.size(), suffix) == 0) {
        row.name.resize(row.name.size() - suffix.size());
      }
      row.real_time_s = run.GetAdjustedRealTime() * 1e-9;  // reported in ns
      row.iterations = run.iterations;
      const auto grab = [&](const char* key, double& dst) {
        const auto it = run.counters.find(key);
        if (it != run.counters.end()) dst = it->second.value;
      };
      grab("QPS", row.qps);
      grab("p50_us", row.p50_us);
      grab("p99_us", row.p99_us);
      rows.push_back(row);
    }
    ConsoleReporter::ReportRuns(reports);
  }
};

}  // namespace

int main(int argc, char** argv) {
  benchx::KernelBenchArgs args;
  const std::vector<ServeSpec> specs = register_all();
  if (!benchx::init_benchmark(argc, argv, "serve/resnet20/dense/tiled/w1/b(1|8)", args)) {
    return 1;
  }
  ServeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  std::vector<OpenSpec> open_specs;
  std::vector<OpenRow> open_rows;
  run_open_loop_sweep(args.smoke, open_specs, open_rows);
  const std::string path = args.out.empty() ? "BENCH_serve.json" : args.out;
  return write_serve_json(path, specs, reporter.rows, open_specs, open_rows) ? 0 : 1;
}
