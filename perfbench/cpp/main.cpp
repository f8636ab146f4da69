// capr-bench: the repository benchmark program (see ../README.md).
//
//   capr-bench --workload <small|wide> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-out FILE]
//
// Each run sets up (dataset, fixed-pruned serving model, compile, warm,
// reference outputs, server start) repeatedly and reports the median,
// then measures the offline class-aware pipeline and the open-loop
// serving of the workload's model. The last stdout line is the result
// JSON; with --trace 1 it carries the per-layer metrics instead of the
// end-to-end ones. Exit code 0 on a completed run (correct or not),
// 2 on bad arguments, 3 when the build or environment is refused.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "compile/cache.h"
#include "core/surgeon.h"
#include "openloop.h"
#include "pipeline.h"
#include "probes.h"
#include "serve/server.h"
#include "serve/session.h"
#include "stats.h"
#include "tensor/gemm_tune.h"
#include "tensor/rng.h"
#include "trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace sv = capr::serve;

// ---------------------------------------------------------------------------
// Workloads. Every constant below is part of the benchmark definition:
// changing one changes what the benchmark measures.
// ---------------------------------------------------------------------------

// Serving load, sized for a 4-core host: 3 server workers plus the one
// generator thread, which also collects results.
constexpr int kServerWorkers = 3;
constexpr size_t kMaxBatch = 8;
// Deep enough that a host stall of a third of a second at the highest
// fixed rate sheds nothing: below capacity no request may fail. Above it
// the p99 limit and the drain limit end a ladder window long before the
// queue fills.
constexpr size_t kQueueCapacity = 1024;
constexpr int64_t kMaxDelayUs = 200;
// Seed of the fixed filter selection applied to the served model; not the
// run seed, so every run serves the same architecture.
constexpr uint64_t kSelectionSeed = 0x5E1EC7;
constexpr int64_t kSamplePool = 64;
// Set-up runs at least kMinSetupRepeats times and until the repeats have
// taken kSetupBudgetS; setup_s is their median.
constexpr int kMinSetupRepeats = 7;
constexpr double kSetupBudgetS = 2.0;
// A ladder window sends at least this many requests, so the p99 it is
// judged on has at least ten samples beyond it.
constexpr double kMinProbeRequests = 1100;
// The staircase that follows the ladder's binary search (see search_ladder
// in stats.h) runs until the ladder has used --seconds, and at least this
// many windows. A ladder window lasts a sixtieth of --seconds, or longer
// when it needs that to send kMinProbeRequests.
constexpr int kMinStaircaseWindows = 10;
// Latency at a fixed rate is the lower quartile over this many windows of
// each window's p50 and p90 (see lower_quartile in stats.h); untraced runs
// report no fixed-rate latency and run fewer windows, which only check
// that nothing fails below capacity.
// A window sends at least kMinWindowRequests (p90: 35 samples beyond it).
constexpr int kLatencyWindows = 9;
constexpr int kUntracedLatencyWindows = 3;
constexpr double kMinWindowRequests = 350;

struct ServeSpec {
  std::string arch;
  capr::models::BuildConfig build;
  float prune_lo = 0.0f, prune_hi = 0.0f;  // per-unit removed share of the fixed selection
  double ladder_lo = 0.0, ladder_hi = 0.0, ladder_ratio = 1.0;
  Slo slo;
  double drain_limit_ms = 0.0;
  double low_qps = 0.0, high_qps = 0.0;
};

struct WorkloadSpec {
  std::string name;
  ServeSpec serve;
  PipelineSpec pipeline;
};

/// The offline pipeline both workloads run (see ../README.md).
PipelineSpec pipeline_spec() {
  PipelineSpec p;
  p.arch = "vgg16";
  p.build.num_classes = 10;
  p.build.input_size = 16;
  p.build.width_mult = 0.25f;
  p.data.num_classes = 10;
  p.data.image_size = 16;
  p.data.train_per_class = 50;
  p.data.test_per_class = 50;
  p.data.noise_stddev = 2.0f;  // keeps base accuracy below 1.0
  p.base_train.epochs = 8;
  p.base_train.batch_size = 32;
  p.base_train.sgd.lr = 0.05f;
  p.prune.max_iterations = 3;
  p.prune.max_accuracy_drop = 1.0f;  // fixed work: every run does every iteration
  p.prune.finetune.epochs = 1;
  p.prune.finetune.batch_size = 32;
  p.prune.finetune.sgd.lr = 0.02f;
  p.class_aware.importance.images_per_class = 4;
  p.class_aware.importance.tau_mode = capr::core::TauMode::kQuantile;
  p.class_aware.importance.tau_quantile = 0.85f;
  return p;
}

std::vector<WorkloadSpec> workloads() {
  std::vector<WorkloadSpec> w;
  {
    WorkloadSpec s;
    s.name = "small";
    s.serve.arch = "resnet20";
    s.serve.build.input_size = 16;
    s.serve.build.width_mult = 0.25f;
    s.serve.prune_lo = 0.25f;
    s.serve.prune_hi = 0.5f;
    s.serve.ladder_lo = 1000;
    s.serve.ladder_hi = 24000;
    s.serve.ladder_ratio = 1.05;
    s.serve.slo = {20.0, 0.01};
    s.serve.drain_limit_ms = 30.0;
    s.serve.low_qps = 2000;
    s.serve.high_qps = 3000;
    s.pipeline = pipeline_spec();
    w.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "wide";
    s.serve.arch = "vgg16";
    s.serve.build.input_size = 32;
    s.serve.build.width_mult = 0.5f;
    s.serve.prune_lo = 0.4f;
    s.serve.prune_hi = 0.6f;
    s.serve.ladder_lo = 150;
    s.serve.ladder_hi = 5000;
    s.serve.ladder_ratio = 1.05;
    s.serve.slo = {60.0, 0.01};
    s.serve.drain_limit_ms = 120.0;
    s.serve.low_qps = 400;
    s.serve.high_qps = 600;
    s.pipeline = pipeline_spec();
    w.push_back(s);
  }
  return w;
}

std::vector<double> ladder_of(const ServeSpec& s) {
  std::vector<double> l;
  for (double r = s.ladder_lo; r <= s.ladder_hi * (1 + 1e-9); r *= s.ladder_ratio) {
    l.push_back(std::round(r));
  }
  return l;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// CPU placement while serving: the generator gets the last allowed CPU
/// to itself and the server workers the others, so a waking worker never
/// preempts the generator and delays sends. Workers inherit the mask of
/// the thread that starts the server; the pipeline runs with all CPUs.
struct CpuPlan {
  cpu_set_t all{}, workers{}, generator{};
  bool split = false;
};

CpuPlan cpu_plan() {
  CpuPlan p;
  if (sched_getaffinity(0, sizeof(p.all), &p.all) != 0) return p;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &p.all)) cpus.push_back(c);
  }
  if (cpus.size() < static_cast<size_t>(kServerWorkers) + 1) return p;
  CPU_ZERO(&p.workers);
  CPU_ZERO(&p.generator);
  for (size_t i = 0; i + 1 < cpus.size(); ++i) CPU_SET(cpus[i], &p.workers);
  CPU_SET(cpus.back(), &p.generator);
  p.split = true;
  return p;
}

void pin(const cpu_set_t& set) { sched_setaffinity(0, sizeof(set), &set); }

/// The fixed seeded selection: each prunable unit loses a share of its
/// filters drawn from [lo, hi], never going below 2 filters.
std::vector<capr::core::UnitSelection> fixed_selection(const capr::nn::Model& model, float lo,
                                                       float hi) {
  capr::Rng rng(kSelectionSeed);
  std::vector<capr::core::UnitSelection> sel;
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
  return sel;
}

capr::nn::Model served_model(const ServeSpec& s, uint64_t weight_seed) {
  capr::models::BuildConfig b = s.build;
  b.init_seed = weight_seed;
  capr::nn::Model m = capr::models::make_model(s.arch, b);
  capr::core::apply_selection(m, fixed_selection(m, s.prune_lo, s.prune_hi));
  return m;
}

struct Setup {
  capr::data::SyntheticCifar data;
  uint64_t weight_seed = 0;
  std::shared_ptr<const sv::InferenceSession> session;
  SamplePool pool;
  std::unique_ptr<sv::InferenceServer> server;
  double data_gen_s = 0.0;
};

/// Dataset generation, model build, prune-by-selection, compile, warm,
/// batch-1 reference outputs and server start. Weights differ per
/// repeat so no repeat is served from the plan cache.
Setup make_setup(const WorkloadSpec& w, uint64_t seed, int repeat) {
  Setup st;
  capr::data::SyntheticCifarConfig dc = w.pipeline.data;
  dc.seed = seed;
  const auto t0 = Clock::now();
  st.data = capr::data::make_synthetic_cifar(dc);
  st.data_gen_s = std::chrono::duration<double>(Clock::now() - t0).count();

  st.weight_seed = seed * 1000003ull + static_cast<uint64_t>(repeat);
  sv::SessionOptions so;
  so.mode = sv::SessionOptions::Mode::kCompiledFolded;
  st.session = std::make_shared<const sv::InferenceSession>(
      served_model(w.serve, st.weight_seed), so);
  capr::nn::InferScratch scratch;
  st.session->warm(scratch, static_cast<int64_t>(kMaxBatch));

  capr::Rng rng(seed ^ 0xA5A5A5A5ull);
  const capr::Shape& in = st.session->input_shape();
  for (int64_t i = 0; i < kSamplePool; ++i) {
    capr::Tensor x({1, in[0], in[1], in[2]});
    rng.fill_normal(x, 0.0f, 1.0f);
    capr::Tensor ref = st.session->run(x, scratch);
    st.pool.reference.push_back(ref.reshape({ref.numel()}));
    st.pool.samples.push_back(x.reshape({in[0], in[1], in[2]}));
  }
  sv::ServerConfig cfg;
  cfg.workers = kServerWorkers;
  cfg.max_batch = kMaxBatch;
  cfg.queue_capacity = kQueueCapacity;
  cfg.max_delay_us = kMaxDelayUs;
  const CpuPlan cpus = cpu_plan();
  if (cpus.split) pin(cpus.workers);
  st.server = std::make_unique<sv::InferenceServer>(st.session, cfg);
  pin(cpus.all);
  return st;
}

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !v.empty();
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a.trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || a.workload.empty() || !have_seed || !(a.seconds > 0) || a.trace < 0) {
    return std::nullopt;
  }
  return a;
}

/// The program under test must be the default one: these variables each
/// change it silently (kernel, tuning table, checkpoint cache, scale).
std::string refused_environment() {
  for (const char* v : {"CAPR_GEMM_KERNEL", "CAPR_GEMM_TUNING", "CAPR_CACHE", "CAPR_SCALE"}) {
    if (std::getenv(v) != nullptr) return std::string(v) + " is set";
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return std::string("build type is '") + PERFBENCH_BUILD_TYPE + "', not Release";
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  if (std::string(PERFBENCH_SANITIZE).size() > 0) return "sanitizer build";
  return "";
}

double rusage_s(const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6; }

struct ProcSample {
  Clock::time_point wall;
  rusage ru{};
};
ProcSample proc_now() {
  ProcSample p;
  p.wall = Clock::now();
  getrusage(RUSAGE_SELF, &p.ru);
  return p;
}

void print_phase(const char* name, const PhaseOutcome& p, const Slo& slo) {
  const std::string miss = slo_miss_reason(p, slo);
  std::printf(
      "phase %-10s offered=%.0f/s sent=%lld ok=%lld failed=%lld shed=%lld p50=%.3fms p99=%sms "
      "lag_p99=%.0fus drain=%.1fms %s\n",
      name, p.offered_qps, static_cast<long long>(p.sent), static_cast<long long>(p.ok),
      static_cast<long long>(failures(p)), static_cast<long long>(p.shed),
      percentile(p.latency_ms, 0.5), format_number(slo_percentile(p, 0.99)).c_str(),
      p.lag_p99_us, p.drain_ms, miss.empty() ? "meets-slo" : miss.c_str());
}

int run(const Args& args) {
  const std::vector<WorkloadSpec> all = workloads();
  const WorkloadSpec* w = nullptr;
  for (const auto& s : all) {
    if (s.name == args.workload) w = &s;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "capr-bench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace == 1;
  std::printf("provenance {\"host\": \"%s\", \"nproc\": %u, \"build_type\": \"%s\", "
              "\"compiler\": \"%s\"}\n",
              capr::host_fingerprint().c_str(), std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);

  // --- set-up, repeated; the last one is used ----------------------------
  std::vector<double> setup_s;
  Setup st;
  double setup_total_s = 0.0;
  for (int r = 0; r < kMinSetupRepeats || setup_total_s < kSetupBudgetS; ++r) {
    st = Setup{};  // stops the previous server first
    // A process sets up once: drop the previous repeat's plan, which the
    // process-wide plan cache would otherwise keep, so peak memory does
    // not grow with the number of repeats.
    capr::compile::global_plan_cache().clear();
    const auto t0 = Clock::now();
    st = make_setup(*w, args.seed, r);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    setup_total_s += setup_s.back();
  }
  std::printf("setup: %zu repeats, median %.4fs, min %.4fs\n", setup_s.size(), median(setup_s),
              *std::min_element(setup_s.begin(), setup_s.end()));

  std::map<std::string, Metric> e2e, layers;
  bool correct = true;
  const auto fail = [&](const std::string& why) {
    std::printf("INCORRECT: %s\n", why.c_str());
    correct = false;
  };
  Tracer tracer(traced);

  // --- serving ------------------------------------------------------------
  const CpuPlan cpus = cpu_plan();
  if (cpus.split) pin(cpus.generator);
  const ServeSpec& ss = w->serve;
  // Window length: long enough for `requests` at `rate`, and a fixed share
  // of the run's --seconds.
  const auto window_s = [&](double rate, double requests, double share) {
    return std::max(args.seconds * share, requests / rate);
  };
  // Ladder windows and fixed-rate windows draw their schedules from
  // separate seed streams, so the fixed-rate load of a seed does not
  // depend on how many ladder windows ran.
  uint64_t phase_seed = args.seed * 7919ull;
  uint64_t fixed_seed = phase_seed ^ 0xF1F1F1F1F1ull;
  PhaseDetail warmup;
  // Warm-up: every worker touches its scratch before anything is timed.
  (void)run_phase(*st.server, st.pool, {ss.low_qps, 0.3, ++phase_seed, 1e9}, tracer,
                  "serve.warmup", &warmup);

  int64_t probe_sent = 0, probe_bad = 0, shed_total = 0, timeout_total = 0;
  const auto count = [&](const PhaseOutcome& p) {
    shed_total += p.shed;
    timeout_total += p.timed_out;
  };
  const std::vector<double> ladder = ladder_of(ss);
  const auto ladder_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(args.seconds));
  const LadderResult lr = search_ladder(
      ladder,
      [&](double rate) {
        PhaseDetail d;
        const PhaseOutcome p = run_phase(
            *st.server, st.pool,
            {rate, window_s(rate, kMinProbeRequests, 1.0 / 60), ++phase_seed, ss.drain_limit_ms},
            tracer, "serve.probe", &d);
        print_phase("probe", p, ss.slo);
        count(p);
        // Overload sheds by design; only wrong or errored results fail.
        probe_sent += p.sent;
        probe_bad += p.mismatched + p.errored;
        return slo_miss_reason(p, ss.slo).empty();
      },
      [&](int windows) { return windows < kMinStaircaseWindows || Clock::now() < ladder_end; });
  struct LatencyPhase {
    PhaseOutcome all;  // every window merged
    std::vector<double> p50, p90;  // per window
    bool valid = true;
  };
  const auto latency_phase = [&](const char* name, double rate, PhaseDetail* d) {
    LatencyPhase lp;
    for (int k = 0; k < (traced ? kLatencyWindows : kUntracedLatencyWindows); ++k) {
      const PhaseOutcome p = run_phase(
          *st.server, st.pool,
          {rate, window_s(rate, kMinWindowRequests, 1.0 / 50), ++fixed_seed, ss.drain_limit_ms},
          tracer, name, d);
      print_phase(name, p, ss.slo);
      lp.p50.push_back(percentile(p.latency_ms, 0.5));
      lp.p90.push_back(slo_percentile(p, 0.9));
      lp.valid = lp.valid && generator_valid(p);
      count(p);
      merge(lp.all, p);
    }
    return lp;
  };
  PhaseDetail low_d, high_d;
  const LatencyPhase low = latency_phase("serve.low", ss.low_qps, &low_d);
  const LatencyPhase high = latency_phase("serve.high", ss.high_qps, &high_d);
  st.server->shutdown();
  pin(cpus.all);

  // --- offline pipeline ---------------------------------------------------
  double untraced_pipeline_s = 0.0;
  if (traced) {
    Tracer off(false);
    untraced_pipeline_s = run_pipeline(w->pipeline, st.data, off).pipeline_s;
  }
  const ProcSample p0 = proc_now();
  const PipelineResult pr = run_pipeline(w->pipeline, st.data, tracer);
  const ProcSample p1 = proc_now();
  const double pipeline_user_s = rusage_s(p1.ru.ru_utime) - rusage_s(p0.ru.ru_utime);
  const double pipeline_sys_s = rusage_s(p1.ru.ru_stime) - rusage_s(p0.ru.ru_stime);
  const double pipeline_cpu_s = pipeline_user_s + pipeline_sys_s;
  if (!pr.error.empty()) fail("pipeline: " + pr.error);
  std::printf("pipeline %s: base_acc=%.4f final_acc=%.4f filters_removed=%lld "
              "flops_reduction=%.4f iterations=%d stop='%s' %.3fs\n",
              w->pipeline.arch.c_str(), pr.base_accuracy, pr.final_accuracy,
              static_cast<long long>(pr.filters_removed), pr.flops_reduction, pr.iterations,
              pr.stop_reason.c_str(), pr.pipeline_s);

  if (probe_bad > 0) fail(std::to_string(probe_bad) + " responses mismatched or errored");
  if (!low.valid || !high.valid) fail("generator fell behind its bound (invalid run)");
  if (lr.kind == LadderResult::Kind::kCapped) fail("max_qps_at_slo capped at the top rung");
  if (lr.kind == LadderResult::Kind::kBelowLadder) fail("no ladder rung met the SLO");
  std::printf("max_qps_at_slo: %s %s\n", to_string(lr.kind), format_number(lr.qps).c_str());

  // --- end-to-end metrics ---------------------------------------------------
  // Every request sent and the pipeline. Ladder windows fail only on
  // wrong or errored results; below capacity any failure counts.
  const int64_t attempted = probe_sent + low.all.sent + high.all.sent + 1;
  const int64_t failed =
      failures(low.all) + failures(high.all) + (pr.error.empty() ? 0 : 1) + probe_bad;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  e2e["max_qps_at_slo"] = {lr.qps, "req/s"};
  // CPU seconds, not wall: on a shared virtual machine the hypervisor's
  // steal bursts stretch the pipeline's wall time by up to 2x, most of it
  // in parallel_for waiting for a descheduled worker. Stolen time is not
  // charged to the process. The wall time is the per-layer pipeline.wall_s.
  e2e["pipeline_cpu_s"] = {pipeline_cpu_s, "s"};
  e2e["final_accuracy"] = {pr.final_accuracy, "ratio"};
  e2e["flops_reduction"] = {pr.flops_reduction, "ratio"};
  e2e["filters_removed"] = {static_cast<double>(pr.filters_removed), "count"};
  e2e["setup_s"] = {median(setup_s), "s"};
  e2e["peak_rss_mb"] = {static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"};
  e2e["ok_frac"] = {1.0 - static_cast<double>(failed) / static_cast<double>(attempted), "ratio"};
  for (const auto& [name, m] : e2e) {
    std::printf("metric %-16s %s %s\n", name.c_str(), format_number(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("counts low: sent=%lld ok=%lld failed=%lld; high: sent=%lld ok=%lld failed=%lld\n",
              static_cast<long long>(low.all.sent), static_cast<long long>(low.all.ok),
              static_cast<long long>(failures(low.all)), static_cast<long long>(high.all.sent),
              static_cast<long long>(high.all.ok), static_cast<long long>(failures(high.all)));

  if (!traced) {
    std::printf("%s\n", result_json(correct, attempted, failed, e2e).c_str());
    return 0;
  }

  // --- per-layer metrics (traced run) --------------------------------------
  layers = pr.layers;
  const auto pct = [](const std::vector<double>& v, double q) { return percentile(v, q); };
  layers["serve.submit_us.p50"] = {pct(high_d.submit_us, 0.5), "us"};
  layers["serve.submit_us.p99"] = {pct(high_d.submit_us, 0.99), "us"};
  layers["serve.server_latency_us.p50"] = {pct(high_d.server_latency_us, 0.5), "us"};
  layers["serve.server_latency_us.p99"] = {pct(high_d.server_latency_us, 0.99), "us"};
  const auto& sd = high_d.stats_delta;
  const double batch_mean =
      sd.batches ? static_cast<double>(sd.batched_samples) / static_cast<double>(sd.batches) : 0.0;
  layers["serve.batch_mean"] = {batch_mean, "count"};
  layers["serve.shed"] = {static_cast<double>(shed_total), "count"};
  layers["serve.timed_out"] = {static_cast<double>(timeout_total), "count"};
  layers["serve.p50_ms.low"] = {lower_quartile(low.p50), "ms"};
  layers["serve.p50_ms.high"] = {lower_quartile(high.p50), "ms"};
  layers["serve.p90_ms.low"] = {lower_quartile(low.p90), "ms"};
  layers["serve.p90_ms.high"] = {lower_quartile(high.p90), "ms"};
  layers["serve.p99_ms.low"] = {slo_percentile(low.all, 0.99), "ms"};
  layers["serve.p99_ms.high"] = {slo_percentile(high.all, 0.99), "ms"};
  layers["gen.lag_us.p99"] = {std::max(low.all.lag_p99_us, high.all.lag_p99_us), "us"};
  layers["gen.drain_ms"] = {std::max(low.all.drain_ms, high.all.drain_ms), "ms"};
  layers["tensor.float_allocs_per_req"] = {
      static_cast<double>(high_d.float_allocs) / static_cast<double>(std::max<int64_t>(1, high.all.sent)),
      "count"};

  const int64_t observed = std::clamp<int64_t>(std::llround(batch_mean), 1, kMaxBatch);
  const capr::nn::Model probe_model = served_model(ss, st.weight_seed);
  for (auto& [k, v] : probe_layers(probe_model, *st.session->plan(), kMaxBatch, observed,
                                   kServerWorkers, args.seed)) {
    layers[k] = v;
  }
  layers["serve.wait_us.p50"] = {layers["serve.server_latency_us.p50"].value -
                                     layers["compile.plan_run_us.observed"].value,
                                 "us"};
  layers["data.gen_s"] = {st.data_gen_s, "s"};
  const double wall = std::chrono::duration<double>(p1.wall - p0.wall).count();
  layers["pipeline.wall_s"] = {pr.pipeline_s, "s"};
  layers["proc.cpu_per_wall"] = {pipeline_cpu_s / wall, "ratio"};
  layers["proc.sys_frac"] = {pipeline_sys_s / pipeline_cpu_s, "ratio"};
  layers["proc.ctx_switches"] = {
      static_cast<double>((p1.ru.ru_nvcsw - p0.ru.ru_nvcsw) + (p1.ru.ru_nivcsw - p0.ru.ru_nivcsw)),
      "count"};
  layers["trace.overhead_frac"] = {pr.pipeline_s / untraced_pipeline_s - 1.0, "ratio"};
  if (!args.trace_out.empty() && !tracer.write_chrome(args.trace_out)) {
    fail("cannot write trace to " + args.trace_out);
  }
  for (const auto& [name, m] : layers) {
    std::printf("layer %-36s %s %s\n", name.c_str(), format_number(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("%s\n", result_json(correct, attempted, failed, layers).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::optional<perfbench::Args> args = perfbench::parse(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: capr-bench --workload <small|wide> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out FILE]\n");
    return 2;
  }
  const std::string refused = perfbench::refused_environment();
  if (!refused.empty()) {
    std::fprintf(stderr, "capr-bench: refusing to run: %s\n", refused.c_str());
    return 3;
  }
  try {
    return perfbench::run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "capr-bench: %s\n", e.what());
    return 1;
  }
}
