#include "tournament/tournament.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "analysis/analyzer.h"
#include "baselines/activation.h"
#include "baselines/magnitude.h"
#include "baselines/regularized.h"
#include "serve/server.h"
#include "serve/session.h"

namespace capr::tournament {
namespace {

struct OpenRow {
  double achieved_qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// One open-loop rung: paced arrivals at `rate_qps` for `window`, shed
/// on a full queue via try_submit, drain, report achieved QPS and
/// completion latency percentiles (the bench_serve generator, compacted).
OpenRow run_open_loop(serve::InferenceServer& server, const std::vector<Tensor>& samples,
                      double rate_qps, std::chrono::milliseconds window) {
  using Clock = std::chrono::steady_clock;
  OpenRow row;
  const auto interval =
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(1.0 / rate_qps));
  std::vector<std::future<serve::InferResult>> futs;
  futs.reserve(static_cast<size_t>(rate_qps * std::chrono::duration<double>(window).count()) +
               16);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end = t0 + window;
  int64_t arrivals = 0;
  for (Clock::time_point due = t0; due < end; due += interval) {
    std::this_thread::sleep_until(due);  // no-op once the schedule is behind
    auto fut = server.try_submit(samples[static_cast<size_t>(arrivals) % samples.size()]);
    ++arrivals;
    if (fut.has_value()) futs.push_back(std::move(*fut));
  }
  std::vector<int64_t> latencies;
  latencies.reserve(futs.size());
  for (auto& fut : futs) {
    serve::InferResult res = fut.get();
    if (res.status == serve::RequestStatus::kOk) latencies.push_back(res.latency_us);
  }
  const double drained_s = std::chrono::duration<double>(Clock::now() - t0).count();
  row.achieved_qps =
      drained_s > 0 ? static_cast<double>(latencies.size()) / drained_s : 0.0;
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

/// Runs the offered-rate ladder and returns the saturation row (peak
/// achieved QPS) with its latency percentiles.
OpenRow measure_saturation(const std::shared_ptr<const serve::InferenceSession>& session,
                           const ServeMeasureConfig& cfg, const data::Dataset& test) {
  std::vector<Tensor> samples;
  const int64_t pool = std::min<int64_t>(cfg.sample_pool, test.size());
  samples.reserve(static_cast<size_t>(pool));
  for (int64_t i = 0; i < pool; ++i) {
    const data::Batch b = test.gather({i});
    samples.push_back(b.images.reshape(test.image_shape()));
  }
  OpenRow best;
  for (double rate : cfg.ladder) {
    serve::ServerConfig scfg;
    scfg.workers = cfg.workers;
    scfg.max_batch = cfg.max_batch;
    scfg.queue_capacity = cfg.queue_capacity;
    serve::InferenceServer server(session, scfg);
    const OpenRow row =
        run_open_loop(server, samples, rate, std::chrono::milliseconds(cfg.window_ms));
    if (row.achieved_qps > best.achieved_qps) best = row;
  }
  return best;
}

}  // namespace

std::vector<std::string> default_roster() {
  return {"class-aware",        "magnitude",        "activation", "regularized",
          "unstructured-equiv", "dependency-aware", "provable"};
}

std::unique_ptr<strategy::PruneStrategy> make_strategy(const std::string& name,
                                                       const TournamentConfig& cfg) {
  if (name == "class-aware") {
    return std::make_unique<strategy::ClassAwareStrategy>(cfg.class_aware);
  }
  if (name == "magnitude") {
    return std::make_unique<baselines::L1Criterion>();
  }
  if (name == "activation") {
    return std::make_unique<baselines::TaylorFOCriterion>(cfg.criterion_images_per_class);
  }
  if (name == "regularized") {
    return std::make_unique<baselines::SSSCriterion>();
  }
  if (name == "unstructured-equiv") {
    return std::make_unique<strategy::UnstructuredEquivalentStrategy>(cfg.unstructured);
  }
  if (name == "dependency-aware") {
    return std::make_unique<strategy::DependencyAwareStrategy>();
  }
  if (name == "provable") {
    return std::make_unique<strategy::ProvableStrategy>(cfg.provable);
  }
  throw std::invalid_argument("unknown strategy: " + name);
}

TournamentResult run_tournament(const TournamentConfig& cfg, std::ostream* log) {
  const std::vector<std::string> roster =
      cfg.strategies.empty() ? default_roster() : cfg.strategies;
  for (const std::string& name : roster) (void)make_strategy(name, cfg);  // validate upfront

  const data::SyntheticCifar data = data::make_synthetic_cifar(cfg.dataset);
  if (log) {
    *log << "tournament: arch=" << cfg.arch << " entrants=" << roster.size() << "\n";
  }
  nn::Model base = models::make_model(cfg.arch, cfg.build);
  nn::train(base, data.train, cfg.base_train);
  const auto base_weights = base.state_dict();
  if (log) {
    *log << "base trained: accuracy=" << nn::evaluate(base, data.test) << "\n";
  }

  TournamentResult result;
  result.arch = cfg.arch;
  for (const std::string& name : roster) {
    std::unique_ptr<strategy::PruneStrategy> strat = make_strategy(name, cfg);
    nn::Model model = models::make_model(cfg.arch, cfg.build);
    model.load_state_dict(base_weights);
    const strategy::StrategyRunResult run =
        strategy::run_strategy(model, *strat, data.train, data.test, cfg.prune);

    EntrantResult e;
    e.strategy = name;
    e.original_accuracy = run.original_accuracy;
    e.final_accuracy = run.final_accuracy;
    e.report = run.report;
    e.iterations_run = run.iterations_run;
    e.filters_removed = run.filters_removed;
    e.stop_reason = run.stop_reason;

    // Certify + compile + serve. A method whose final model fails
    // certification or admission LOSES (certified=false, off the
    // frontier) instead of crashing the tournament.
    try {
      analysis::require_ok(analysis::analyze_model(model));
      serve::SessionOptions sopts;
      sopts.mode = serve::SessionOptions::Mode::kCompiledFolded;
      auto session =
          std::make_shared<const serve::InferenceSession>(std::move(model), sopts);
      e.certified = true;
      if (cfg.measure_serving) {
        const OpenRow sat = measure_saturation(session, cfg.serve, data.test);
        e.saturation_qps = sat.achieved_qps;
        e.p50_us = sat.p50_us;
        e.p99_us = sat.p99_us;
      }
    } catch (const std::exception& ex) {
      e.certified = false;
      if (log) *log << name << ": certification failed: " << ex.what() << "\n";
    }
    if (log) {
      *log << name << ": accuracy=" << e.final_accuracy
           << " pruned=" << e.report.pruning_ratio() << " qps=" << e.saturation_qps
           << " p99_us=" << e.p99_us << " (" << e.stop_reason << ")\n";
    }
    result.entrants.push_back(std::move(e));
  }
  mark_pareto(result.entrants);
  return result;
}

void mark_pareto(std::vector<EntrantResult>& entrants) {
  for (EntrantResult& e : entrants) {
    e.pareto = e.certified;
    if (!e.certified) continue;
    for (const EntrantResult& other : entrants) {
      if (&other == &e || !other.certified) continue;
      const bool geq = other.final_accuracy >= e.final_accuracy &&
                       other.saturation_qps >= e.saturation_qps;
      const bool gt = other.final_accuracy > e.final_accuracy ||
                      other.saturation_qps > e.saturation_qps;
      if (geq && gt) {
        e.pareto = false;
        break;
      }
    }
  }
}

report::JsonValue to_json(const TournamentResult& result) {
  using report::JsonValue;
  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue::string("capr-tournament-v1"));
  doc.set("arch", JsonValue::string(result.arch));
  JsonValue rows = JsonValue::array();
  for (const EntrantResult& e : result.entrants) {
    JsonValue row = JsonValue::object();
    row.set("name", JsonValue::string("tournament/" + result.arch + "/" + e.strategy));
    row.set("strategy", JsonValue::string(e.strategy));
    row.set("qps", JsonValue::number(e.saturation_qps));
    row.set("p50_us", JsonValue::number(e.p50_us));
    row.set("p99_us", JsonValue::number(e.p99_us));
    row.set("accuracy", JsonValue::number(static_cast<double>(e.final_accuracy)));
    row.set("original_accuracy",
            JsonValue::number(static_cast<double>(e.original_accuracy)));
    row.set("params_before", JsonValue::number(e.report.params_before));
    row.set("params_after", JsonValue::number(e.report.params_after));
    row.set("flops_before", JsonValue::number(e.report.flops_before));
    row.set("flops_after", JsonValue::number(e.report.flops_after));
    row.set("pruning_ratio", JsonValue::number(e.report.pruning_ratio()));
    row.set("flops_reduction", JsonValue::number(e.report.flops_reduction()));
    row.set("iterations", JsonValue::number(static_cast<int64_t>(e.iterations_run)));
    row.set("filters_removed", JsonValue::number(e.filters_removed));
    row.set("stop_reason", JsonValue::string(e.stop_reason));
    row.set("certified", JsonValue::boolean(e.certified));
    row.set("pareto", JsonValue::boolean(e.pareto));
    rows.push_back(std::move(row));
  }
  doc.set("results", std::move(rows));
  return doc;
}

std::string to_csv(const TournamentResult& result) {
  std::ostringstream out;
  out << "strategy,accuracy,original_accuracy,qps,p50_us,p99_us,pruning_ratio,"
         "flops_reduction,iterations,filters_removed,certified,pareto,stop_reason\n";
  for (const EntrantResult& e : result.entrants) {
    out << e.strategy << ',' << e.final_accuracy << ',' << e.original_accuracy << ','
        << e.saturation_qps << ',' << e.p50_us << ',' << e.p99_us << ','
        << e.report.pruning_ratio() << ',' << e.report.flops_reduction() << ','
        << e.iterations_run << ',' << e.filters_removed << ','
        << (e.certified ? "true" : "false") << ',' << (e.pareto ? "true" : "false") << ",\""
        << e.stop_reason << "\"\n";
  }
  return out.str();
}

}  // namespace capr::tournament
