#include "pipeline.h"

#include <cstring>
#include <exception>
#include <memory>
#include <vector>

#include "analysis/analyzer.h"
#include "compile/compiler.h"
#include "core/modified_loss.h"
#include "core/surgeon.h"
#include "graph/graph.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace st = capr::strategy;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Forwards to a regularizer and times each call.
class TimedRegularizer final : public capr::nn::Regularizer {
 public:
  TimedRegularizer(capr::nn::Regularizer& inner, Tracer& tracer, const int64_t* parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {}
  float apply(capr::nn::Model& model) override {
    const auto t0 = Clock::now();
    const float v = inner_.apply(model);
    const auto t1 = Clock::now();
    tracer_.add("nn.regularizer", t0, t1, *parent_);
    ms_.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    return v;
  }
  const std::vector<double>& ms() const { return ms_; }

 private:
  capr::nn::Regularizer& inner_;
  Tracer& tracer_;
  const int64_t* parent_;  // span the calls belong to, updated by the caller
  std::vector<double> ms_;
};

/// Forwards every PruneStrategy call to `inner`, timing score() and
/// wrapping the fine-tune regularizer. With tracing on it also records
/// each score set and the model state it was scored on, for the replays.
class TracedStrategy final : public st::PruneStrategy {
 public:
  TracedStrategy(st::PruneStrategy& inner, Tracer& tracer, const int64_t* parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {
    if (capr::nn::Regularizer* r = inner_.train_regularizer()) {
      reg_ = std::make_unique<TimedRegularizer>(*r, tracer, parent);
    }
  }
  std::string name() const override { return inner_.name(); }
  st::ScoreSet score(const st::StrategyContext& ctx) override {
    const auto t0 = Clock::now();
    st::ScoreSet s = inner_.score(ctx);
    const auto t1 = Clock::now();
    tracer_.add("strategy.score", t0, t1, *parent_);
    score_s_ += std::chrono::duration<double>(t1 - t0).count();
    score_end_.push_back(t1);
    if (tracer_.on()) {
      scores_.push_back(s);
      states_.push_back(ctx.model.state_dict());
    }
    return s;
  }
  capr::core::StrategyMode mode() const override { return inner_.mode(); }
  float score_threshold() const override { return inner_.score_threshold(); }
  capr::nn::Regularizer* train_regularizer() override { return reg_.get(); }

  double score_s() const { return score_s_; }
  size_t score_calls() const { return score_end_.size(); }
  const std::vector<Clock::time_point>& score_end() const { return score_end_; }
  const std::vector<st::ScoreSet>& scores() const { return scores_; }
  const std::vector<std::map<std::string, capr::Tensor>>& states() const { return states_; }
  const TimedRegularizer* regularizer() const { return reg_.get(); }

 private:
  st::PruneStrategy& inner_;
  Tracer& tracer_;
  const int64_t* parent_;
  std::unique_ptr<TimedRegularizer> reg_;
  double score_s_ = 0.0;
  std::vector<Clock::time_point> score_end_;
  std::vector<st::ScoreSet> scores_;
  std::vector<std::map<std::string, capr::Tensor>> states_;
};

bool bitwise_equal(const capr::Tensor& a, const capr::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

}  // namespace

PipelineResult run_pipeline(const PipelineSpec& spec, const capr::data::SyntheticCifar& data,
                            Tracer& tracer) {
  PipelineResult res;
  capr::nn::Model model = capr::models::make_model(spec.arch, spec.build);
  int64_t stage = -1;  // span the library calls of the current stage belong to
  capr::core::ModifiedLoss loss(spec.class_aware.loss);
  TimedRegularizer base_reg(loss, tracer, &stage);
  st::ClassAwareStrategy class_aware(spec.class_aware);
  TracedStrategy strat(class_aware, tracer, &stage);
  st::StrategyRunConfig prune = spec.prune;
  std::vector<Clock::time_point> iteration_end;
  if (tracer.on()) {
    prune.on_iteration = [&](const capr::core::IterationRecord&) {
      iteration_end.push_back(Clock::now());
    };
  }

  double train_s = 0.0;
  std::shared_ptr<const capr::compile::ExecutionPlan> plan;
  capr::nn::InferScratch scratch;
  try {
    ScopedSpan pipeline(tracer, "pipeline");
    {
      ScopedSpan span(tracer, "nn.train", pipeline.id());
      stage = span.id();
      capr::nn::train(model, data.train, spec.base_train, &base_reg);
      train_s = span.close();
    }
    {
      ScopedSpan span(tracer, "strategy.run_strategy", pipeline.id());
      stage = span.id();
      const st::StrategyRunResult r = st::run_strategy(model, strat, data.train, data.test, prune);
      res.base_accuracy = r.original_accuracy;
      res.final_accuracy = r.final_accuracy;
      res.flops_reduction = r.report.flops_reduction();
      res.filters_removed = r.filters_removed;
      res.iterations = r.iterations_run;
      res.stop_reason = r.stop_reason;
    }
    {
      ScopedSpan span(tracer, "analysis.certify", pipeline.id());
      capr::analysis::require_ok(capr::analysis::analyze_model(model));
    }
    {
      ScopedSpan span(tracer, "compile.compile", pipeline.id());
      const capr::graph::ModuleGraph g = capr::graph::ModuleGraph::build(model);
      capr::compile::CompileOptions opts;
      opts.fold_batchnorm = false;  // kCompiled: bitwise equal to Model::forward
      capr::compile::CompileResult cr = capr::compile::compile(g, opts);
      if (!cr.plan) {
        throw std::runtime_error("compile failed: " +
                                 (cr.errors.empty() ? std::string("lint") : cr.errors[0].format()));
      }
      plan = cr.plan;
    }
    {
      ScopedSpan span(tracer, "compile.warm", pipeline.id());
      plan->warm(scratch, spec.warm_batch);
    }
    res.pipeline_s = pipeline.close();
  } catch (const std::exception& e) {
    res.error = e.what();
    return res;
  }

  // Correctness: the compiled plan reproduces Model::forward bitwise.
  const capr::data::Batch batch =
      data.test.slice(0, std::min<int64_t>(spec.warm_batch, data.test.size()));
  if (!bitwise_equal(plan->run(batch.images, scratch), model.forward(batch.images, false))) {
    res.error = "compiled plan output differs from Model::forward";
  }
  if (res.filters_removed == 0) res.error = "pipeline removed no filters (" + res.stop_reason + ")";

  if (!tracer.on()) return res;
  auto& L = res.layers;
  const double samples = static_cast<double>(data.train.size()) * spec.base_train.epochs;
  L["nn.train_s"] = {train_s, "s"};
  L["nn.train_samples_per_s"] = {samples / train_s, "1/s"};
  L["nn.regularizer_ms"] = {median(strat.regularizer() ? strat.regularizer()->ms() : base_reg.ms()),
                            "ms"};
  L["strategy.score_s"] = {strat.score_s(), "s"};
  L["strategy.score_calls"] = {static_cast<double>(strat.score_calls()), "count"};
  L["core.iterations"] = {static_cast<double>(res.iterations), "count"};

  // Replays of the recorded decisions, each on its own copy of the model.
  std::vector<double> select_ms, certify_ms, surgery_ms, graph_ms, eval_ms;
  const capr::core::PruneStrategyConfig scfg = st::selection_config(strat, prune.limits);
  for (size_t i = 0; i < strat.scores().size(); ++i) {
    auto t0 = Clock::now();
    const auto sel = st::select(strat.scores()[i], strat, prune.limits);
    select_ms.push_back(ms_since(t0));
    if (sel.empty()) continue;
    capr::nn::Model copy = capr::models::make_model(spec.arch, spec.build);
    capr::core::load_pruned_checkpoint(copy, strat.states()[i]);
    t0 = Clock::now();
    (void)capr::graph::ModuleGraph::build(copy);
    graph_ms.push_back(ms_since(t0));
    capr::analysis::VerifyOptions vopts;
    vopts.strategy = &scfg;
    t0 = Clock::now();
    capr::analysis::require_ok(capr::analysis::analyze_plan(copy, sel, vopts));
    certify_ms.push_back(ms_since(t0));
    t0 = Clock::now();
    capr::core::apply_selection(copy, sel);
    surgery_ms.push_back(ms_since(t0));
  }
  for (int k = 0; k < 3; ++k) {
    const auto t0 = Clock::now();
    (void)capr::nn::evaluate(model, data.test);
    eval_ms.push_back(ms_since(t0));
  }
  L["strategy.select_ms"] = {median(select_ms), "ms"};
  L["analysis.certify_ms"] = {median(certify_ms), "ms"};
  L["core.surgery_ms"] = {median(surgery_ms), "ms"};
  L["graph.build_ms"] = {median(graph_ms), "ms"};
  L["nn.evaluate_ms"] = {median(eval_ms), "ms"};
  // Fine-tuning is not a separate public call: derive it from the score ->
  // iteration-end windows minus the replayed select/certify/surgery/evaluate.
  double window_s = 0.0;
  for (size_t i = 0; i < iteration_end.size() && i < strat.score_end().size(); ++i) {
    window_s += std::chrono::duration<double>(iteration_end[i] - strat.score_end()[i]).count();
  }
  const double other_ms = L["strategy.select_ms"].value + L["analysis.certify_ms"].value +
                          L["core.surgery_ms"].value + L["nn.evaluate_ms"].value;
  L["nn.finetune_s"] = {window_s - static_cast<double>(iteration_end.size()) * other_ms * 1e-3,
                        "s"};
  return res;
}

}  // namespace perfbench
