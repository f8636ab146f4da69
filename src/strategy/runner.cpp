#include "strategy/runner.h"

#include <map>
#include <stdexcept>

#include "analysis/analyzer.h"
#include "core/surgeon.h"
#include "graph/graph.h"

namespace capr::strategy {

StrategyRunResult run_strategy(nn::Model& model, PruneStrategy& strat,
                               const data::Dataset& train_set, const data::Dataset& test_set,
                               const StrategyRunConfig& cfg) {
  if (cfg.limits.max_fraction_per_iter <= 0.0f || cfg.limits.max_fraction_per_iter > 1.0f) {
    throw std::invalid_argument("run_strategy: max_fraction_per_iter must be in (0, 1]");
  }
  StrategyRunResult result;
  result.method = strat.name();
  const flops::ModelCost cost_before = flops::count(model);
  result.original_accuracy = nn::evaluate(model, test_set);
  result.stop_reason = "max iterations reached";
  const auto unrecovered = [&](float accuracy) {
    return result.original_accuracy - accuracy > cfg.max_accuracy_drop;
  };

  float accuracy = result.original_accuracy;
  for (int iter = 0; iter < cfg.max_iterations; ++iter) {
    const graph::ModuleGraph graph = graph::ModuleGraph::build(model);
    if (!graph.ok()) {
      throw std::logic_error("run_strategy: model graph ill-formed: " + graph.error()->format());
    }
    const StrategyContext ctx{model, graph, train_set};
    const ScoreSet scores = strat.score(ctx);
    const auto selection = select(scores, strat, cfg.limits);
    if (selection.empty()) {
      result.stop_reason = "no prunable filters remain";
      break;
    }
    const core::PruneStrategyConfig scfg = selection_config(strat, cfg.limits);
    analysis::VerifyOptions opts;
    opts.strategy = &scfg;
    analysis::require_ok(analysis::analyze_plan(model, selection, opts));

    std::map<std::string, Tensor> snapshot;
    if (cfg.model_factory) snapshot = model.state_dict();
    const int64_t removed = core::apply_selection(model, selection);

    nn::TrainConfig ft = cfg.finetune;
    ft.loader_seed = cfg.finetune.loader_seed + static_cast<uint64_t>(iter) + 1;
    nn::train(model, train_set, ft, strat.train_regularizer());
    float new_accuracy = nn::evaluate(model, test_set);
    for (int round = 0; round < cfg.recovery_rounds && unrecovered(new_accuracy); ++round) {
      ft.loader_seed += 7919;
      nn::train(model, train_set, ft, strat.train_regularizer());
      new_accuracy = nn::evaluate(model, test_set);
    }

    if (unrecovered(new_accuracy)) {
      result.stop_reason = "accuracy drop not recovered by fine-tuning";
      if (cfg.model_factory) {
        // The snapshot is the pre-surgery model: reload it into a fresh
        // copy of the architecture shrunk to the snapshot's shapes.
        nn::Model restored = cfg.model_factory();
        core::load_pruned_checkpoint(restored, snapshot);
        model = std::move(restored);
        result.stop_reason += " (iteration rolled back)";
        break;
      }
    }

    accuracy = new_accuracy;
    result.filters_removed += removed;
    result.iterations_run = iter + 1;
    if (cfg.on_iteration) {
      const flops::ModelCost cost_now = flops::count(model);
      core::IterationRecord rec;
      rec.iteration = iter;
      rec.filters_removed = removed;
      rec.filters_remaining = core::total_prunable_filters(model);
      rec.accuracy_after_finetune = accuracy;
      rec.params = cost_now.total_params;
      rec.flops = cost_now.total_flops;
      cfg.on_iteration(rec);
    }
    if (unrecovered(accuracy)) break;
  }

  result.final_accuracy = accuracy;
  result.report = flops::compare(cost_before, flops::count(model));
  return result;
}

}  // namespace capr::strategy
