// The iterative prune/fine-tune driver every method runs under (paper
// Section III-D, Fig. 5):
//
//   score the graph's prunable groups -> select through the shared
//   engine -> certify the plan with the static analyzer -> apply the
//   surgery -> fine-tune (with the strategy's regularizer), spending up
//   to `recovery_rounds` extra fine-tunes on a violated drop bound ->
//   stop when nothing is selectable, the accuracy drop is unrecovered,
//   or the iteration budget is exhausted.
//
// Class-aware pruning, the Fig. 6 baselines and every tournament entrant
// go through this one loop, so "apples-to-apples" is structural: one
// loop, one selection engine, one certification path, one rollback.
#pragma once

#include <functional>
#include <string>

#include "core/strategy.h"
#include "flops/flops.h"
#include "nn/trainer.h"
#include "strategy/strategy.h"

namespace capr::core {

/// One kept prune/fine-tune iteration, as run_strategy reports it.
struct IterationRecord {
  int iteration = 0;
  int64_t filters_removed = 0;
  int64_t filters_remaining = 0;
  float accuracy_after_finetune = 0.0f;
  int64_t params = 0;
  int64_t flops = 0;
};

}  // namespace capr::core

namespace capr::strategy {

struct StrategyRunConfig {
  /// Caps and floors every selection runs under.
  core::SelectionLimits limits{};
  int max_iterations = 20;
  /// Stop when (original accuracy - fine-tuned accuracy) exceeds this.
  float max_accuracy_drop = 0.02f;
  /// Fine-tuning schedule applied after every surgery.
  nn::TrainConfig finetune{};
  /// Extra fine-tuning rounds attempted when an iteration violates the
  /// drop bound, before declaring it unrecoverable (the paper retrains
  /// "for up to 130 epochs": recovery effort scales with need).
  int recovery_rounds = 0;
  /// Optional factory returning a fresh, unpruned copy of the model
  /// architecture. When set, an iteration whose accuracy cannot be
  /// recovered is ROLLED BACK to the weights taken before its surgery,
  /// so the returned model is the last one that satisfied the drop bound
  /// — the operating point the paper's tables quote. Without a factory
  /// the degraded model is kept.
  std::function<nn::Model()> model_factory;
  /// Optional observer invoked after each kept iteration (a rolled-back
  /// iteration is not reported).
  std::function<void(const core::IterationRecord&)> on_iteration;
};

struct StrategyRunResult {
  std::string method;
  float original_accuracy = 0.0f;
  float final_accuracy = 0.0f;
  flops::PruningReport report;
  int iterations_run = 0;
  int64_t filters_removed = 0;
  std::string stop_reason;
};

/// Prunes `model` in place with `strat`. `train_set` feeds scoring and
/// fine-tuning; `test_set` drives the stop rule. Every selection is
/// certified with analysis::require_ok before surgery. Throws
/// std::invalid_argument on out-of-range limits (before any training)
/// and analysis::AnalysisError when certification rejects a plan.
StrategyRunResult run_strategy(nn::Model& model, PruneStrategy& strat,
                               const data::Dataset& train_set, const data::Dataset& test_set,
                               const StrategyRunConfig& cfg);

}  // namespace capr::strategy
