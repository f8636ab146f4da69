// The paper's class-aware method behind the PruneStrategy interface.
//
// Scoring delegates to core::ImportanceEvaluator (Eqs. 3-7): the
// evaluator's per-unit totals are forwarded untouched to the shared
// selection engine (tests/strategy_iface_test.cpp proves selection and
// surgery parity with the flat core::select_filters path on all nine
// architectures). Fine-tuning uses the modified cost (Eq. 1).
#pragma once

#include "core/importance.h"
#include "core/modified_loss.h"
#include "strategy/strategy.h"

namespace capr::strategy {

struct ClassAwareStrategyConfig {
  core::ImportanceConfig importance{};
  core::ModifiedLossConfig loss{};
  /// Paper default: threshold capped by the per-iteration percentage.
  core::StrategyMode mode = core::StrategyMode::kBoth;
  /// < 0 selects the paper's 0.3 * num_classes rule.
  float score_threshold = -1.0f;
};

class ClassAwareStrategy final : public PruneStrategy {
 public:
  explicit ClassAwareStrategy(ClassAwareStrategyConfig cfg = {})
      : cfg_(cfg), modified_loss_(cfg.loss) {}

  std::string name() const override { return "class-aware"; }
  ScoreSet score(const StrategyContext& ctx) override;
  core::StrategyMode mode() const override { return cfg_.mode; }
  float score_threshold() const override { return cfg_.score_threshold; }
  nn::Regularizer* train_regularizer() override { return &modified_loss_; }

 private:
  ClassAwareStrategyConfig cfg_;
  core::ModifiedLoss modified_loss_;
};

}  // namespace capr::strategy
