#include "strategy/class_aware.h"

namespace capr::strategy {

ScoreSet ClassAwareStrategy::score(const StrategyContext& ctx) {
  core::ImportanceEvaluator evaluator(cfg_.importance);
  core::ImportanceResult result = evaluator.evaluate(ctx.model, ctx.train_set);
  UnitFilterScores totals;
  totals.reserve(result.units.size());
  for (core::UnitScores& u : result.units) totals.push_back(std::move(u.total));
  return admitted_scores(ctx, std::move(totals));
}

}  // namespace capr::strategy
