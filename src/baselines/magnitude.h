// Weight-magnitude criteria.
#pragma once

#include "strategy/strategy.h"

namespace capr::baselines {

/// L1-norm filter pruning (Li et al., "Pruning Filters for Efficient
/// ConvNets", ICLR 2017 — paper ref [23]): importance of a filter is the
/// sum of absolute values of its weights.
class L1Criterion final : public strategy::PruneStrategy {
 public:
  L1Criterion() = default;
  std::string name() const override { return "L1"; }
  strategy::ScoreSet score(const strategy::StrategyContext& ctx) override;
};

/// L2 filter norm. Also the no-grouping DepGraph variant (Fang et al.,
/// CVPR 2023 — paper ref [13]): with no grouping DepGraph scores a
/// filter by its producer out-channel norm alone. The full-grouping
/// variant is strategy::DependencyAwareStrategy.
class L2Criterion final : public strategy::PruneStrategy {
 public:
  L2Criterion() = default;
  std::string name() const override { return "L2"; }
  strategy::ScoreSet score(const strategy::StrategyContext& ctx) override;
};

}  // namespace capr::baselines
