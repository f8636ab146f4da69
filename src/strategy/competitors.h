// Tournament competitors introduced at the strategy layer (PAPERS.md):
//
//  - DependencyAwareStrategy — Dependency-Aware Filter Pruning (Zhao et
//    al.): a filter's importance is the l2 norm of the WHOLE coupled
//    channel, read directly off the graph's CouplingGroup (producer
//    out-slice + BN gamma/beta + every consumer in-slice, with the
//    Linear spatial factor), computed from the graph IR itself — the
//    CouplingGroups ARE the dependency sets. This is also the
//    full-grouping DepGraph row of Fig. 6.
//  - ProvableStrategy — Provable Filter Pruning (Liebenwein et al.):
//    sampling-based empirical sensitivity. Over a balanced sample,
//    a filter's sensitivity is the worst-case (max over images) share
//    it contributes to its layer's total activation mass; keeping
//    high-sensitivity filters bounds the relative output error on the
//    sampled distribution.
//  - UnstructuredEquivalentStrategy — the structured equivalent of
//    global magnitude (unstructured) pruning: threshold all producer
//    weights at the target sparsity quantile, then rank each filter by
//    the fraction of its weight MASS that survives. Filters that
//    unstructured pruning would have hollowed out rank lowest.
#pragma once

#include <cstdint>

#include "strategy/strategy.h"

namespace capr::strategy {

class DependencyAwareStrategy final : public PruneStrategy {
 public:
  std::string name() const override { return "dependency-aware"; }
  ScoreSet score(const StrategyContext& ctx) override;
};

struct ProvableStrategyConfig {
  /// Sample size per class for the sensitivity estimate.
  int64_t images_per_class = 10;
  uint64_t seed = 131;
};

class ProvableStrategy final : public PruneStrategy {
 public:
  explicit ProvableStrategy(ProvableStrategyConfig cfg = {}) : cfg_(cfg) {}

  std::string name() const override { return "provable"; }
  ScoreSet score(const StrategyContext& ctx) override;

 private:
  ProvableStrategyConfig cfg_;
};

struct UnstructuredEquivalentConfig {
  /// Global weight sparsity the magnitude threshold is set at.
  float sparsity = 0.7f;
};

class UnstructuredEquivalentStrategy final : public PruneStrategy {
 public:
  explicit UnstructuredEquivalentStrategy(UnstructuredEquivalentConfig cfg = {}) : cfg_(cfg) {}

  std::string name() const override { return "unstructured-equiv"; }
  ScoreSet score(const StrategyContext& ctx) override;

 private:
  UnstructuredEquivalentConfig cfg_;
};

}  // namespace capr::strategy
