// The offline class-aware pipeline: modified-loss training from scratch,
// class-aware pruning through strategy::run_strategy, certification,
// compilation and warm-up of the final plan, all through public APIs.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "data/synthetic.h"
#include "models/builders.h"
#include "nn/trainer.h"
#include "stats.h"
#include "strategy/class_aware.h"
#include "strategy/runner.h"
#include "trace.h"

namespace perfbench {

struct PipelineSpec {
  std::string arch;
  capr::models::BuildConfig build;
  capr::data::SyntheticCifarConfig data;
  capr::nn::TrainConfig base_train;
  capr::strategy::StrategyRunConfig prune;
  capr::strategy::ClassAwareStrategyConfig class_aware;
  int64_t warm_batch = 8;
};

struct PipelineResult {
  double pipeline_s = 0.0;  // start of training -> warmed final plan
  float base_accuracy = 0.0f;
  float final_accuracy = 0.0f;
  double flops_reduction = 0.0;
  int64_t filters_removed = 0;
  int iterations = 0;
  std::string stop_reason;
  std::string error;  // first failure, empty when none
  /// Per-layer metrics measured from outside the library (traced runs).
  std::map<std::string, Metric> layers;
};

/// Runs the pipeline on `data` (generated at set-up). With tracing on it
/// records spans around each library call and replays the recorded
/// selections to time select, certify and surgery in isolation.
PipelineResult run_pipeline(const PipelineSpec& spec, const capr::data::SyntheticCifar& data,
                            Tracer& tracer);

}  // namespace perfbench
