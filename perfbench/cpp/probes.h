// Per-layer probes of the serving model, timed from outside around public
// calls of the compile and tensor layers (traced runs only).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "compile/plan.h"
#include "nn/model.h"
#include "stats.h"

namespace perfbench {

/// compile.* and tensor.* metrics for `model` served as `plan` with
/// batches up to `bmax`; `observed_batch` is the mean batch the server
/// formed, at which compile.plan_run_us.observed is also measured.
std::map<std::string, Metric> probe_layers(const capr::nn::Model& model,
                                           const capr::compile::ExecutionPlan& plan,
                                           int64_t bmax, int64_t observed_batch,
                                           int contended_threads, uint64_t seed);

}  // namespace perfbench
