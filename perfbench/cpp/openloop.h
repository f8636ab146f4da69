// Open-loop load generator: one thread sends single-sample requests to an
// InferenceServer on a seeded Poisson schedule, whether or not earlier
// requests have completed, and collects their results between sends.
//
// Each request is timed from its *scheduled* send time, so a stall that
// delays later sends is charged to them; completion is the submit time
// plus InferResult::latency_us, so collecting adds nothing to the
// measured time. Every kOk output is compared bitwise with the batch-1
// output the same session produced for that sample at set-up.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/server.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

/// Distinct request samples and their batch-1 reference logits.
struct SamplePool {
  std::vector<capr::Tensor> samples;    // [C, H, W]
  std::vector<capr::Tensor> reference;  // flattened [num_classes]
};

struct PhaseSpec {
  double rate_qps = 0.0;
  double seconds = 1.0;
  uint64_t seed = 0;
  /// The backlog must drain within this long after the last scheduled send.
  double drain_limit_ms = 0.0;
};

/// Side measurements beyond PhaseOutcome, accumulated over the phases
/// run with the same detail.
struct PhaseDetail {
  std::vector<double> submit_us;          // time inside try_submit (traced runs only)
  std::vector<double> server_latency_us;  // InferResult::latency_us of kOk results
  capr::serve::ServerStats stats_delta;   // server counters across the phase
  uint64_t float_allocs = 0;              // float-buffer allocations across the phase
};

/// Runs one phase. Spans (traced runs): one "serve.try_submit" per
/// accepted or shed request, children of a phase span named `name`.
PhaseOutcome run_phase(capr::serve::InferenceServer& server, const SamplePool& pool,
                       const PhaseSpec& spec, Tracer& tracer, const char* name,
                       PhaseDetail* detail);

}  // namespace perfbench
