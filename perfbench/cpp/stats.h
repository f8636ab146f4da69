// Statistics and decision rules of the benchmark, kept free of the capr
// libraries so tests/stats_test.cpp can pin them directly.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `values` (q in [0, 1]); NaN when empty.
double percentile(std::vector<double> values, double q);

/// A percentile is reported only when at least 10 samples lie beyond it,
/// i.e. n * (1 - q) >= 10: p50 needs 20 samples, p99 needs 1000.
bool percentile_supported(size_t n, double q);

/// Median of `values`; NaN when empty.
double median(std::vector<double> values);

/// Lower quartile (nearest rank) of per-window values: the figure a
/// fixed-rate phase reports. Host stalls on a virtual machine come in
/// bursts that slow whole windows; the lower quartile of nine windows
/// stays put unless most of the phase is slowed, while a change to the
/// program moves every window.
double lower_quartile(const std::vector<double>& values);

/// What one open-loop phase at a fixed offered rate observed.
struct PhaseOutcome {
  double offered_qps = 0.0;
  int64_t sent = 0;        // try_submit attempts, shed ones included
  int64_t ok = 0;          // kOk and bitwise equal to the reference
  int64_t shed = 0;        // try_submit found the queue full
  int64_t timed_out = 0;   // kTimeout
  int64_t errored = 0;     // any other non-kOk status
  int64_t mismatched = 0;  // kOk whose logits differ from the reference
  std::vector<double> latency_ms;  // scheduled send -> completion, ok only
  double lag_p50_us = 0.0;         // generator lateness (actual - scheduled send)
  double lag_p99_us = 0.0;
  double drain_ms = 0.0;           // last completion after the last scheduled send
  bool drained = true;             // every request resolved within the drain limit
};

/// Adds a later window of the same phase into `into`: counts and
/// latencies accumulate, lag and drain keep the worst window.
void merge(PhaseOutcome& into, const PhaseOutcome& window);

/// Requests that did not produce a correct result: sheds, timeouts,
/// errors and mismatches.
int64_t failures(const PhaseOutcome& p);
/// failures / sent; 0 for an empty phase.
double fail_frac(const PhaseOutcome& p);

/// Percentile q of the phase latency where every failed request counts
/// as missing any limit (+infinity). NaN when q is not supported by the
/// number of requests sent.
double slo_percentile(const PhaseOutcome& p, double q);

/// The service-level objective a ladder rung must meet.
struct Slo {
  double p99_ms = 0.0;         // limit on slo_percentile(p, 0.99)
  double max_fail_frac = 0.0;  // limit on fail_frac
};

/// The generator fell behind its schedule when its median lateness
/// exceeds 1 ms or its p99 exceeds 50 ms. Host stalls of a few
/// milliseconds are charged to the measured latency, not treated as a
/// broken generator; a generator that cannot keep up is late on most sends.
constexpr double kMaxLagP50Us = 1000.0;
constexpr double kMaxLagP99Us = 50000.0;

/// Why a phase met or missed the SLO; empty when it met it.
std::string slo_miss_reason(const PhaseOutcome& p, const Slo& slo);
/// A generator that fell behind its schedule invalidates the phase.
bool generator_valid(const PhaseOutcome& p);

/// Result of the search over a fixed offered-rate ladder.
struct LadderResult {
  enum class Kind { kFound, kCapped, kBelowLadder };
  Kind kind = Kind::kFound;
  double qps = 0.0;  // the estimate; 0 when below the ladder
  std::vector<std::pair<int, bool>> probes;  // (rung, passed) in probe order
};

/// Estimates the highest rung of `ladder` (ascending) at which one window
/// `passes(rate)` meets the SLO. A binary search, one window per rung,
/// finds a starting rung; then an up-down staircase (one rung up after a
/// pass, one down after a miss), which runs another window while
/// `more(windows run so far)` holds, settles around the rate where half
/// the windows pass. The estimate is the
/// geometric mean of the rates of the staircase's passing windows after
/// its first miss (all of its passing windows when it never missed).
///
/// On a shared host, stalls fail windows near capacity at random; a
/// single binary search lands wherever the first unlucky window sent it,
/// while the staircase averages many windows, so a burst lowers the
/// estimate by its share of the windows. A staircase window that passes
/// at the top rung makes the result kCapped: the system never saturated,
/// so the ladder says nothing about its capacity. No passing staircase
/// window makes it kBelowLadder.
LadderResult search_ladder(const std::vector<double>& ladder,
                           const std::function<bool(double)>& passes,
                           const std::function<bool(int)>& more);

const char* to_string(LadderResult::Kind kind);

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The last line of the benchmark output: exactly the keys correct,
/// attempted, failed and metrics, numbers printed round-trip exact.
std::string result_json(bool correct, int64_t attempted, int64_t failed,
                         const std::map<std::string, Metric>& metrics);

/// Shortest decimal text that reads back as exactly `v`.
std::string format_number(double v);

}  // namespace perfbench
