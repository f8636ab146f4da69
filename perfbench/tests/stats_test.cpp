// Unit tests of the benchmark's statistics and decision rules.
#include <cmath>
#include <functional>
#include <limits>

#include <gtest/gtest.h>

#include "stats.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted 100..1
  EXPECT_EQ(percentile(v, 0.5), 50);
  EXPECT_EQ(percentile(v, 0.99), 99);
  EXPECT_EQ(percentile(v, 1.0), 100);
  EXPECT_EQ(percentile(v, 0.0), 1);
  EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
}

TEST(Percentile, SupportedNeedsTenSamplesBeyond) {
  EXPECT_FALSE(percentile_supported(19, 0.5));
  EXPECT_TRUE(percentile_supported(20, 0.5));
  EXPECT_FALSE(percentile_supported(999, 0.99));
  EXPECT_TRUE(percentile_supported(1000, 0.99));
  EXPECT_FALSE(percentile_supported(9999, 0.999));
  EXPECT_TRUE(percentile_supported(10000, 0.999));
}

TEST(Median, EvenAndOdd) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(LowerQuartile, IgnoresAMinorityOfSlowWindows) {
  // Nine windows, four slowed by host stalls: the third best is reported.
  EXPECT_EQ(lower_quartile({1.0, 9.0, 1.1, 8.0, 1.2, 7.0, 1.3, 6.0, 1.4}), 1.2);
}

PhaseOutcome phase(int64_t ok, double latency_ms) {
  PhaseOutcome p;
  p.sent = ok;
  p.ok = ok;
  p.latency_ms.assign(static_cast<size_t>(ok), latency_ms);
  return p;
}

TEST(FailFrac, CountsShedsTimeoutsErrorsAndMismatches) {
  PhaseOutcome p = phase(990, 1.0);
  p.sent = 1000;
  p.shed = 4;
  p.timed_out = 3;
  p.errored = 2;
  p.mismatched = 1;
  EXPECT_EQ(failures(p), 10);
  EXPECT_DOUBLE_EQ(fail_frac(p), 0.01);
  EXPECT_EQ(fail_frac(PhaseOutcome{}), 0.0);
}

TEST(SloPercentile, FailuresMissTheLimit) {
  PhaseOutcome p = phase(989, 1.0);
  p.sent = 1000;
  p.shed = 11;  // 11 failures: more than the 10 samples beyond p99
  EXPECT_TRUE(std::isinf(slo_percentile(p, 0.99)));
  p.shed = 10;
  p.ok = 990;
  p.latency_ms.assign(990, 1.0);
  EXPECT_EQ(slo_percentile(p, 0.99), 1.0);
  EXPECT_TRUE(std::isnan(slo_percentile(phase(999, 1.0), 0.99)));  // unsupported
}

TEST(Slo, MissReasons) {
  const Slo slo{5.0, 0.01};
  PhaseOutcome p = phase(1000, 1.0);
  EXPECT_EQ(slo_miss_reason(p, slo), "");
  p.latency_ms.back() = 50.0;
  EXPECT_EQ(slo_miss_reason(p, slo), "");  // one slow request is beyond p99
  p.latency_ms.assign(1000, 6.0);
  EXPECT_EQ(slo_miss_reason(p, slo), "p99 over limit");
  p = phase(1000, 1.0);
  p.drained = false;
  EXPECT_EQ(slo_miss_reason(p, slo), "backlog did not drain");
  p = phase(1000, 1.0);
  p.lag_p99_us = 20000.0;  // a host stall: charged to latency, generator still valid
  EXPECT_TRUE(generator_valid(p));
  p.lag_p50_us = 2000.0;  // late on most sends: fell behind
  EXPECT_FALSE(generator_valid(p));
  EXPECT_EQ(slo_miss_reason(p, slo), "invalid: generator lag");
  p = phase(980, 1.0);
  p.sent = 1000;
  p.shed = 20;
  EXPECT_EQ(slo_miss_reason(p, slo), "fail_frac over limit");
  EXPECT_EQ(slo_miss_reason(phase(500, 1.0), slo), "too few requests for p99");
}

// A staircase of n windows.
std::function<bool(int)> windows(int n) {
  return [n](int k) { return k < n; };
}

// A host whose windows pass exactly up to `cap`.
std::function<bool(double)> steady(double cap) {
  return [cap](double q) { return q <= cap; };
}

TEST(Ladder, SettlesOnTheHighestPassingRung) {
  const std::vector<double> ladder = {100, 200, 300, 400, 500, 600, 700};
  const LadderResult r = search_ladder(ladder, steady(450), windows(10));
  EXPECT_EQ(r.kind, LadderResult::Kind::kFound);
  EXPECT_DOUBLE_EQ(r.qps, 400);  // passes only at 400, misses at 500
  EXPECT_EQ(r.probes.size(), 3u + 10u);  // binary search over 7 rungs, then the staircase
  for (size_t k = 3; k < r.probes.size(); ++k) {
    EXPECT_EQ(r.probes[k].first, k % 2 == 1 ? 3 : 4);  // 400, 500, 400, ...
  }
}

TEST(Ladder, EveryBoundaryIsFound) {
  std::vector<double> ladder;
  for (int i = 1; i <= 40; ++i) ladder.push_back(i);
  for (int cap = 1; cap < 40; ++cap) {
    const LadderResult r = search_ladder(ladder, steady(cap), windows(8));
    EXPECT_DOUBLE_EQ(r.qps, cap);
    EXPECT_LE(r.probes.size(), 6u + 8u);
  }
}

TEST(Ladder, StaircaseRecoversFromAStalledStart) {
  // The first two windows (at 400 and 200) hit a stall, so the binary
  // search starts the staircase at 100; it climbs back and the windows
  // before its first miss are not counted.
  const std::vector<double> ladder = {100, 200, 300, 400, 500, 600, 700};
  int calls = 0;
  const LadderResult r = search_ladder(
      ladder, [&](double q) { return ++calls > 2 && q <= 550; }, windows(12));
  EXPECT_EQ(r.kind, LadderResult::Kind::kFound);
  EXPECT_NEAR(r.qps, 500, 1e-9);
}

TEST(Ladder, AStallLowersTheEstimateByItsShare) {
  // Steady capacity at 400 with one stalled window in the staircase: of
  // the five passing windows after the first miss, one sits at 300.
  const std::vector<double> ladder = {100, 200, 300, 400, 500, 600, 700};
  int calls = 0;
  const LadderResult r = search_ladder(
      ladder, [&](double q) { return ++calls != 8 && q <= 450; }, windows(12));
  EXPECT_EQ(r.kind, LadderResult::Kind::kFound);
  EXPECT_NEAR(r.qps, 400 * std::pow(0.75, 0.2), 1e-9);
}

TEST(Ladder, CappedWhenTopRungPasses) {
  const LadderResult r = search_ladder({1, 2, 3}, [](double) { return true; }, windows(4));
  EXPECT_EQ(r.kind, LadderResult::Kind::kCapped);
  EXPECT_EQ(r.qps, 3);
  EXPECT_STREQ(to_string(r.kind), "capped");
}

TEST(Ladder, BelowLadderWhenNothingPasses) {
  const LadderResult r = search_ladder({1, 2, 3}, [](double) { return false; }, windows(4));
  EXPECT_EQ(r.kind, LadderResult::Kind::kBelowLadder);
  EXPECT_EQ(r.qps, 0);
  EXPECT_STREQ(to_string(r.kind), "below-ladder");
}

TEST(ResultJson, ExactKeysAndRoundTripNumbers) {
  std::map<std::string, Metric> m;
  m["latency_ms"] = {1.2034, "ms"};
  m["setup_s"] = {0.1 + 0.2, "s"};
  EXPECT_EQ(result_json(true, 1000, 0, m),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}");
  EXPECT_EQ(format_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(format_number(3.0), "3");
}

}  // namespace
}  // namespace perfbench
